//! Canonical-bytes fast path for the hot wire frames.
//!
//! The generic codec routes every frame through a [`serde::Value`]
//! tree — an allocation per key and per node, which costs microseconds
//! per event and caps a single-core server near 300k placements/sec.
//! The placement hot path (event and batch requests, bin and bins
//! responses) therefore has a second implementation here: writers that
//! emit the *byte-identical* canonical encoding directly into a reused
//! buffer, and a strict recursive-descent parser that matches exactly
//! those bytes.
//!
//! Any deviation from canonical form — whitespace, reordered keys,
//! leading zeros, a non-positive denominator, a number that overflows
//! its field — makes the fast parser return `None`, and the caller
//! falls back to the generic `Value` path. An unnormalized rational
//! such as `{"num":2,"den":4}` is *not* a deviation: it is accepted and
//! reduced to `1/2`, exactly as the generic path does. The wire
//! *format* is therefore unchanged: this module is an optimization, not
//! a dialect. Byte-equality of the two encoders and agreement of the
//! two parsers are enforced by the unit tests below and by the property
//! tests in `tests/prop_wire.rs`.
//!
//! Ids, bins, ticks and grid fractions all fit 64 bits, so numbers are
//! read and printed in `u64` arithmetic; only literals of 20 or more
//! digits (parsing) and magnitudes above `u64::MAX` (printing) take the
//! 128-bit path.

use crate::frame::{Request, Response};
use crate::{BinId, Event, ItemId};
use dbp_numeric::Rational;

/// Appends the canonical `{"v":1,"arrive":{...}}` /
/// `{"v":1,"depart":{...}}` single-event request frame — byte-identical
/// to `serde_json::to_string(&Request::Event(ev).to_value())`.
pub fn write_event_request(buf: &mut Vec<u8>, ev: &Event) {
    write_event_request_traced(buf, ev, None);
}

/// [`write_event_request`] with an optional `trace` request id after
/// `v` — byte-identical to the generic `to_traced_value` encoding.
pub fn write_event_request_traced(buf: &mut Vec<u8>, ev: &Event, trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    push_tagged_event(buf, ev);
    buf.push(b'}');
}

/// Appends the canonical `{"v":1,"batch":[...]}` request frame —
/// byte-identical to the generic encoding of `Request::Batch`.
pub fn write_batch_request(buf: &mut Vec<u8>, events: &[Event]) {
    write_batch_request_traced(buf, events, None);
}

/// [`write_batch_request`] with an optional `trace` request id.
pub fn write_batch_request_traced(buf: &mut Vec<u8>, events: &[Event], trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"batch\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.push(b'{');
        push_tagged_event(buf, ev);
        buf.push(b'}');
    }
    buf.extend_from_slice(b"]}");
}

/// Appends the canonical `{"v":1,"bin":N}` response frame.
pub fn write_bin_response(buf: &mut Vec<u8>, bin: BinId) {
    write_bin_response_traced(buf, bin, None);
}

/// [`write_bin_response`] echoing the request's `trace` id.
pub fn write_bin_response_traced(buf: &mut Vec<u8>, bin: BinId, trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"bin\":");
    push_u64(buf, bin.0.into());
    buf.push(b'}');
}

/// Appends the canonical `{"v":1,"bins":[...]}` response frame.
pub fn write_bins_response(buf: &mut Vec<u8>, bins: &[BinId]) {
    write_bins_response_traced(buf, bins, None);
}

/// [`write_bins_response`] echoing the request's `trace` id.
pub fn write_bins_response_traced(buf: &mut Vec<u8>, bins: &[BinId], trace: Option<u64>) {
    buf.extend_from_slice(b"{\"v\":1,");
    push_trace(buf, trace);
    buf.extend_from_slice(b"\"bins\":[");
    for (i, bin) in bins.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_u64(buf, bin.0.into());
    }
    buf.extend_from_slice(b"]}");
}

// `"trace":N,` directly after the version tag; nothing when untraced,
// so the untraced writers stay byte-for-byte what they always were.
fn push_trace(buf: &mut Vec<u8>, trace: Option<u64>) {
    if let Some(id) = trace {
        buf.extend_from_slice(b"\"trace\":");
        push_u64(buf, id);
        buf.push(b',');
    }
}

// `"arrive":{"id":N,"size":{"num":n,"den":d},"time":{...}}` — the
// version-tag–less middle shared by single-event frames, batch
// elements, and journal/stream lines.
fn push_tagged_event(buf: &mut Vec<u8>, ev: &Event) {
    match ev {
        Event::Arrive { id, size, time } => {
            buf.extend_from_slice(b"\"arrive\":{\"id\":");
            push_u64(buf, id.0.into());
            buf.extend_from_slice(b",\"size\":");
            push_rational(buf, *size);
            buf.extend_from_slice(b",\"time\":");
            push_rational(buf, *time);
            buf.push(b'}');
        }
        Event::Depart { id, time } => {
            buf.extend_from_slice(b"\"depart\":{\"id\":");
            push_u64(buf, id.0.into());
            buf.extend_from_slice(b",\"time\":");
            push_rational(buf, *time);
            buf.push(b'}');
        }
    }
}

fn push_rational(buf: &mut Vec<u8>, r: Rational) {
    buf.extend_from_slice(b"{\"num\":");
    push_i128(buf, r.numer());
    buf.extend_from_slice(b",\"den\":");
    push_i128(buf, r.denom());
    buf.push(b'}');
}

fn push_i128(buf: &mut Vec<u8>, n: i128) {
    if n < 0 {
        buf.push(b'-');
    }
    // Magnitude in unsigned space so `i128::MIN` doesn't overflow.
    let m = n.unsigned_abs();
    match u64::try_from(m) {
        Ok(m) => push_u64(buf, m),
        Err(_) => {
            let mut digits = [0u8; 40];
            let mut i = digits.len();
            let mut m = m;
            while m > 0 {
                i -= 1;
                digits[i] = b'0' + (m % 10) as u8;
                m /= 10;
            }
            buf.extend_from_slice(&digits[i..]);
        }
    }
}

fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Parses a canonical placement request (`Event` or `Batch`); `None`
/// means "not canonical hot-path bytes — use the generic parser".
pub fn parse_request(payload: &[u8]) -> Option<Request> {
    parse_request_traced(payload).map(|(request, _)| request)
}

/// [`parse_request`] also returning the frame's optional `trace` id.
pub fn parse_request_traced(payload: &[u8]) -> Option<(Request, Option<u64>)> {
    let mut c = Cursor::new(payload);
    c.lit(b"{\"v\":1,")?;
    let trace = parse_trace(&mut c)?;
    if c.starts_with(b"\"batch\":[") {
        c.lit(b"\"batch\":[")?;
        // At least the batch length: each element takes at least
        // `MIN_EVENT_BYTES` of the payload, the last one with `]}`.
        let mut events = Vec::with_capacity(c.rest().len() / MIN_EVENT_BYTES);
        if !c.eat(b']') {
            loop {
                c.lit(b"{")?;
                events.push(parse_tagged_event(&mut c)?);
                c.lit(b"}")?;
                if c.eat(b']') {
                    break;
                }
                c.lit(b",")?;
            }
        }
        c.lit(b"}")?;
        c.end()?;
        Some((Request::Batch(events), trace))
    } else {
        let ev = parse_tagged_event(&mut c)?;
        c.lit(b"}")?;
        c.end()?;
        Some((Request::Event(ev), trace))
    }
}

/// Parses a canonical placement response (`Bin` or `Bins`); `None`
/// means "fall back to the generic parser".
pub fn parse_response(payload: &[u8]) -> Option<Response> {
    parse_response_traced(payload).map(|(response, _)| response)
}

/// [`parse_response`] also returning the echoed `trace` id.
pub fn parse_response_traced(payload: &[u8]) -> Option<(Response, Option<u64>)> {
    let mut c = Cursor::new(payload);
    c.lit(b"{\"v\":1,")?;
    let trace = parse_trace(&mut c)?;
    c.lit(b"\"bin")?;
    if c.eat(b'\"') {
        c.lit(b":")?;
        let bin = BinId(c.int_u32()?);
        c.lit(b"}")?;
        c.end()?;
        Some((Response::Bin(bin), trace))
    } else {
        c.lit(b"s\":[")?;
        let mut bins = Vec::new();
        if !c.eat(b']') {
            loop {
                bins.push(BinId(c.int_u32()?));
                if c.eat(b']') {
                    break;
                }
                c.lit(b",")?;
            }
        }
        c.lit(b"}")?;
        c.end()?;
        Some((Response::Bins(bins), trace))
    }
}

// Canonical traced frames put `"trace":N,` right after `"v":1,`; any
// other placement is non-canonical and defers to the generic parser.
// Outer `None` = malformed trace prefix, inner `None` = untraced.
#[allow(clippy::option_option)]
fn parse_trace(c: &mut Cursor<'_>) -> Option<Option<u64>> {
    if !c.starts_with(b"\"trace\":") {
        return Some(None);
    }
    c.lit(b"\"trace\":")?;
    let id = c.int_u64()?;
    c.lit(b",")?;
    Some(Some(id))
}

// The shortest canonical batch element plus its separating comma:
// `{"depart":{"id":0,"time":{"num":0,"den":1}}},`.
const MIN_EVENT_BYTES: usize = 45;

// Literal runs between the numbers of an event are matched fused, one
// `lit` per gap.
fn parse_tagged_event(c: &mut Cursor<'_>) -> Option<Event> {
    if c.starts_with(b"\"arrive\"") {
        c.lit(b"\"arrive\":{\"id\":")?;
        let id = ItemId(c.int_u32()?);
        c.lit(b",\"size\":{\"num\":")?;
        let size = parse_rational_tail(c)?;
        c.lit(b",\"time\":{\"num\":")?;
        let time = parse_rational_tail(c)?;
        c.lit(b"}")?;
        Some(Event::Arrive { id, size, time })
    } else {
        c.lit(b"\"depart\":{\"id\":")?;
        let id = ItemId(c.int_u32()?);
        c.lit(b",\"time\":{\"num\":")?;
        let time = parse_rational_tail(c)?;
        c.lit(b"}")?;
        Some(Event::Depart { id, time })
    }
}

// `n,"den":d}` — a rational after its `{"num":` opener.
fn parse_rational_tail(c: &mut Cursor<'_>) -> Option<Rational> {
    let num = c.int_i128()?;
    c.lit(b",\"den\":")?;
    // Canonical denominators are positive, so no sign is accepted;
    // zero and negative ones belong to the generic path's (lenient)
    // semantics.
    let den = c.magnitude()?;
    c.lit(b"}")?;
    if den == 0 {
        return None;
    }
    Some(Rational::new(num, i128::try_from(den).ok()?))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.rest().starts_with(s)
    }

    fn lit(&mut self, s: &[u8]) -> Option<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.rest().first() == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn end(&self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }

    // Canonical decimal: optional `-`, no leading zeros, no overflow.
    fn int_i128(&mut self) -> Option<i128> {
        let negative = self.eat(b'-');
        let n = i128::try_from(self.magnitude()?).ok()?;
        Some(if negative { -n } else { n })
    }

    fn int_u32(&mut self) -> Option<u32> {
        u32::try_from(self.int_u64()?).ok()
    }

    fn int_u64(&mut self) -> Option<u64> {
        u64::try_from(self.magnitude()?).ok()
    }

    // An unsigned canonical decimal: no sign, no leading zeros. Up to
    // 19 digits always fit a `u64`, so the common case accumulates in
    // one unchecked pass; longer literals take the checked 128-bit path.
    fn magnitude(&mut self) -> Option<u128> {
        let rest = self.rest();
        let mut n = 0u64;
        let mut len = 0;
        for &b in rest.iter().take(19) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            n = n * 10 + u64::from(d);
            len += 1;
        }
        if len == 0 || (len > 1 && rest[0] == b'0') {
            return None;
        }
        if rest.get(len).is_some_and(u8::is_ascii_digit) {
            let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            self.pos += len;
            return rest[..len].iter().try_fold(0u128, |n, &d| {
                n.checked_mul(10)?.checked_add(u128::from(d - b'0'))
            });
        }
        self.pos += len;
        Some(n.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_numeric::rat;
    use serde::Serialize;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Arrive {
                id: ItemId(0),
                size: rat(1, 2),
                time: rat(0, 1),
            },
            Event::Arrive {
                id: ItemId(u32::MAX),
                size: rat(-7, 3),
                time: rat(1_000_003, 9973),
            },
            Event::Depart {
                id: ItemId(0),
                time: rat(5, 1),
            },
        ]
    }

    fn generic(req: &Request) -> String {
        serde_json::to_string(&req.to_value()).unwrap()
    }

    #[test]
    fn event_writer_matches_generic_encoder() {
        for ev in sample_events() {
            let mut fast = Vec::new();
            write_event_request(&mut fast, &ev);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                generic(&Request::Event(ev))
            );
        }
    }

    #[test]
    fn batch_writer_matches_generic_encoder() {
        for events in [vec![], sample_events()] {
            let mut fast = Vec::new();
            write_batch_request(&mut fast, &events);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                generic(&Request::Batch(events))
            );
        }
    }

    #[test]
    fn response_writers_match_generic_encoder() {
        let mut fast = Vec::new();
        write_bin_response(&mut fast, BinId(41));
        assert_eq!(
            String::from_utf8(fast).unwrap(),
            serde_json::to_string(&Response::Bin(BinId(41)).to_value()).unwrap()
        );
        for bins in [vec![], vec![BinId(0), BinId(7), BinId(u32::MAX)]] {
            let mut fast = Vec::new();
            write_bins_response(&mut fast, &bins);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                serde_json::to_string(&Response::Bins(bins).to_value()).unwrap()
            );
        }
    }

    #[test]
    fn fast_parsers_invert_fast_writers() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_batch_request(&mut buf, &events);
        assert_eq!(parse_request(&buf), Some(Request::Batch(events.clone())));
        for ev in events {
            buf.clear();
            write_event_request(&mut buf, &ev);
            assert_eq!(parse_request(&buf), Some(Request::Event(ev)));
        }
        buf.clear();
        write_bin_response(&mut buf, BinId(3));
        assert_eq!(parse_response(&buf), Some(Response::Bin(BinId(3))));
        let bins = vec![BinId(2), BinId(0)];
        buf.clear();
        write_bins_response(&mut buf, &bins);
        assert_eq!(parse_response(&buf), Some(Response::Bins(bins)));
    }

    #[test]
    fn non_canonical_bytes_defer_to_the_generic_parser() {
        for payload in [
            // Whitespace, reordered keys, leading zeros, cold frames,
            // unnormalized or non-positive denominators: all legal JSON
            // that the strict matcher refuses.
            r#"{"v":1, "finish":{}}"#,
            r#"{"v":1,"hello":{"tenant":"t","algo":"firstfit"}}"#,
            r#"{"v":1,"arrive":{"id":01,"size":{"num":1,"den":2},"time":{"num":0,"den":1}}}"#,
            r#"{"v":1,"arrive":{"size":{"num":1,"den":2},"id":1,"time":{"num":0,"den":1}}}"#,
            r#"{"v":1,"depart":{"id":1,"time":{"num":1,"den":0}}}"#,
            r#"{"v":1,"depart":{"id":1,"time":{"num":1,"den":-2}}}"#,
            r#"{"v":1,"bin":7} "#,
            r#"{"v":2,"bin":7}"#,
            "not json at all",
        ] {
            assert_eq!(parse_request(payload.as_bytes()), None, "{payload}");
            assert_eq!(parse_response(payload.as_bytes()), None, "{payload}");
        }
    }

    #[test]
    fn traced_writers_match_generic_encoder_and_invert() {
        let ev = sample_events().remove(1);
        let trace = Some(184_467_440_737_095u64);
        let mut buf = Vec::new();
        write_event_request_traced(&mut buf, &ev, trace);
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            serde_json::to_string(&Request::Event(ev).to_traced_value(trace)).unwrap()
        );
        assert_eq!(
            parse_request_traced(&buf),
            Some((Request::Event(ev), trace))
        );

        let events = sample_events();
        buf.clear();
        write_batch_request_traced(&mut buf, &events, Some(0));
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            serde_json::to_string(&Request::Batch(events.clone()).to_traced_value(Some(0)))
                .unwrap()
        );
        assert_eq!(
            parse_request_traced(&buf),
            Some((Request::Batch(events), Some(0)))
        );

        buf.clear();
        write_bin_response_traced(&mut buf, BinId(3), Some(7));
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            r#"{"v":1,"trace":7,"bin":3}"#
        );
        assert_eq!(
            parse_response_traced(&buf),
            Some((Response::Bin(BinId(3)), Some(7)))
        );

        let bins = vec![BinId(2), BinId(0)];
        buf.clear();
        write_bins_response_traced(&mut buf, &bins, Some(9));
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            serde_json::to_string(&Response::Bins(bins.clone()).to_traced_value(Some(9))).unwrap()
        );
        assert_eq!(
            parse_response_traced(&buf),
            Some((Response::Bins(bins), Some(9)))
        );
    }

    #[test]
    fn non_canonical_trace_placement_defers_to_the_generic_parser() {
        for payload in [
            // Trace after the tag, leading zeros, negative, stringy —
            // legal only for the generic parser (or not at all).
            r#"{"v":1,"bin":7,"trace":9}"#,
            r#"{"v":1,"trace":07,"bin":7}"#,
            r#"{"v":1,"trace":-1,"bin":7}"#,
            r#"{"v":1,"trace":"9","bin":7}"#,
        ] {
            assert_eq!(parse_request_traced(payload.as_bytes()), None, "{payload}");
            assert_eq!(parse_response_traced(payload.as_bytes()), None, "{payload}");
        }
    }

    #[test]
    fn extreme_integers_round_trip() {
        let ev = Event::Arrive {
            id: ItemId(u32::MAX),
            size: Rational::new(i128::MIN + 1, 1),
            time: rat(0, 1),
        };
        let mut buf = Vec::new();
        write_event_request(&mut buf, &ev);
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            generic(&Request::Event(ev))
        );
        assert_eq!(parse_request(&buf), Some(Request::Event(ev)));
    }

    // Parses `payload` with both codecs: the fast parser must agree
    // with the generic one or decline. Returns whether it accepted.
    fn fast_agrees(payload: &str) -> bool {
        let generic = || serde_json::parse(payload).ok();
        if let Some(fast) = parse_request_traced(payload.as_bytes()) {
            let value = generic().expect("fast-accepted frames are JSON");
            assert_eq!(
                Request::from_traced_value(&value).ok(),
                Some(fast),
                "{payload}"
            );
            return true;
        }
        if let Some(fast) = parse_response_traced(payload.as_bytes()) {
            let value = generic().expect("fast-accepted frames are JSON");
            assert_eq!(
                Response::from_traced_value(&value).ok(),
                Some(fast),
                "{payload}"
            );
            return true;
        }
        false
    }

    const U64_MAX: &str = "18446744073709551615";
    const U64_MAX_PLUS_1: &str = "18446744073709551616";
    const I128_MAX: &str = "170141183460469231731687303715884105727";
    const I128_MIN: &str = "-170141183460469231731687303715884105728";

    #[test]
    fn boundary_numbers_agree_with_the_generic_parser_or_decline() {
        // (literal, fast accepts it as a numerator, as a denominator)
        let cases = [
            ("999999999999999999", true, true),   // 18 digits
            ("9999999999999999999", true, true),  // 19 digits
            ("99999999999999999999", true, true), // 20 digits
            ("-99999999999999999999", true, false),
            ("10000000000000000000", true, true), // smallest 20-digit
            (U64_MAX, true, true),
            (U64_MAX_PLUS_1, true, true),
            (I128_MAX, true, true),
            ("170141183460469231731687303715884105728", false, false),
            (I128_MIN, false, false),
            ("-0", true, false),
            ("0", true, false),
            ("00", false, false),
            ("007", false, false),
            ("-07", false, false),
            ("-", false, false),
            ("", false, false),
        ];
        for (lit, as_num, as_den) in cases {
            let num = format!(r#"{{"v":1,"depart":{{"id":1,"time":{{"num":{lit},"den":3}}}}}}"#);
            assert_eq!(fast_agrees(&num), as_num, "{num}");
            let den = format!(
                r#"{{"v":1,"arrive":{{"id":1,"size":{{"num":1,"den":2}},"time":{{"num":5,"den":{lit}}}}}}}"#
            );
            assert_eq!(fast_agrees(&den), as_den, "{den}");
        }
    }

    #[test]
    fn boundary_ids_bins_and_traces_agree_or_decline() {
        let u32_max = u32::MAX.to_string();
        let u32_over = (u64::from(u32::MAX) + 1).to_string();
        for (lit, fits_u32, fits_u64) in [
            ("0", true, true),
            (u32_max.as_str(), true, true),
            (u32_over.as_str(), false, true),
            (U64_MAX, false, true),
            (U64_MAX_PLUS_1, false, false),
            ("01", false, false),
            ("-1", false, false),
        ] {
            let id = format!(r#"{{"v":1,"depart":{{"id":{lit},"time":{{"num":0,"den":1}}}}}}"#);
            assert_eq!(fast_agrees(&id), fits_u32, "{id}");
            let bin = format!(r#"{{"v":1,"bin":{lit}}}"#);
            assert_eq!(fast_agrees(&bin), fits_u32, "{bin}");
            let bins = format!(r#"{{"v":1,"bins":[0,{lit}]}}"#);
            assert_eq!(fast_agrees(&bins), fits_u32, "{bins}");
            let trace = format!(r#"{{"v":1,"trace":{lit},"bin":0}}"#);
            assert_eq!(fast_agrees(&trace), fits_u64, "{trace}");
        }
    }

    #[test]
    fn batches_of_the_shortest_elements_never_regrow() {
        let depart = Event::Depart {
            id: ItemId(0),
            time: rat(0, 1),
        };
        for n in [1, 2, 1000] {
            let mut buf = Vec::new();
            write_batch_request(&mut buf, &vec![depart; n]);
            match parse_request(&buf) {
                Some(Request::Batch(events)) => assert_eq!(events.capacity(), n),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn unnormalized_rationals_are_accepted_and_reduced() {
        let payload =
            r#"{"v":1,"arrive":{"id":3,"size":{"num":2,"den":4},"time":{"num":-0,"den":6}}}"#;
        assert!(fast_agrees(payload));
        assert_eq!(
            parse_request(payload.as_bytes()),
            Some(Request::Event(Event::Arrive {
                id: ItemId(3),
                size: rat(1, 2),
                time: rat(0, 1),
            }))
        );
    }

    #[test]
    fn writers_match_the_generic_encoder_at_integer_boundaries() {
        let big = u64::MAX as i128;
        let values = [
            0,
            1,
            999_999_999_999_999_999,
            9_999_999_999_999_999_999,
            big - 1,
            big,
            big + 1,
            i128::MAX,
            -1,
            -big,
            -big - 1,
            i128::MIN + 1,
        ];
        for n in values {
            for den in [1, 7, big, big + 1, i128::MAX] {
                let ev = Event::Depart {
                    id: ItemId(u32::MAX),
                    time: Rational::new(n, den),
                };
                let mut buf = Vec::new();
                write_event_request(&mut buf, &ev);
                assert_eq!(
                    String::from_utf8(buf.clone()).unwrap(),
                    generic(&Request::Event(ev))
                );
                assert_eq!(parse_request(&buf), Some(Request::Event(ev)));
            }
        }
        for trace in [None, Some(0), Some(u64::MAX)] {
            let mut buf = Vec::new();
            write_bin_response_traced(&mut buf, BinId(u32::MAX), trace);
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                serde_json::to_string(&Response::Bin(BinId(u32::MAX)).to_traced_value(trace))
                    .unwrap()
            );
        }
    }
}

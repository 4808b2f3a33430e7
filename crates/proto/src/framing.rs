//! Length-prefixed framing for JSONL over a byte stream.
//!
//! A frame on the wire is
//!
//! ```text
//! <decimal byte length of the JSON document>\n
//! <JSON document>\n
//! ```
//!
//! The explicit length lets a reader pull exactly one document without
//! scanning for newlines inside it, and a human with `nc` can still
//! speak the protocol by hand (`printf '%s\n%s\n' "${#json}" "$json"`).
//!
//! Error handling draws a deliberate line: transport damage (I/O
//! errors, an unparseable or over-long length line, an oversized
//! frame, a stream that ends mid-frame) poisons the
//! stream and is returned as `Err` — the connection cannot continue
//! because frame boundaries are lost. A frame whose *payload* fails to
//! parse is fully consumed first, so it comes back as
//! [`FrameRead::Malformed`] and the caller can answer with a typed
//! protocol error and keep the connection alive.

use serde::Deserialize;
use std::io::{self, BufRead, Read, Write};

/// Hard ceiling on a single frame's payload, guarding the server
/// against a hostile or confused peer declaring a huge length.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest accepted length line: 20 decimal digits (any `u64`) plus
/// its newline.
const MAX_LEN_LINE: usize = 21;

/// Outcome of reading one frame.
#[derive(Debug)]
pub enum FrameRead<T> {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// One well-formed frame.
    Frame(T),
    /// The frame was delimited correctly but its payload didn't parse;
    /// the stream is positioned at the next frame boundary.
    Malformed(String),
}

/// Writes `payload` (one serialized JSON document, no newlines added
/// by the caller) as a length-prefixed frame. Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write_frame_bytes(w, payload.as_bytes())
}

/// Byte-slice twin of [`write_frame`] for payloads produced by the
/// [`crate::fast`] writers.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut len_line = itoa(payload.len());
    len_line.push('\n');
    w.write_all(len_line.as_bytes())?;
    w.write_all(payload)?;
    w.write_all(b"\n")
}

// Formats a usize without going through `format!` — this sits on the
// per-event hot path of the server and loadgen.
fn itoa(mut n: usize) -> String {
    if n == 0 {
        return "0".to_string();
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n > 0 {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    String::from_utf8_lossy(&buf[i..]).into_owned()
}

/// Reads one length-prefixed frame and deserializes it.
///
/// `Err` means the stream is no longer frame-aligned (close it);
/// [`FrameRead::Malformed`] means this frame was bad but the stream is
/// fine.
pub fn read_frame<T: Deserialize>(r: &mut impl BufRead) -> io::Result<FrameRead<T>> {
    let mut scratch = Vec::new();
    match read_raw_frame(r, &mut scratch)? {
        RawFrame::Eof => Ok(FrameRead::Eof),
        RawFrame::Payload => Ok(parse_payload(&scratch)),
    }
}

/// Reads one frame into `scratch` (reused across calls to avoid
/// per-frame allocation) and deserializes it.
pub fn read_frame_into<T: Deserialize>(
    r: &mut impl BufRead,
    scratch: &mut Vec<u8>,
) -> io::Result<FrameRead<T>> {
    match read_raw_frame(r, scratch)? {
        RawFrame::Eof => Ok(FrameRead::Eof),
        RawFrame::Payload => Ok(parse_payload(scratch)),
    }
}

/// Outcome of [`read_frame_raw`]: either end-of-stream or "one frame's
/// payload bytes are now in the scratch buffer".
#[derive(Debug)]
pub enum RawFrame {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// One delimited payload, left in the caller's scratch buffer —
    /// not yet parsed, so hot paths can try [`crate::fast`] first and
    /// fall back to [`parse_frame_payload`].
    Payload,
}

/// Reads one frame's raw payload into `scratch` without parsing it.
///
/// The error contract matches [`read_frame`]: `Err` means frame
/// alignment is lost and the stream must be closed.
pub fn read_frame_raw(r: &mut impl BufRead, scratch: &mut Vec<u8>) -> io::Result<RawFrame> {
    read_raw_frame(r, scratch)
}

/// Parses one frame payload (as delivered by [`read_frame_raw`]) with
/// the generic `Value` codec.
pub fn parse_frame_payload<T: Deserialize>(bytes: &[u8]) -> FrameRead<T> {
    parse_payload(bytes)
}

fn parse_payload<T: Deserialize>(bytes: &[u8]) -> FrameRead<T> {
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => return FrameRead::Malformed(format!("frame is not UTF-8: {e}")),
    };
    let value = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => return FrameRead::Malformed(format!("frame is not JSON: {e}")),
    };
    match T::from_value(&value) {
        Ok(frame) => FrameRead::Frame(frame),
        Err(e) => FrameRead::Malformed(e.to_string()),
    }
}

fn read_raw_frame(r: &mut impl BufRead, scratch: &mut Vec<u8>) -> io::Result<RawFrame> {
    // Length line, read at most `MAX_LEN_LINE` bytes deep: a peer that
    // never sends the newline cannot grow `scratch` without limit.
    scratch.clear();
    let n = r.take(MAX_LEN_LINE as u64).read_until(b'\n', scratch)?;
    if n == 0 {
        return Ok(RawFrame::Eof);
    }
    if n == MAX_LEN_LINE && scratch.last() != Some(&b'\n') {
        return Err(bad_stream(format!(
            "frame length line exceeds {} digits",
            MAX_LEN_LINE - 1
        )));
    }
    let len_text = std::str::from_utf8(scratch)
        .map_err(|_| bad_stream("frame length line is not UTF-8"))?
        .trim();
    let len: usize = len_text
        .parse()
        .map_err(|_| bad_stream(format!("bad frame length line {len_text:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(bad_stream(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }

    // Payload: exactly `len` bytes, then the trailing newline. The
    // buffer grows only as bytes arrive, so a declared length costs
    // no memory until the peer actually sends it.
    scratch.clear();
    if (r.take(len as u64).read_to_end(scratch)?) < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream ended inside a {len}-byte frame"),
        ));
    }
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)?;
    if nl[0] != b'\n' {
        return Err(bad_stream("frame payload not followed by newline"));
    }
    Ok(RawFrame::Payload)
}

fn bad_stream(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response};
    use serde::Serialize;
    use std::io::Cursor;

    fn framed(payloads: &[&str]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).unwrap();
        }
        buf
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let snapshot = serde_json::to_string(&Request::Snapshot.to_value()).unwrap();
        let finish = serde_json::to_string(&Request::Finish.to_value()).unwrap();
        let mut r = Cursor::new(framed(&[&snapshot, &finish]));
        assert!(matches!(
            read_frame::<Request>(&mut r).unwrap(),
            FrameRead::Frame(Request::Snapshot)
        ));
        assert!(matches!(
            read_frame::<Request>(&mut r).unwrap(),
            FrameRead::Frame(Request::Finish)
        ));
        assert!(matches!(
            read_frame::<Request>(&mut r).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn malformed_payload_leaves_stream_aligned() {
        let finish = serde_json::to_string(&Request::Finish.to_value()).unwrap();
        let mut r = Cursor::new(framed(&["{not json", &finish]));
        assert!(matches!(
            read_frame::<Request>(&mut r).unwrap(),
            FrameRead::Malformed(_)
        ));
        // The bad frame was fully consumed; the next one still parses.
        assert!(matches!(
            read_frame::<Request>(&mut r).unwrap(),
            FrameRead::Frame(Request::Finish)
        ));
    }

    #[test]
    fn wrong_schema_is_malformed_not_fatal() {
        // A valid JSON document that is not a Response.
        let mut r = Cursor::new(framed(&[r#"{"v":1,"teleport":{}}"#]));
        assert!(matches!(
            read_frame::<Response>(&mut r).unwrap(),
            FrameRead::Malformed(_)
        ));
    }

    #[test]
    fn transport_damage_is_fatal() {
        let mut r = Cursor::new(b"not-a-number\n{}\n".to_vec());
        assert!(read_frame::<Request>(&mut r).is_err());

        let oversized = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = Cursor::new(oversized.into_bytes());
        assert!(read_frame::<Request>(&mut r).is_err());

        // Truncated payload: declared 10 bytes, stream ends early.
        let mut r = Cursor::new(b"10\n{}\n".to_vec());
        assert!(read_frame::<Request>(&mut r).is_err());
    }

    #[test]
    fn endless_length_line_is_refused_without_buffering_it() {
        let digits = vec![b'7'; 1 << 20];
        let mut scratch = Vec::new();
        let err = read_frame_raw(&mut Cursor::new(digits), &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(scratch.capacity() < 64 << 10, "{}", scratch.capacity());

        // Twenty digits is the longest line accepted.
        let longest = format!("{:020}\n{{}}\n", 2);
        let mut r = Cursor::new(longest.into_bytes());
        assert!(matches!(
            read_frame_raw(&mut r, &mut scratch).unwrap(),
            RawFrame::Payload
        ));
        assert_eq!(scratch, b"{}");
    }

    #[test]
    fn declared_length_allocates_only_what_arrives() {
        let mut scratch = Vec::new();
        let header = format!("{MAX_FRAME_BYTES}\n{{\"v\":1");
        let err = read_frame_raw(&mut Cursor::new(header.into_bytes()), &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(scratch.capacity() < 64 << 10, "{}", scratch.capacity());
    }

    #[test]
    fn empty_length_zero_frame_is_malformed() {
        let mut r = Cursor::new(framed(&[""]));
        assert!(matches!(
            read_frame::<Request>(&mut r).unwrap(),
            FrameRead::Malformed(_)
        ));
    }
}

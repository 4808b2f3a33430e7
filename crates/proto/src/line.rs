//! Versioned JSONL lines: stream events and checkpoint envelopes.
//!
//! A line is one JSON object. Tagged lines carry `"v": 1` next to the
//! payload tag; untagged lines (the pre-versioning format) parse
//! identically. Blank lines and `#` comments are stream chrome, not
//! events.

use crate::{Event, Request, SessionSnapshot, WIRE_VERSION};
use serde::{Deserialize, Serialize, Value};

/// Checks a parsed object's `"v"` entry (if any) and returns the
/// object with the version entry stripped. `Err` on a version this
/// reader does not speak.
pub(crate) fn strip_version(value: &Value) -> Result<Value, String> {
    let Some(entries) = value.as_object() else {
        return Err(format!("expected a JSON object, got {}", value.kind()));
    };
    let mut rest = Vec::with_capacity(entries.len());
    for (key, val) in entries {
        if key == "v" {
            match val.as_int() {
                Some(v) if v == WIRE_VERSION => {}
                Some(v) => {
                    return Err(format!(
                        "unsupported wire version {v} (speaks v{WIRE_VERSION})"
                    ))
                }
                None => return Err("wire version is not an integer".to_string()),
            }
        } else {
            rest.push((key.clone(), val.clone()));
        }
    }
    Ok(Value::Object(rest))
}

/// Wraps a payload `Value` in the versioned envelope: the `"v"` entry
/// first, then the payload's own entries.
pub(crate) fn tag_version(payload: Value) -> Value {
    let mut entries = vec![("v".to_string(), Value::Int(WIRE_VERSION))];
    if let Some(obj) = payload.as_object() {
        entries.extend(obj.iter().cloned());
    }
    Value::Object(entries)
}

/// Renders one stream event as a versioned JSONL line (no trailing
/// newline): `{"v":1,"arrive":{...}}` / `{"v":1,"depart":{...}}`.
///
/// Uses the [`crate::fast`] canonical writer (this sits on the journal
/// hot path); the bytes are identical to the generic encoder's.
pub fn event_to_line(event: &Event) -> String {
    let mut buf = Vec::with_capacity(96);
    crate::fast::write_event_request(&mut buf, event);
    String::from_utf8(buf).expect("canonical frames are ASCII")
}

/// Parses one JSONL line into a stream event.
///
/// Returns `None` for blank lines and `#` comments, `Some(Err)` for
/// malformed JSON, an unsupported `"v"`, or a payload that is not an
/// arrive/depart event. Both versioned and legacy untagged lines are
/// accepted.
///
/// A canonical `{"v":1,"arrive"|"depart":…}` line (what
/// [`event_to_line`] writes) is read by the [`crate::fast`] parser;
/// every other line takes the generic path.
pub fn parse_event_line(line: &str) -> Option<Result<Event, String>> {
    if let Some((Request::Event(event), None)) = crate::fast::parse_request_traced(line.as_bytes())
    {
        return Some(Ok(event));
    }
    parse_generic_line(line)
}

// `parse_event_line` through the generic `Value` codec.
fn parse_generic_line(line: &str) -> Option<Result<Event, String>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return None;
    }
    let parsed = match serde_json::parse(trimmed) {
        Ok(v) => v,
        Err(e) => return Some(Err(e.to_string())),
    };
    let payload = match strip_version(&parsed) {
        Ok(p) => p,
        Err(e) => return Some(Err(e)),
    };
    Some(Event::from_value(&payload).map_err(|e| e.to_string()))
}

/// Renders a session checkpoint as a versioned JSON document:
/// `{"v":1,"checkpoint":{...}}`.
pub fn checkpoint_to_json(snapshot: &SessionSnapshot) -> String {
    let envelope = tag_version(Value::Object(vec![(
        "checkpoint".to_string(),
        snapshot.to_value(),
    )]));
    serde_json::to_string(&envelope).expect("checkpoints always serialize")
}

/// Parses a checkpoint document. Accepts the versioned
/// `{"v":1,"checkpoint":{...}}` envelope and, for checkpoints written
/// before versioning, a bare [`SessionSnapshot`] object.
pub fn checkpoint_from_json(text: &str) -> Result<SessionSnapshot, String> {
    let parsed = serde_json::parse(text).map_err(|e| e.to_string())?;
    let payload = strip_version(&parsed)?;
    if let Some(inner) = payload.get("checkpoint") {
        return SessionSnapshot::from_value(inner).map_err(|e| e.to_string());
    }
    SessionSnapshot::from_value(&payload).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::ItemId;
    use dbp_numeric::{rat, Rational};
    use proptest::prelude::*;

    fn arrive() -> Event {
        Event::Arrive {
            id: ItemId(7),
            size: rat(3, 8),
            time: rat(5, 2),
        }
    }

    #[test]
    fn event_lines_round_trip_versioned() {
        let line = event_to_line(&arrive());
        assert!(line.starts_with("{\"v\":1,"));
        let back = parse_event_line(&line).unwrap().unwrap();
        assert_eq!(back, arrive());
    }

    #[test]
    fn legacy_untagged_lines_still_parse() {
        let legacy = serde_json::to_string(&arrive()).unwrap();
        assert!(!legacy.contains("\"v\""));
        let back = parse_event_line(&legacy).unwrap().unwrap();
        assert_eq!(back, arrive());
    }

    #[test]
    fn blank_and_comment_lines_are_chrome() {
        assert!(parse_event_line("").is_none());
        assert!(parse_event_line("   ").is_none());
        assert!(parse_event_line("# header").is_none());
    }

    #[test]
    fn future_versions_are_typed_errors() {
        let line = "{\"v\":2,\"depart\":{\"id\":1,\"time\":{\"num\":1,\"den\":1}}}";
        let err = parse_event_line(line).unwrap().unwrap_err();
        assert!(err.contains("unsupported wire version 2"), "{err}");
    }

    #[test]
    fn non_event_frames_take_the_generic_path_unchanged() {
        let body = r#""arrive":{"id":7,"size":{"num":3,"den":8},"time":{"num":5,"den":2}}"#;
        for line in [
            format!(r#"{{"v":1,"trace":9,{body}}}"#),
            format!(r#"{{"v":1,"batch":[{{{body}}}]}}"#),
            format!(r#"{{"v":2,{body}}}"#),
            format!(r#"{{{body}}}"#),
            format!(r#"  {{"v":1,{body}}} "#),
            r#"{"v":1,"bin":3}"#.to_string(),
            "{\"v\":1,".to_string(),
        ] {
            assert_eq!(parse_event_line(&line), parse_generic_line(&line), "{line}");
        }
        // The legacy untagged line still parses; a batch is still the
        // generic path's error.
        assert_eq!(
            parse_event_line(&format!(r#"{{{body}}}"#)),
            Some(Ok(arrive()))
        );
        assert!(matches!(
            parse_event_line(&format!(r#"{{"v":1,"batch":[{{{body}}}]}}"#)),
            Some(Err(_))
        ));
    }

    fn wide_i128() -> impl Strategy<Value = i128> {
        let big = u64::MAX as i128;
        prop_oneof![
            -1_000i128..=1_000,
            -big - 5..=-big + 5,
            big - 5..=big + 5,
            i128::MIN / 2..=i128::MAX / 2,
        ]
    }

    fn event_strategy() -> impl Strategy<Value = Event> {
        let rational = || {
            (wide_i128(), wide_i128())
                .prop_map(|(n, d)| Rational::new(n, if d == 0 { 1 } else { d.abs() }))
        };
        let arrive =
            (0u32..=u32::MAX, rational(), rational()).prop_map(|(id, size, time)| Event::Arrive {
                id: ItemId(id),
                size,
                time,
            });
        let depart = (0u32..=u32::MAX, rational()).prop_map(|(id, time)| Event::Depart {
            id: ItemId(id),
            time,
        });
        prop_oneof![arrive, depart]
    }

    proptest! {
        /// Both parse paths read every line `event_to_line` writes as
        /// the event it came from.
        #[test]
        fn fast_and_generic_line_parsers_agree(ev in event_strategy()) {
            let line = event_to_line(&ev);
            prop_assert_eq!(parse_generic_line(&line), Some(Ok(ev)));
            prop_assert_eq!(parse_event_line(&line), Some(Ok(ev)));
        }
    }

    #[test]
    fn checkpoints_round_trip_and_accept_legacy() {
        use dbp_core::session::Session;
        use dbp_core::FirstFit;
        let mut s = Session::builder(FirstFit::new()).build().unwrap();
        s.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
        let snapshot = s.snapshot().unwrap();

        let doc = checkpoint_to_json(&snapshot);
        assert!(doc.starts_with("{\"v\":1,\"checkpoint\":"));
        assert_eq!(checkpoint_from_json(&doc).unwrap(), snapshot);

        // Bare legacy document: a raw SessionSnapshot object.
        let legacy = serde_json::to_string(&snapshot).unwrap();
        assert_eq!(checkpoint_from_json(&legacy).unwrap(), snapshot);
    }
}

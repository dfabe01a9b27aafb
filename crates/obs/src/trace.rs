//! JSONL trace format: one flat object per [`TraceEvent`].
//!
//! Example lines:
//!
//! ```text
//! {"node":2,"at":1500000,"ev":"received","index":7,"term":1}
//! {"node":2,"at":1500000,"ev":"window_cached","index":7}
//! {"node":2,"at":1730000,"ev":"window_flushed","index":5,"run":3}
//! {"node":0,"at":2100000,"ev":"committed","index":7}
//! ```
//!
//! `node` is the replica id, `at` the harness instant in nanoseconds, `ev`
//! the [`ProbeEvent::kind`] tag; the remaining integer fields depend on the
//! event. The reader here is a purpose-built parser for exactly this flat
//! shape (unsigned integer values plus one known string field) — it is not
//! a general JSON parser, and traces must come from [`to_jsonl`] or an
//! equivalent writer.

use crate::probe::{ProbeEvent, TraceEvent};
use nbr_types::{ClientId, LogIndex, NodeId, RequestId, Term, Time};
use std::fmt::Write as _;

/// A value a trace line holds: written as a JSON integer, read back from
/// the line by its key.
pub(crate) trait TraceField: Sized {
    fn put(self, out: &mut String);
    fn get(line: &str, key: &str) -> Option<Self>;
}

macro_rules! int_fields {
    ($($ty:ty),*) => {$(
        impl TraceField for $ty {
            fn put(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get(line: &str, key: &str) -> Option<$ty> {
                field(line, key)?.parse().ok()
            }
        }
    )*};
}

/// Id and instant newtypes are written as their inner integer.
macro_rules! newtype_fields {
    ($($ty:ident($inner:ty)),*) => {$(
        impl TraceField for $ty {
            fn put(self, out: &mut String) {
                self.0.put(out);
            }
            fn get(line: &str, key: &str) -> Option<$ty> {
                <$inner>::get(line, key).map($ty)
            }
        }
    )*};
}

int_fields!(u32, u64, i64);
newtype_fields!(ClientId(u64), LogIndex(u64), NodeId(u32), RequestId(u64), Term(u64), Time(u64));

/// Render one event as a single JSONL line (no trailing newline).
pub fn event_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"node\":{},\"at\":{},\"ev\":\"{}\"", ev.node.0, ev.at.0, ev.event.kind());
    ev.event.write_fields(&mut s);
    s.push('}');
    s
}

/// Render a whole trace as JSONL (one line per event, in order).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for ev in events {
        out.push_str(&event_line(ev));
        out.push('\n');
    }
    out
}

/// The integer text of `"key":` in a flat JSON line: digits, after a `-`
/// for a negative value (clock offsets; every other field is unsigned).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let sign = rest.strip_prefix('-').map_or(0, |_| 1);
    let end = rest[sign..].find(|c: char| !c.is_ascii_digit()).map_or(rest.len(), |e| e + sign);
    Some(&rest[..end])
}

/// Extract the string value of `"key":"..."` from a flat JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Parse one JSONL trace line. Returns `None` for lines that are not a
/// recognizable trace event (unknown tag or missing fields).
pub fn parse_line(line: &str) -> Option<TraceEvent> {
    let node = NodeId::get(line, "node")?;
    let at = Time::get(line, "at")?;
    let event = ProbeEvent::read_fields(field_str(line, "ev")?, line)?;
    Some(TraceEvent { node, at, event })
}

/// Parse a JSONL trace. Blank lines are skipped; a malformed line aborts
/// with its 1-based line number so truncated traces are caught loudly.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(ev) => events.push(ev),
            None => return Err(format!("trace line {}: unparseable event: {line}", i + 1)),
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        let ix = LogIndex(7);
        let t = Term(3);
        [
            ProbeEvent::SubmitReceived { client: ClientId(4), request: RequestId(19) },
            ProbeEvent::Proposed { index: ix, client: ClientId(4), request: RequestId(19) },
            ProbeEvent::EntryReceived { index: ix, term: t },
            ProbeEvent::WindowCached { index: ix },
            ProbeEvent::WindowFlushed { index: ix, run_len: 4 },
            ProbeEvent::Parked { index: ix },
            ProbeEvent::Appended { index: ix },
            ProbeEvent::WeakAccepted { index: ix },
            ProbeEvent::StrongAccepted { last_index: ix },
            ProbeEvent::VoteTracked { index: ix, threshold: 2 },
            ProbeEvent::WeakQuorum { index: ix },
            ProbeEvent::Committed { index: ix },
            ProbeEvent::Applied { index: ix },
            ProbeEvent::WindowOccupancy { occupied: 3, parked: 9 },
            ProbeEvent::ElectionStarted { term: t },
            ProbeEvent::Elected { term: t },
            ProbeEvent::SteppedDown { term: t },
            ProbeEvent::Crashed,
            ProbeEvent::ClockSample { peer: NodeId(2), offset_ns: -350_000, rtt_ns: 1_200_000 },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceEvent { node: NodeId(i as u32 % 3), at: Time(i as u64 * 10), event })
        .collect()
    }

    #[test]
    fn jsonl_roundtrips_every_variant() {
        let events = all_variants();
        let text = to_jsonl(&events);
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    /// Every variant's line, byte for byte: the tags, the keys and their
    /// order are the trace format that recorded traces are read back in.
    #[test]
    fn golden_lines() {
        let golden = [
            r#"{"node":0,"at":0,"ev":"submit","client":4,"request":19}"#,
            r#"{"node":1,"at":10,"ev":"proposed","index":7,"client":4,"request":19}"#,
            r#"{"node":2,"at":20,"ev":"received","index":7,"term":3}"#,
            r#"{"node":0,"at":30,"ev":"window_cached","index":7}"#,
            r#"{"node":1,"at":40,"ev":"window_flushed","index":7,"run":4}"#,
            r#"{"node":2,"at":50,"ev":"parked","index":7}"#,
            r#"{"node":0,"at":60,"ev":"appended","index":7}"#,
            r#"{"node":1,"at":70,"ev":"weak_accepted","index":7}"#,
            r#"{"node":2,"at":80,"ev":"strong_accepted","index":7}"#,
            r#"{"node":0,"at":90,"ev":"vote_tracked","index":7,"threshold":2}"#,
            r#"{"node":1,"at":100,"ev":"weak_quorum","index":7}"#,
            r#"{"node":2,"at":110,"ev":"committed","index":7}"#,
            r#"{"node":0,"at":120,"ev":"applied","index":7}"#,
            r#"{"node":1,"at":130,"ev":"occupancy","occupied":3,"parked":9}"#,
            r#"{"node":2,"at":140,"ev":"election_started","term":3}"#,
            r#"{"node":0,"at":150,"ev":"elected","term":3}"#,
            r#"{"node":1,"at":160,"ev":"stepped_down","term":3}"#,
            r#"{"node":2,"at":170,"ev":"crashed"}"#,
            r#"{"node":0,"at":180,"ev":"clock_sample","peer":2,"offset":-350000,"rtt":1200000}"#,
        ];
        let events = all_variants();
        assert_eq!(events.len(), golden.len());
        for (ev, line) in events.iter().zip(golden) {
            assert_eq!(event_line(ev), line);
            assert_eq!(parse_line(line).as_ref(), Some(ev), "{line}");
        }
    }

    #[test]
    fn negative_offsets_round_trip() {
        for off in [-1i64, 0, 1, i64::MIN + 1, i64::MAX] {
            let ev = TraceEvent {
                node: NodeId(0),
                at: Time(1),
                event: ProbeEvent::ClockSample { peer: NodeId(1), offset_ns: off, rtt_ns: 5 },
            };
            assert_eq!(parse_line(&event_line(&ev)), Some(ev), "offset {off}");
        }
    }

    #[test]
    fn parked_event_does_not_collide_with_occupancy_field() {
        // "parked" is both an event tag and an occupancy field name; the
        // parser must keep them apart.
        let line = r#"{"node":1,"at":5,"ev":"occupancy","occupied":3,"parked":7}"#;
        let ev = parse_line(line).unwrap();
        assert_eq!(ev.event, ProbeEvent::WindowOccupancy { occupied: 3, parked: 7 });
        let line = r#"{"node":1,"at":5,"ev":"parked","index":7}"#;
        let ev = parse_line(line).unwrap();
        assert_eq!(ev.event, ProbeEvent::Parked { index: LogIndex(7) });
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "{\"node\":0,\"at\":1,\"ev\":\"crashed\"}\n{\"ev\":\"nope\"}\n";
        let err = from_jsonl(text).unwrap_err();
        assert!(err.contains("line 2"), "err = {err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n{\"node\":0,\"at\":1,\"ev\":\"crashed\"}\n\n";
        assert_eq!(from_jsonl(text).unwrap().len(), 1);
    }
}

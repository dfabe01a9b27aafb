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

/// Render one event as a single JSONL line (no trailing newline).
pub fn event_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"node\":{},\"at\":{},\"ev\":\"{}\"", ev.node.0, ev.at.0, ev.event.kind());
    match ev.event {
        ProbeEvent::SubmitReceived { client, request } => {
            let _ = write!(s, ",\"client\":{},\"request\":{}", client.0, request.0);
        }
        ProbeEvent::Proposed { index, client, request } => {
            let _ = write!(
                s,
                ",\"index\":{},\"client\":{},\"request\":{}",
                index.0, client.0, request.0
            );
        }
        ProbeEvent::EntryReceived { index, term } => {
            let _ = write!(s, ",\"index\":{},\"term\":{}", index.0, term.0);
        }
        ProbeEvent::WindowFlushed { index, run_len } => {
            let _ = write!(s, ",\"index\":{},\"run\":{}", index.0, run_len);
        }
        ProbeEvent::WindowCached { index }
        | ProbeEvent::Parked { index }
        | ProbeEvent::Appended { index }
        | ProbeEvent::WeakAccepted { index }
        | ProbeEvent::WeakQuorum { index }
        | ProbeEvent::Committed { index }
        | ProbeEvent::Applied { index } => {
            let _ = write!(s, ",\"index\":{}", index.0);
        }
        ProbeEvent::StrongAccepted { last_index } => {
            let _ = write!(s, ",\"index\":{}", last_index.0);
        }
        ProbeEvent::VoteTracked { index, threshold } => {
            let _ = write!(s, ",\"index\":{},\"threshold\":{}", index.0, threshold);
        }
        ProbeEvent::WindowOccupancy { occupied, parked } => {
            let _ = write!(s, ",\"occupied\":{},\"parked\":{}", occupied, parked);
        }
        ProbeEvent::ElectionStarted { term }
        | ProbeEvent::Elected { term }
        | ProbeEvent::SteppedDown { term } => {
            let _ = write!(s, ",\"term\":{}", term.0);
        }
        ProbeEvent::Crashed => {}
        ProbeEvent::ClockSample { peer, offset_ns, rtt_ns } => {
            let _ = write!(s, ",\"peer\":{},\"offset\":{},\"rtt\":{}", peer.0, offset_ns, rtt_ns);
        }
    }
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

/// Extract the unsigned integer value of `"key":` from a flat JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a signed integer value of `"key":` from a flat JSON line
/// (clock offsets can be negative; every other field is unsigned).
fn field_i64(line: &str, key: &str) -> Option<i64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let digits = rest.strip_prefix('-').map_or(0, |_| 1);
    let end = rest[digits..].find(|c: char| !c.is_ascii_digit()).map_or(rest.len(), |e| e + digits);
    rest[..end].parse().ok()
}

/// Extract the string value of `"key":"..."` from a flat JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

fn index_field(line: &str) -> Option<LogIndex> {
    field_u64(line, "index").map(LogIndex)
}

fn term_field(line: &str) -> Option<Term> {
    field_u64(line, "term").map(Term)
}

/// Parse one JSONL trace line. Returns `None` for lines that are not a
/// recognizable trace event (unknown tag or missing fields).
pub fn parse_line(line: &str) -> Option<TraceEvent> {
    let node = NodeId(field_u64(line, "node")? as u32);
    let at = Time(field_u64(line, "at")?);
    let event = match field_str(line, "ev")? {
        "submit" => ProbeEvent::SubmitReceived {
            client: ClientId(field_u64(line, "client")?),
            request: RequestId(field_u64(line, "request")?),
        },
        "proposed" => ProbeEvent::Proposed {
            index: index_field(line)?,
            client: ClientId(field_u64(line, "client")?),
            request: RequestId(field_u64(line, "request")?),
        },
        "received" => {
            ProbeEvent::EntryReceived { index: index_field(line)?, term: term_field(line)? }
        }
        "window_cached" => ProbeEvent::WindowCached { index: index_field(line)? },
        "window_flushed" => ProbeEvent::WindowFlushed {
            index: index_field(line)?,
            run_len: field_u64(line, "run")? as u32,
        },
        "parked" => ProbeEvent::Parked { index: index_field(line)? },
        "appended" => ProbeEvent::Appended { index: index_field(line)? },
        "weak_accepted" => ProbeEvent::WeakAccepted { index: index_field(line)? },
        "strong_accepted" => ProbeEvent::StrongAccepted { last_index: index_field(line)? },
        "vote_tracked" => ProbeEvent::VoteTracked {
            index: index_field(line)?,
            threshold: field_u64(line, "threshold")? as u32,
        },
        "weak_quorum" => ProbeEvent::WeakQuorum { index: index_field(line)? },
        "committed" => ProbeEvent::Committed { index: index_field(line)? },
        "applied" => ProbeEvent::Applied { index: index_field(line)? },
        "occupancy" => ProbeEvent::WindowOccupancy {
            occupied: field_u64(line, "occupied")? as u32,
            parked: field_u64(line, "parked")? as u32,
        },
        "election_started" => ProbeEvent::ElectionStarted { term: term_field(line)? },
        "elected" => ProbeEvent::Elected { term: term_field(line)? },
        "stepped_down" => ProbeEvent::SteppedDown { term: term_field(line)? },
        "crashed" => ProbeEvent::Crashed,
        "clock_sample" => ProbeEvent::ClockSample {
            peer: NodeId(field_u64(line, "peer")? as u32),
            offset_ns: field_i64(line, "offset")?,
            rtt_ns: field_u64(line, "rtt")?,
        },
        _ => return None,
    };
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

    #[test]
    fn golden_lines() {
        let ev = TraceEvent {
            node: NodeId(2),
            at: Time(1500),
            event: ProbeEvent::EntryReceived { index: LogIndex(7), term: Term(1) },
        };
        assert_eq!(event_line(&ev), r#"{"node":2,"at":1500,"ev":"received","index":7,"term":1}"#);
        let ev = TraceEvent { node: NodeId(0), at: Time(9), event: ProbeEvent::Crashed };
        assert_eq!(event_line(&ev), r#"{"node":0,"at":9,"ev":"crashed"}"#);
        let ev = TraceEvent {
            node: NodeId(1),
            at: Time(88),
            event: ProbeEvent::ClockSample { peer: NodeId(2), offset_ns: -42, rtt_ns: 900 },
        };
        assert_eq!(
            event_line(&ev),
            r#"{"node":1,"at":88,"ev":"clock_sample","peer":2,"offset":-42,"rtt":900}"#
        );
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

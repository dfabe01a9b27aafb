//! The traced run: phase medians of one lap recorded with
//! `EngineProbe::shared()` on every replica.
//!
//! The generator's own spans (entry to and return from each
//! `NetClient::submit`, in [`crate::lap::Op`]) and the replicas' probe events
//! share one clock epoch and one identifier per op, `(client, request)` — the
//! pair `nbr_types::trace_id` packs into the wire trace id. Everything stays
//! in memory until the lap has ended. Between the generator's spans the
//! program's events are attributed by `nbr_obs::span`'s critical-path
//! analysis; spans inside the program are a later change.

use crate::lap::Lap;
use crate::stats::percentile;
use crate::summary::Values;
use nbr_obs::{ClockAlign, ProbeEvent, TraceEvent};
use std::collections::{HashMap, HashSet};

/// Ops analysed, a contiguous index range from the middle of the window.
/// `nbr_obs::span::collect` scans every lifecycle once per op, so its cost
/// grows with the square of this.
const SAMPLE: u64 = 4000;

fn index_of(e: &ProbeEvent) -> Option<u64> {
    match *e {
        ProbeEvent::Proposed { index, .. }
        | ProbeEvent::EntryReceived { index, .. }
        | ProbeEvent::WindowCached { index }
        | ProbeEvent::Parked { index }
        | ProbeEvent::Appended { index }
        | ProbeEvent::VoteTracked { index, .. }
        | ProbeEvent::WeakQuorum { index }
        | ProbeEvent::Committed { index }
        | ProbeEvent::Applied { index } => Some(index.0),
        _ => None,
    }
}

/// `trace.*` phases of a traced lap, in microseconds.
pub fn phases(lap: &Lap) -> Values {
    let (epoch, events) = lap.trace.as_ref().expect("phases() takes a traced lap");
    let (start, len) = lap.window;
    let since_epoch = |t: std::time::Instant| t.duration_since(*epoch).as_nanos() as u64;
    let (from, to) = (since_epoch(start), since_epoch(start + len));

    // The sample: SAMPLE consecutive indices around the window's middle.
    let mut proposed: Vec<u64> = events
        .iter()
        .filter(|e| e.at.0 >= from && e.at.0 < to)
        .filter_map(|e| match e.event {
            ProbeEvent::Proposed { index, .. } => Some(index.0),
            _ => None,
        })
        .collect();
    proposed.sort_unstable();
    let mid = proposed.get(proposed.len() / 2).copied().unwrap_or(0);
    let range = mid.saturating_sub(SAMPLE / 2)..mid + SAMPLE / 2;
    let sampled_ops: HashSet<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e.event {
            ProbeEvent::Proposed { index, client, request } if range.contains(&index.0) => {
                Some((client.0, request.0))
            }
            _ => None,
        })
        .collect();
    let sample: Vec<TraceEvent> = events
        .iter()
        .filter(|e| match e.event {
            ProbeEvent::SubmitReceived { client, request } => {
                sampled_ops.contains(&(client.0, request.0))
            }
            ProbeEvent::ClockSample { .. } => true,
            ref other => index_of(other).is_some_and(|i| range.contains(&i)),
        })
        .copied()
        .collect();

    let align = ClockAlign::estimate(&sample);
    let aligned = align.apply(&sample);
    let spans = nbr_obs::collect(&aligned);
    let cp = nbr_obs::critical_path(&spans, &aligned, &align);

    // The generator's side of each span: submit → the leader's engine sees
    // the request, and first-ack decision at the leader → submit returns.
    let by_id: HashMap<(u64, u64), &crate::lap::Op> =
        lap.ops.iter().map(|o| ((o.client, o.request), o)).collect();
    let (mut ingress, mut reply) = (Vec::new(), Vec::new());
    for s in &spans {
        let Some(op) = by_id.get(&(s.client.0, s.request.0)) else { continue };
        if let Some(at) = s.submit {
            ingress.push(at.0.saturating_sub(since_epoch(op.sent)));
        }
        let decided = s.nodes.get(&s.leader).and_then(|l| l.weak_quorum.or(l.committed));
        if let Some(at) = decided {
            reply.push(since_epoch(op.acked).saturating_sub(at.0));
        }
    }
    ingress.sort_unstable();
    reply.sort_unstable();

    let us = |ns: u64| ns as f64 / 1e3;
    Values::from([
        ("trace.ingress_p50_us", us(percentile(&ingress, 0.5))),
        ("trace.queue_p50_us", us(cp.queue.p50())),
        ("trace.link_p50_us", us(cp.link.p50())),
        // A mean: under loss the quorum-critical follower waits on few ops,
        // but long, so the median is 0 with or without loss.
        ("trace.window_wait_mean_us", cp.window.mean() / 1e3),
        ("trace.weak_ack_p50_us", us(cp.weak_ack.p50())),
        ("trace.commit_wait_p50_us", us(cp.commit_wait.p50())),
        ("trace.reply_p50_us", us(percentile(&reply, 0.5))),
        ("n.trace_spans", cp.ops as f64),
        ("n.trace_complete", cp.complete as f64),
    ])
}

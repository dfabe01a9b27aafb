//! Trace replay: per-entry lifecycle timelines and the `t_wait(F)` report.
//!
//! The paper's Petri-net analysis (Section II) isolates `t_wait(F)` — the
//! time an entry spends at a follower between *arriving* and *becoming
//! appendable* — as the replication bottleneck stock Raft suffers under
//! reordering. Replaying a probe trace reconstructs exactly that interval
//! per `(node, index)`:
//!
//! - `t_wait(F)` = time from arrival until the follower first *accepted*
//!   the entry: append for in-order arrivals (0), window-cache for
//!   out-of-order arrivals the sliding window absorbs (≈0 — they are
//!   weak-accepted on the spot), append-after-flush for entries that had to
//!   park (the blocking wait NB-Raft eliminates);
//! - weak→strong promotion = `committed − weak_quorum` on the leader, the
//!   extra confirmation latency a client pays for strong reads;
//! - window occupancy = the sampled `(cached, parked)` population after
//!   each append round, showing how full the sliding window runs.
//!
//! With `window = 0` (stock Raft) every out-of-order arrival parks, so the
//! `t_wait(F)` distribution degrades with reordering; with `window ≥ 4` most
//! arrivals are absorbed — comparing the two traces validates the model.

use crate::probe::{ProbeEvent, TraceEvent};
use nbr_metrics::Histogram;
use nbr_types::{LogIndex, NodeId, Time};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// First-occurrence timestamps of one entry's lifecycle on one replica.
/// Repair paths can deliver an index twice; keeping the first observation
/// preserves the interval the client actually experienced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lifecycle {
    /// Entry arrived in an AppendEntry message.
    pub received: Option<Time>,
    /// Entry was cached out-of-order in the sliding window.
    pub cached: Option<Time>,
    /// Entry was parked beyond the window.
    pub parked: Option<Time>,
    /// Entry joined the local log.
    pub appended: Option<Time>,
    /// Leader opened a VoteList tuple for the entry.
    pub vote_tracked: Option<Time>,
    /// Leader saw a weak majority.
    pub weak_quorum: Option<Time>,
    /// Entry committed on this replica.
    pub committed: Option<Time>,
    /// Entry applied on this replica.
    pub applied: Option<Time>,
}

impl Lifecycle {
    /// `t_wait(F)` in ns: time from arrival until the follower first
    /// accepted the entry. A window-cached entry stops waiting the moment it
    /// enters the window (it is weak-accepted right away); anything else
    /// waits until its append. `None` for entries never accepted or never
    /// received here (e.g. leader-local proposals).
    pub fn t_wait(&self) -> Option<u64> {
        Some(self.cached.or(self.appended)?.since(self.received?).0)
    }

    /// True when the entry overflowed the window and sat parked — the
    /// blocking path (with `window = 0`, every out-of-order arrival).
    pub fn was_blocked(&self) -> bool {
        self.parked.is_some()
    }

    /// Weak→strong promotion latency in ns (leader side).
    pub fn t_promote(&self) -> Option<u64> {
        Some(self.committed?.since(self.weak_quorum?).0)
    }
}

fn first(slot: &mut Option<Time>, at: Time) {
    if slot.is_none() {
        *slot = Some(at);
    }
}

/// Fold a trace into per-`(node, index)` lifecycles, in key order.
pub fn timelines(events: &[TraceEvent]) -> BTreeMap<(NodeId, LogIndex), Lifecycle> {
    type Field = fn(&mut Lifecycle) -> &mut Option<Time>;
    let mut map: BTreeMap<(NodeId, LogIndex), Lifecycle> = BTreeMap::new();
    for ev in events {
        let target: Option<(LogIndex, Field)> = match ev.event {
            ProbeEvent::EntryReceived { index, .. } => Some((index, |l| &mut l.received)),
            ProbeEvent::WindowCached { index } => Some((index, |l| &mut l.cached)),
            ProbeEvent::Parked { index } => Some((index, |l| &mut l.parked)),
            ProbeEvent::Appended { index } => Some((index, |l| &mut l.appended)),
            ProbeEvent::VoteTracked { index, .. } => Some((index, |l| &mut l.vote_tracked)),
            ProbeEvent::WeakQuorum { index } => Some((index, |l| &mut l.weak_quorum)),
            ProbeEvent::Committed { index } => Some((index, |l| &mut l.committed)),
            ProbeEvent::Applied { index } => Some((index, |l| &mut l.applied)),
            // `Proposed` binds an op to an index (span assembly joins on
            // it in `span::collect`); as a lifecycle instant it coincides
            // with the leader's local `Appended`.
            ProbeEvent::Proposed { .. }
            | ProbeEvent::SubmitReceived { .. }
            | ProbeEvent::ClockSample { .. }
            | ProbeEvent::WindowFlushed { .. }
            | ProbeEvent::WeakAccepted { .. }
            | ProbeEvent::StrongAccepted { .. }
            | ProbeEvent::WindowOccupancy { .. }
            | ProbeEvent::ElectionStarted { .. }
            | ProbeEvent::Elected { .. }
            | ProbeEvent::SteppedDown { .. }
            | ProbeEvent::Crashed => None,
        };
        if let Some((index, field)) = target {
            first(field(map.entry((ev.node, index)).or_default()), ev.at);
        }
    }
    map
}

/// Aggregated statistics of one trace.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Total events in the trace.
    pub events: u64,
    /// Event counts by [`ProbeEvent::kind`] tag.
    pub by_kind: BTreeMap<String, u64>,
    /// `t_wait(F)` over every follower-received, appended entry (ns).
    pub twait: Histogram,
    /// `t_wait(F)` restricted to entries that parked (ns).
    pub twait_blocked: Histogram,
    /// Weak→strong promotion latency on the leader (ns).
    pub promote: Histogram,
    /// Sampled sliding-window population (entries cached).
    pub occ_window: Histogram,
    /// Sampled parked population (entries blocked beyond the window).
    pub occ_parked: Histogram,
    /// Largest sampled parked population.
    pub peak_parked: u32,
    /// Entries that appended on arrival.
    pub in_order: u64,
    /// Out-of-order entries the sliding window absorbed without blocking.
    pub absorbed: u64,
    /// Entries that parked (blocked) before appending.
    pub blocked: u64,
    /// Elections started anywhere in the trace.
    pub elections: u64,
    /// Crash markers in the trace.
    pub crashes: u64,
}

/// Replay a trace into a [`TraceReport`].
pub fn analyze(events: &[TraceEvent]) -> TraceReport {
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut occ_window = Histogram::new();
    let mut occ_parked = Histogram::new();
    let mut peak_parked = 0u32;
    let mut elections = 0u64;
    let mut crashes = 0u64;
    for ev in events {
        *by_kind.entry(ev.event.kind().to_string()).or_insert(0) += 1;
        match ev.event {
            ProbeEvent::WindowOccupancy { occupied, parked } => {
                occ_window.record(occupied as u64);
                occ_parked.record(parked as u64);
                peak_parked = peak_parked.max(parked);
            }
            ProbeEvent::ElectionStarted { .. } => elections += 1,
            ProbeEvent::Crashed => crashes += 1,
            _ => {}
        }
    }

    let mut twait = Histogram::new();
    let mut twait_blocked = Histogram::new();
    let mut promote = Histogram::new();
    let mut in_order = 0u64;
    let mut absorbed = 0u64;
    let mut blocked = 0u64;
    for lc in timelines(events).values() {
        if let Some(w) = lc.t_wait() {
            twait.record(w);
            if lc.was_blocked() {
                blocked += 1;
                twait_blocked.record(w);
            } else if lc.cached.is_some() {
                absorbed += 1;
            } else {
                in_order += 1;
            }
        }
        if let Some(p) = lc.t_promote() {
            promote.record(p);
        }
    }

    TraceReport {
        events: events.len() as u64,
        by_kind,
        twait,
        twait_blocked,
        promote,
        occ_window,
        occ_parked,
        peak_parked,
        in_order,
        absorbed,
        blocked,
        elections,
        crashes,
    }
}

pub(crate) fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// One report line for a latency histogram (shared with the span report).
pub(crate) fn hist_line(out: &mut String, label: &str, h: &Histogram) {
    if h.count() == 0 {
        let _ = writeln!(out, "  {label:<28} (no samples)");
    } else {
        let _ = writeln!(
            out,
            "  {label:<28} n={:<8} mean={:.3}ms p50={:.3}ms p99={:.3}ms max={:.3}ms",
            h.count(),
            ms(h.mean()),
            ms(h.p50() as f64),
            ms(h.p99() as f64),
            ms(h.max() as f64),
        );
    }
}

impl TraceReport {
    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events", self.events);
        let _ = writeln!(out, "entry lifecycle (followers):");
        hist_line(&mut out, "t_wait(F) all entries", &self.twait);
        hist_line(&mut out, "t_wait(F) blocked only", &self.twait_blocked);
        let _ = writeln!(
            out,
            "  appended in order: {}  window-absorbed: {}  parked (blocked): {}",
            self.in_order, self.absorbed, self.blocked
        );
        let _ = writeln!(out, "leader:");
        hist_line(&mut out, "weak->strong promotion", &self.promote);
        let _ = writeln!(out, "window occupancy (sampled):");
        if self.occ_window.count() == 0 {
            let _ = writeln!(out, "  (no samples)");
        } else {
            let _ = writeln!(
                out,
                "  cached: mean={:.2} p99={}  parked: mean={:.2} p99={} peak={}",
                self.occ_window.mean(),
                self.occ_window.p99(),
                self.occ_parked.mean(),
                self.occ_parked.p99(),
                self.peak_parked,
            );
        }
        let _ = writeln!(out, "control: elections={} crashes={}", self.elections, self.crashes);
        let _ = writeln!(out, "events by kind:");
        for (kind, n) in &self.by_kind {
            let _ = writeln!(out, "  {kind:<18} {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::Term;

    fn ev(node: u32, at: u64, event: ProbeEvent) -> TraceEvent {
        TraceEvent { node: NodeId(node), at: Time(at), event }
    }

    #[test]
    fn parked_entry_waits_until_append() {
        let ix = LogIndex(5);
        let events = vec![
            ev(1, 100, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 100, ProbeEvent::Parked { index: ix }),
            ev(1, 700, ProbeEvent::Appended { index: ix }),
            ev(1, 900, ProbeEvent::Committed { index: ix }),
            ev(1, 950, ProbeEvent::Applied { index: ix }),
        ];
        let tl = timelines(&events);
        let lc = tl[&(NodeId(1), ix)];
        assert_eq!(lc.t_wait(), Some(600));
        assert!(lc.was_blocked());
        let report = analyze(&events);
        assert_eq!(report.twait.count(), 1);
        assert_eq!(report.twait.max(), 600);
        assert_eq!(report.blocked, 1);
        assert_eq!(report.in_order, 0);
    }

    #[test]
    fn window_absorbed_entry_stops_waiting_at_cache_time() {
        let ix = LogIndex(5);
        let events = vec![
            ev(1, 100, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 150, ProbeEvent::WindowCached { index: ix }),
            // The flush appends much later; the entry was non-blocking since
            // it entered the window (weak-accepted at cache time).
            ev(1, 700, ProbeEvent::Appended { index: ix }),
        ];
        let lc = timelines(&events)[&(NodeId(1), ix)];
        assert_eq!(lc.t_wait(), Some(50));
        assert!(!lc.was_blocked());
        let report = analyze(&events);
        assert_eq!(report.absorbed, 1);
        assert_eq!(report.blocked, 0);
        assert_eq!(report.twait_blocked.count(), 0);
    }

    #[test]
    fn in_order_entries_have_zero_wait() {
        let ix = LogIndex(2);
        let events = vec![
            ev(2, 50, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(2, 50, ProbeEvent::Appended { index: ix }),
        ];
        let report = analyze(&events);
        assert_eq!(report.twait.count(), 1);
        assert_eq!(report.twait.max(), 0);
        assert_eq!(report.in_order, 1);
        assert_eq!(report.twait_blocked.count(), 0);
    }

    #[test]
    fn duplicate_delivery_keeps_first_timestamps() {
        let ix = LogIndex(3);
        let events = vec![
            ev(1, 10, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 30, ProbeEvent::Appended { index: ix }),
            // Leader retransmit after a lost ack: same index arrives again.
            ev(1, 90, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 90, ProbeEvent::Appended { index: ix }),
        ];
        let lc = timelines(&events)[&(NodeId(1), ix)];
        assert_eq!(lc.received, Some(Time(10)));
        assert_eq!(lc.t_wait(), Some(20));
    }

    #[test]
    fn promotion_latency_from_leader_events() {
        let ix = LogIndex(9);
        let events = vec![
            ev(0, 100, ProbeEvent::VoteTracked { index: ix, threshold: 2 }),
            ev(0, 400, ProbeEvent::WeakQuorum { index: ix }),
            ev(0, 1400, ProbeEvent::Committed { index: ix }),
        ];
        let report = analyze(&events);
        assert_eq!(report.promote.count(), 1);
        assert_eq!(report.promote.max(), 1000);
    }

    #[test]
    fn occupancy_and_control_counters() {
        let events = vec![
            ev(1, 10, ProbeEvent::WindowOccupancy { occupied: 2, parked: 5 }),
            ev(1, 20, ProbeEvent::WindowOccupancy { occupied: 4, parked: 11 }),
            ev(2, 30, ProbeEvent::ElectionStarted { term: Term(2) }),
            ev(2, 40, ProbeEvent::Crashed),
        ];
        let report = analyze(&events);
        assert_eq!(report.occ_window.count(), 2);
        assert_eq!(report.peak_parked, 11);
        assert_eq!(report.elections, 1);
        assert_eq!(report.crashes, 1);
        let rendered = report.render();
        assert!(rendered.contains("elections=1 crashes=1"), "{rendered}");
    }

    #[test]
    fn render_mentions_twait() {
        let ix = LogIndex(1);
        let events = vec![
            ev(1, 0, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 2_000_000, ProbeEvent::Appended { index: ix }),
        ];
        let rendered = analyze(&events).render();
        assert!(rendered.contains("t_wait(F)"), "{rendered}");
        assert!(rendered.contains("mean=2.000ms"), "{rendered}");
    }
}

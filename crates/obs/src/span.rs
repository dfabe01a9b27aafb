//! Cross-node span assembly and the critical-path analyzer.
//!
//! A traced run produces one JSONL trace per replica, each timestamped on
//! that replica's local monotonic clock. This module turns those per-node
//! traces into *per-op span trees* and attributes each committed op's
//! latency to protocol phases:
//!
//! 1. Clock alignment ([`ClockAlign`]): the transport's Ping/Pong
//!    keepalives double as NTP-style two-sample clock probes, recorded as
//!    [`ProbeEvent::ClockSample`] (`offset ≈ peer_clock − local_clock`,
//!    plus the exchange RTT). Per directed pair we take the median offset
//!    (robust to queueing outliers) and BFS from the lowest-id node to a
//!    per-node correction into the reference clock. The estimate is only
//!    as good as the link symmetry — an asymmetric path biases the offset
//!    by half the asymmetry (see DESIGN §10 for the soundness caveats).
//! 2. Span assembly ([`collect`]): [`ProbeEvent::Proposed`] is the join
//!    point binding an op's identity `(client, request)` to the log index
//!    every later event is keyed by; the per-node [`Lifecycle`]s of that
//!    index become the branches of the op's span tree.
//! 3. Phase attribution ([`critical_path`]): for each op the *quorum-
//!    forming follower* — the follower whose accept made the weak quorum,
//!    i.e. the (quorum−1)-th fastest — defines the critical path. The
//!    window-wait phase on that follower is exactly the paper's
//!    `t_wait(F)` restricted to accepts the client actually waited on.
//!
//! Phase taxonomy (all intervals on the aligned clock, clamped at zero —
//! residual alignment error can slightly invert cross-node edges):
//!
//! | phase        | interval                                             |
//! |--------------|------------------------------------------------------|
//! | `queue`      | leader `SubmitReceived` → `Proposed`                 |
//! | `link`       | leader `Proposed` → crit. follower `EntryReceived`   |
//! | `window`     | crit. follower `t_wait(F)` (received → cache/append) |
//! | `weak_ack`   | crit. follower accept → leader `WeakQuorum`          |
//! | `commit_wait`| leader `WeakQuorum` → leader `Committed`             |
//! | `apply`      | leader `Committed` → leader `Applied`                |

use crate::analyze::{hist_line, ms, timelines, Lifecycle};
use crate::probe::{ProbeEvent, TraceEvent};
use crate::shard::{group_node, node_group};
use nbr_metrics::Histogram;
use nbr_types::{ClientId, LogIndex, NodeId, RequestId, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

// ------------------------------------------------------------ clock align

/// Per-node clock corrections into a common reference clock, estimated
/// from [`ProbeEvent::ClockSample`]s.
#[derive(Debug, Clone)]
pub struct ClockAlign {
    /// Reference node (lowest id observed in the trace).
    pub reference: NodeId,
    /// `correction[n]` is added to node `n`'s timestamps to map them into
    /// the reference clock. Nodes without a sample path to the reference
    /// keep correction 0 (and their cross-node edges are untrustworthy).
    correction: BTreeMap<u32, i64>,
    /// Number of clock samples consumed.
    pub samples: u64,
    /// RTTs of the consumed samples (alignment quality indicator: the
    /// offset error of one sample is bounded by half its RTT).
    pub rtt: Histogram,
}

fn median(v: &mut [i64]) -> i64 {
    v.sort_unstable();
    let n = v.len();
    if n == 0 {
        0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        ((v[n / 2 - 1] as i128 + v[n / 2] as i128) / 2) as i64
    }
}

impl ClockAlign {
    /// The identity alignment (single-node traces, or clockless sims).
    pub fn identity() -> ClockAlign {
        ClockAlign {
            reference: NodeId(0),
            correction: BTreeMap::new(),
            samples: 0,
            rtt: Histogram::new(),
        }
    }

    /// Estimate per-node corrections from the trace's clock samples.
    pub fn estimate(events: &[TraceEvent]) -> ClockAlign {
        let mut nodes: BTreeSet<u32> = BTreeSet::new();
        // Undirected edge (a<b) → signed offsets θ(a,b) = clock_b − clock_a.
        let mut edges: BTreeMap<(u32, u32), Vec<i64>> = BTreeMap::new();
        let mut samples = 0u64;
        let mut rtt = Histogram::new();
        for ev in events {
            nodes.insert(ev.node.0);
            if let ProbeEvent::ClockSample { peer, offset_ns, rtt_ns } = ev.event {
                samples += 1;
                rtt.record(rtt_ns);
                let (a, b) = (ev.node.0, peer.0);
                if a < b {
                    edges.entry((a, b)).or_default().push(offset_ns);
                } else if b < a {
                    edges.entry((b, a)).or_default().push(-offset_ns);
                }
            }
        }
        let reference = NodeId(nodes.iter().next().copied().unwrap_or(0));
        // Median per edge, then BFS corrections out from the reference.
        let theta: BTreeMap<(u32, u32), i64> =
            edges.into_iter().map(|(k, mut v)| (k, median(&mut v))).collect();
        let mut correction: BTreeMap<u32, i64> = BTreeMap::new();
        correction.insert(reference.0, 0);
        let mut queue = VecDeque::from([reference.0]);
        while let Some(a) = queue.pop_front() {
            let ca = correction[&a];
            for (&(x, y), &th) in &theta {
                // θ(x,y) = clock_y − clock_x, so correction(y) = correction(x) − θ.
                let (next, c) = if x == a {
                    (y, ca - th)
                } else if y == a {
                    (x, ca + th)
                } else {
                    continue;
                };
                if let std::collections::btree_map::Entry::Vacant(e) = correction.entry(next) {
                    e.insert(c);
                    queue.push_back(next);
                }
            }
        }
        ClockAlign { reference, correction, samples, rtt }
    }

    /// Correction (ns, signed) applied to `node`'s timestamps. A process
    /// stamps every group's replica on its one trace clock, and the clock
    /// samples come from its (group-less) transport, so in a merged
    /// multi-group trace a node takes the correction of its replica id.
    pub fn correction_ns(&self, node: NodeId) -> i64 {
        self.correction.get(&node_group(node).1 .0).copied().unwrap_or(0)
    }

    /// Largest absolute correction — a quick skew magnitude indicator.
    pub fn max_correction_ns(&self) -> i64 {
        self.correction.values().map(|c| c.abs()).max().unwrap_or(0)
    }

    /// Map every event timestamp into the reference clock.
    pub fn apply(&self, events: &[TraceEvent]) -> Vec<TraceEvent> {
        events
            .iter()
            .map(|ev| {
                let c = self.correction_ns(ev.node);
                let at = Time((ev.at.0 as i64).saturating_add(c).max(0) as u64);
                TraceEvent { at, ..*ev }
            })
            .collect()
    }
}

// ------------------------------------------------------------ span trees

/// One client op's span tree: its identity, the index it landed at, and
/// the per-replica lifecycle branches (timestamps already aligned).
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Submitting client connection.
    pub client: ClientId,
    /// Client-local request sequence number.
    pub request: RequestId,
    /// Log index the leader bound the op to.
    pub index: LogIndex,
    /// The leader that proposed it.
    pub leader: NodeId,
    /// Leader-side `SubmitReceived` instant (span root).
    pub submit: Option<Time>,
    /// Leader-side `Proposed` instant (op → index join point).
    pub proposed: Option<Time>,
    /// Per-replica lifecycles of the op's index.
    pub nodes: BTreeMap<NodeId, Lifecycle>,
}

impl OpSpan {
    /// A span is complete when the op was observed from submission through
    /// apply on every member: root events at the leader, and every replica
    /// appended, committed and applied the index (followers must also have
    /// received it over the wire).
    pub fn complete(&self, members: &[NodeId]) -> bool {
        self.submit.is_some()
            && self.proposed.is_some()
            && members.iter().all(|n| {
                self.nodes.get(n).is_some_and(|l| {
                    l.appended.is_some()
                        && l.committed.is_some()
                        && l.applied.is_some()
                        && (*n == self.leader || l.received.is_some())
                })
            })
    }
}

/// Assemble per-op spans from an (aligned) trace. Ops are joined on the
/// `(client, request)` identity carried by `Proposed`; retried proposals
/// after an election keep the *first* binding (the one the earliest
/// leader attempted — later bindings of the same identity are dropped, a
/// deliberate simplification that matches first-occurrence lifecycles).
pub fn collect(events: &[TraceEvent]) -> Vec<OpSpan> {
    // (client, request) → (index, leader, proposed-at), first binding wins.
    let mut bound: BTreeMap<(u64, u64), (LogIndex, NodeId, Time)> = BTreeMap::new();
    // (node, client, request) → first SubmitReceived instant.
    let mut submits: BTreeMap<(u32, u64, u64), Time> = BTreeMap::new();
    for ev in events {
        match ev.event {
            ProbeEvent::Proposed { index, client, request } => {
                bound.entry((client.0, request.0)).or_insert((index, ev.node, ev.at));
            }
            ProbeEvent::SubmitReceived { client, request } => {
                submits.entry((ev.node.0, client.0, request.0)).or_insert(ev.at);
            }
            _ => {}
        }
    }
    let lifecycles = timelines(events);
    bound
        .into_iter()
        .map(|((client, request), (index, leader, proposed))| {
            // Groups number their logs independently: only the replicas of
            // the leader's own group hold *this* op at `index`.
            let group = node_group(leader).0;
            let nodes: BTreeMap<NodeId, Lifecycle> = lifecycles
                .iter()
                .filter(|((n, ix), _)| *ix == index && node_group(*n).0 == group)
                .map(|((n, _), lc)| (*n, *lc))
                .collect();
            OpSpan {
                client: ClientId(client),
                request: RequestId(request),
                index,
                leader,
                submit: submits.get(&(leader.0, client, request)).copied(),
                proposed: Some(proposed),
                nodes,
            }
        })
        .collect()
}

/// Render spans as JSONL (one op per line) — the chaos-violation artifact
/// format. Absent instants are omitted rather than written as null.
pub fn spans_jsonl(spans: &[OpSpan]) -> String {
    let mut out = String::with_capacity(spans.len() * 160);
    for s in spans {
        let _ = write!(
            out,
            "{{\"client\":{},\"request\":{},\"index\":{},\"leader\":{}",
            s.client.0, s.request.0, s.index.0, s.leader.0
        );
        if let Some(t) = s.submit {
            let _ = write!(out, ",\"submit\":{}", t.0);
        }
        if let Some(t) = s.proposed {
            let _ = write!(out, ",\"proposed\":{}", t.0);
        }
        out.push_str(",\"nodes\":[");
        for (i, (n, lc)) in s.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"node\":{}", n.0);
            for (key, t) in [
                ("received", lc.received),
                ("cached", lc.cached),
                ("parked", lc.parked),
                ("appended", lc.appended),
                ("weak_quorum", lc.weak_quorum),
                ("committed", lc.committed),
                ("applied", lc.applied),
            ] {
                if let Some(t) = t {
                    let _ = write!(out, ",\"{key}\":{}", t.0);
                }
            }
            out.push('}');
        }
        out.push_str("]}\n");
    }
    out
}

// ------------------------------------------------------- critical path

/// Interval `b → a` on the aligned clock, clamped at zero (residual
/// alignment error can slightly invert cross-node edges).
fn phase(a: Option<Time>, b: Option<Time>) -> Option<u64> {
    Some((a?.0).saturating_sub(b?.0))
}

/// Per-phase latency attribution over every assembled op.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Ops assembled (one per `Proposed` binding).
    pub ops: u64,
    /// Ops whose span was complete across all members of their group.
    pub complete: u64,
    /// Members of each Raft group observed in the trace, as replica ids
    /// (every process hosts one replica of every group, so a merged
    /// multi-group trace has one membership, not one per group).
    pub members: Vec<NodeId>,
    /// Leader `SubmitReceived` → `Proposed`.
    pub queue: Histogram,
    /// Leader `Proposed` → critical follower `EntryReceived`.
    pub link: Histogram,
    /// Critical follower `t_wait(F)`: received → cache/append.
    pub window: Histogram,
    /// Ops whose critical follower parked (blocked beyond the window).
    pub window_blocked: u64,
    /// Critical follower accept → leader `WeakQuorum`.
    pub weak_ack: Histogram,
    /// Leader `WeakQuorum` → leader `Committed` (falls back to critical
    /// accept → `Committed` when no weak quorum was traced, e.g. w = 0).
    pub commit_wait: Histogram,
    /// Leader `Committed` → leader `Applied`.
    pub apply: Histogram,
    /// End to end: leader `SubmitReceived` → leader `Committed`.
    pub total: Histogram,
    /// `t_wait(F)` across *all* follower branches (the classic node-local
    /// measure, for comparison against the critical-path `window` phase).
    pub twait_all: Histogram,
    /// The clock alignment used (quality indicators for the caveat line).
    pub align_samples: u64,
    pub align_rtt_p50_ns: u64,
    pub align_max_correction_ns: i64,
}

/// Attribute each op's latency to phases along its critical path.
///
/// `events` must already be clock-aligned (see [`ClockAlign::apply`]);
/// pass the same slice that produced `spans`.
pub fn critical_path(spans: &[OpSpan], events: &[TraceEvent], align: &ClockAlign) -> CriticalPath {
    let members: Vec<NodeId> = {
        let mut s: BTreeSet<NodeId> = events.iter().map(|e| node_group(e.node).1).collect();
        // Clock-sample peers count even if they never emitted (crashed early).
        for ev in events {
            if let ProbeEvent::ClockSample { peer, .. } = ev.event {
                s.insert(node_group(peer).1);
            }
        }
        s.into_iter().collect()
    };
    let quorum = members.len() / 2 + 1;
    let mut cp = CriticalPath {
        ops: spans.len() as u64,
        complete: 0,
        members: members.clone(),
        queue: Histogram::new(),
        link: Histogram::new(),
        window: Histogram::new(),
        window_blocked: 0,
        weak_ack: Histogram::new(),
        commit_wait: Histogram::new(),
        apply: Histogram::new(),
        total: Histogram::new(),
        twait_all: Histogram::new(),
        align_samples: align.samples,
        align_rtt_p50_ns: align.rtt.p50(),
        align_max_correction_ns: align.max_correction_ns(),
    };
    // Each group's members under their merged-trace node ids.
    let mut in_group: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for s in spans {
        let group = node_group(s.leader).0;
        let replicas = in_group
            .entry(group)
            .or_insert_with(|| members.iter().map(|&n| group_node(group, n)).collect());
        if s.complete(replicas) {
            cp.complete += 1;
        }
        let leader = s.nodes.get(&s.leader).copied().unwrap_or_default();
        if let Some(q) = phase(s.proposed, s.submit) {
            cp.queue.record(q);
        }
        // Follower branches, ordered by accept instant; the (quorum−1)-th
        // fastest follower is the one whose accept formed the weak quorum.
        let mut followers: Vec<&Lifecycle> = s
            .nodes
            .iter()
            .filter(|(n, lc)| **n != s.leader && lc.received.is_some())
            .map(|(_, lc)| lc)
            .collect();
        for lc in &followers {
            if let Some(w) = lc.t_wait() {
                cp.twait_all.record(w);
            }
        }
        followers.sort_by_key(|lc| lc.cached.or(lc.appended).map_or(u64::MAX, |t| t.0));
        let crit = followers.get(quorum.saturating_sub(2)).copied();
        if let Some(crit) = crit {
            let accept = crit.cached.or(crit.appended);
            if let Some(l) = phase(crit.received, s.proposed) {
                cp.link.record(l);
            }
            if let Some(w) = crit.t_wait() {
                cp.window.record(w);
                if crit.was_blocked() {
                    cp.window_blocked += 1;
                }
            }
            if let Some(a) = phase(leader.weak_quorum, accept) {
                cp.weak_ack.record(a);
            }
            match phase(leader.committed, leader.weak_quorum) {
                Some(c) => cp.commit_wait.record(c),
                // w = 0 never traces a weak quorum; charge the whole
                // accept → commit edge to the commit-wait phase.
                None => {
                    if let Some(c) = phase(leader.committed, accept) {
                        cp.commit_wait.record(c);
                    }
                }
            }
        }
        if let Some(ap) = phase(leader.applied, leader.committed) {
            cp.apply.record(ap);
        }
        if let Some(t) = phase(leader.committed, s.submit) {
            cp.total.record(t);
        }
    }
    cp
}

impl CriticalPath {
    /// The phases in render order, with their labels.
    pub fn phases(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("submit -> propose (queue)", &self.queue),
            ("leader -> follower link", &self.link),
            ("window cache/park (t_wait)", &self.window),
            ("accept -> weak quorum", &self.weak_ack),
            ("weak -> commit wait", &self.commit_wait),
            ("commit -> apply", &self.apply),
        ]
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {} ops ({} complete spans, {} members, quorum {})",
            self.ops,
            self.complete,
            self.members.len(),
            self.members.len() / 2 + 1,
        );
        for (label, h) in self.phases() {
            hist_line(&mut out, label, h);
        }
        let _ = writeln!(
            out,
            "  (critical follower parked on {} of {} ops)",
            self.window_blocked,
            self.window.count()
        );
        hist_line(&mut out, "total submit -> commit", &self.total);
        hist_line(&mut out, "t_wait(F) all followers", &self.twait_all);
        let _ = writeln!(
            out,
            "clock alignment: {} samples, rtt p50 {:.3}ms, max |correction| {:.3}ms",
            self.align_samples,
            ms(self.align_rtt_p50_ns as f64),
            ms(self.align_max_correction_ns as f64),
        );
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

    fn sample(node: u32, at: u64, peer: u32, offset: i64) -> TraceEvent {
        ev(node, at, ProbeEvent::ClockSample { peer: NodeId(peer), offset_ns: offset, rtt_ns: 100 })
    }

    #[test]
    fn alignment_recovers_injected_offsets() {
        // Node 1's clock runs 500ns ahead of node 0; node 2 runs 300ns
        // behind node 1 (so 200ns ahead of node 0).
        let events = vec![
            sample(0, 10, 1, 500),
            sample(1, 12, 0, -500),
            sample(1, 14, 2, -300),
            sample(2, 16, 1, 300),
        ];
        let align = ClockAlign::estimate(&events);
        assert_eq!(align.reference, NodeId(0));
        assert_eq!(align.correction_ns(NodeId(0)), 0);
        assert_eq!(align.correction_ns(NodeId(1)), -500);
        assert_eq!(align.correction_ns(NodeId(2)), -200);
        assert_eq!(align.samples, 4);
        // An event at node-1 local time 600 is reference time 100.
        let shifted = align.apply(&[ev(1, 600, ProbeEvent::Crashed)]);
        assert_eq!(shifted[0].at, Time(100));
    }

    #[test]
    fn alignment_uses_median_over_noisy_samples() {
        let events = vec![
            sample(0, 1, 1, 480),
            sample(0, 2, 1, 500),
            sample(0, 3, 1, 9_000_000), // one queueing outlier
        ];
        let align = ClockAlign::estimate(&events);
        assert_eq!(align.correction_ns(NodeId(1)), -500);
    }

    /// A three-node happy-path op: submitted to leader 0, index 7, both
    /// followers receive/accept, weak quorum, commit, apply everywhere.
    fn one_op(events: &mut Vec<TraceEvent>) {
        let ix = LogIndex(7);
        let (c, r) = (ClientId(3), RequestId(1));
        events.extend([
            ev(0, 100, ProbeEvent::SubmitReceived { client: c, request: r }),
            ev(0, 150, ProbeEvent::Proposed { index: ix, client: c, request: r }),
            ev(0, 150, ProbeEvent::Appended { index: ix }),
            ev(1, 400, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 450, ProbeEvent::Appended { index: ix }),
            ev(2, 600, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(2, 900, ProbeEvent::Appended { index: ix }),
            ev(0, 700, ProbeEvent::WeakQuorum { index: ix }),
            ev(0, 1000, ProbeEvent::Committed { index: ix }),
            ev(0, 1100, ProbeEvent::Applied { index: ix }),
            ev(1, 1200, ProbeEvent::Committed { index: ix }),
            ev(1, 1250, ProbeEvent::Applied { index: ix }),
            ev(2, 1300, ProbeEvent::Committed { index: ix }),
            ev(2, 1350, ProbeEvent::Applied { index: ix }),
        ]);
    }

    #[test]
    fn spans_join_op_identity_to_index() {
        let mut events = Vec::new();
        one_op(&mut events);
        let spans = collect(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.client, s.request, s.index), (ClientId(3), RequestId(1), LogIndex(7)));
        assert_eq!(s.leader, NodeId(0));
        assert_eq!(s.submit, Some(Time(100)));
        assert_eq!(s.proposed, Some(Time(150)));
        assert_eq!(s.nodes.len(), 3);
        assert!(s.complete(&[NodeId(0), NodeId(1), NodeId(2)]));
        // Missing a member's apply → incomplete.
        assert!(!s.complete(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]));
    }

    #[test]
    fn critical_path_attributes_phases_to_quorum_follower() {
        let mut events = Vec::new();
        one_op(&mut events);
        let align = ClockAlign::identity();
        let spans = collect(&events);
        let cp = critical_path(&spans, &events, &align);
        assert_eq!(cp.ops, 1);
        assert_eq!(cp.complete, 1);
        // Quorum 2 of 3 → the fastest follower (node 1) is critical.
        assert_eq!(cp.queue.max(), 50); // 100 → 150
        assert_eq!(cp.link.max(), 250); // 150 → 400
        assert_eq!(cp.window.max(), 50); // 400 → 450
        assert_eq!(cp.weak_ack.max(), 250); // 450 → 700
        assert_eq!(cp.commit_wait.max(), 300); // 700 → 1000
        assert_eq!(cp.apply.max(), 100); // 1000 → 1100
        assert_eq!(cp.total.max(), 900); // 100 → 1000
                                         // Both followers feed the node-local t_wait comparison series.
        assert_eq!(cp.twait_all.count(), 2);
        let rendered = cp.render();
        assert!(rendered.contains("window cache/park"), "{rendered}");
    }

    /// Two groups hosted by the same three processes, recorded the way a
    /// multi-group host records them (group 1 through its `in_group` handle
    /// on the one buffer): both have an op at index 7, group 1's (a
    /// different client) a bit slower.
    #[test]
    fn multi_group_traces_join_and_count_quorum_per_group() {
        let (probe, buffer) = crate::EngineProbe::shared();
        let mut ops = Vec::new();
        one_op(&mut ops);
        for e in &ops {
            probe.record(e.node, e.at, e.event);
        }
        let group1 = probe.in_group(1);
        for mut e in ops {
            if let ProbeEvent::SubmitReceived { client, .. } | ProbeEvent::Proposed { client, .. } =
                &mut e.event
            {
                *client = ClientId(4);
            }
            group1.record(e.node, Time(e.at.0 * 2), e.event);
        }
        let events = buffer.take();

        let spans = collect(&events);
        assert_eq!(spans.len(), 2);
        for s in &spans {
            let group = node_group(s.leader).0;
            assert_eq!(s.nodes.len(), 3, "a span holds its own group's replicas only");
            assert!(s.nodes.keys().all(|n| node_group(*n).0 == group));
        }
        let cp = critical_path(&spans, &events, &ClockAlign::identity());
        assert_eq!(cp.members, [NodeId(0), NodeId(1), NodeId(2)], "one membership, per group");
        assert_eq!((cp.ops, cp.complete), (2, 2));
        // Quorum 2 of 3 in each group: the critical follower is that group's
        // fastest, so group 1 reads exactly twice group 0's phases.
        assert_eq!((cp.link.min(), cp.link.max()), (250, 500));
        assert_eq!((cp.total.min(), cp.total.max()), (900, 1800));
        assert_eq!(cp.twait_all.count(), 4);
        assert!(cp
            .render()
            .starts_with("critical path: 2 ops (2 complete spans, 3 members, quorum 2)"));

        // Clock samples come from the processes' transports (plain replica
        // ids); every group's replica in that process takes the correction.
        let align = ClockAlign::estimate(&[sample(0, 10, 1, 500), sample(1, 12, 0, -500)]);
        assert_eq!(align.correction_ns(group_node(1, NodeId(1))), -500);
        assert_eq!(align.correction_ns(group_node(1, NodeId(0))), 0);
    }

    #[test]
    fn window_zero_spans_fall_back_to_combined_commit_wait() {
        // No WeakQuorum event (stock Raft): commit_wait spans accept → commit.
        let ix = LogIndex(2);
        let (c, r) = (ClientId(1), RequestId(5));
        let events = vec![
            ev(0, 0, ProbeEvent::SubmitReceived { client: c, request: r }),
            ev(0, 10, ProbeEvent::Proposed { index: ix, client: c, request: r }),
            ev(0, 10, ProbeEvent::Appended { index: ix }),
            ev(1, 200, ProbeEvent::EntryReceived { index: ix, term: Term(1) }),
            ev(1, 210, ProbeEvent::Appended { index: ix }),
            ev(0, 500, ProbeEvent::Committed { index: ix }),
        ];
        let spans = collect(&events);
        let cp = critical_path(&spans, &events, &ClockAlign::identity());
        assert_eq!(cp.commit_wait.max(), 290); // 210 → 500
        assert_eq!(cp.weak_ack.count(), 0);
    }

    #[test]
    fn spans_jsonl_roundtrips_through_shape() {
        let mut events = Vec::new();
        one_op(&mut events);
        let spans = collect(&events);
        let text = spans_jsonl(&spans);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"client\":3"), "{text}");
        assert!(text.contains("\"submit\":100"), "{text}");
        assert!(text.contains("\"node\":2"), "{text}");
    }
}

//! The explored world: replicas, client, network, budgets, and the history
//! observables the invariants quantify over — plus the transition functions
//! that enumerate and apply successor states.

use super::Phase;
use bytes::Bytes;
use nbr_core::{ClientAction, Node, Output, RaftClient};
use nbr_storage::{DedupTable, LogStore, MemLog};
use nbr_types::{
    ClientId, ClientRequest, ClientResponse, Entry, LogIndex, Message, NodeId, Protocol, Time,
    TimeDelta,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// Base RNG seed for every replica. The per-node id mix that
/// [`nbr_core::Node::new`] applies is cancelled (`^ id * SEED_ID_MIX`) so all
/// replicas draw identical jitter streams: replicas then differ only by id,
/// which is what makes states equal under id renaming. Timer *choices* are
/// explored nondeterministically anyway, so identical jitter loses no
/// schedules.
const MODEL_SEED: u64 = 42;

/// Per-channel reorder window: how many queued messages of one channel are
/// deliverable at once. 2 lets adjacent swaps accumulate into arbitrary
/// permutations across steps while keeping the branching factor bounded.
pub(crate) const REORDER_WINDOW: usize = 2;

/// How often each invariant was actually evaluated — the per-invariant
/// counters for the machine-readable stats (`--stats-out`). Monotone along a
/// path and excluded from fingerprints; the explorer sums per-transition
/// deltas so merged states do not double-count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// ElectionSafety evaluations (one per ElectedLeader output).
    pub election_safety: u64,
    /// LeaderCompleteness evaluations (per committed entry at election, plus
    /// commit scans).
    pub leader_completeness: u64,
    /// LogMatching pairwise log comparisons.
    pub log_matching: u64,
    /// StateMachineSafety apply/commit agreement checks.
    pub state_machine_safety: u64,
    /// NB-1 window adjacency + strict apply order checks.
    pub nb1: u64,
    /// NB-2 weak-accept majority-backing checks.
    pub nb2: u64,
    /// NB-3 exactly-once / confirmed-is-committed checks.
    pub nb3: u64,
}

impl Counts {
    /// `self - base`, fieldwise (counts are monotone within a transition).
    pub fn delta(&self, base: &Counts) -> Counts {
        Counts {
            election_safety: self.election_safety - base.election_safety,
            leader_completeness: self.leader_completeness - base.leader_completeness,
            log_matching: self.log_matching - base.log_matching,
            state_machine_safety: self.state_machine_safety - base.state_machine_safety,
            nb1: self.nb1 - base.nb1,
            nb2: self.nb2 - base.nb2,
            nb3: self.nb3 - base.nb3,
        }
    }

    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.election_safety += other.election_safety;
        self.leader_completeness += other.leader_completeness;
        self.log_matching += other.log_matching;
        self.state_machine_safety += other.state_machine_safety;
        self.nb1 += other.nb1;
        self.nb2 += other.nb2;
        self.nb3 += other.nb3;
    }
}

/// An in-flight transmission.
#[derive(Debug, Clone, Hash)]
pub(crate) enum Wire {
    /// Replica-to-replica protocol message.
    Node { from: NodeId, to: NodeId, msg: Message },
    /// Client request travelling to a replica.
    Req { to: NodeId, req: ClientRequest },
    /// Replica response travelling to the client. `from` keys the channel:
    /// responses from different replicas ride different connections, so they
    /// carry no cross-replica ordering.
    Resp { from: NodeId, resp: ClientResponse },
}

impl Wire {
    /// Channel key for the per-channel reorder window.
    pub(crate) fn channel(&self) -> (u8, u32, u32) {
        match self {
            Wire::Node { from, to, .. } => (0, from.0, to.0),
            Wire::Req { to, .. } => (1, 0, to.0),
            Wire::Resp { from, .. } => (2, from.0, 0),
        }
    }

    pub(crate) fn label(&self) -> String {
        match self {
            Wire::Node { from, to, msg } => format!("{} {}->{}", msg.kind(), from.0, to.0),
            Wire::Req { to, req } => format!("req#{} ->{}", req.request.0, to.0),
            Wire::Resp { from, resp } => format!("resp:{} {}->client", resp.kind(), from.0),
        }
    }
}

/// Which sequential process a delivery steps — the basis of the POR
/// independence relation (deliveries to distinct processes commute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proc {
    Node(u32),
    Client,
}

/// Identity of one deliverable wire, stable across the sibling expansions of
/// a single state: deliveries on *other* channels only append to this
/// channel's back, so (channel, offset-from-front) still names the same wire
/// in the immediate successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeliveryKey {
    pub(crate) channel: (u8, u32, u32),
    pub(crate) offset: usize,
}

/// What a successor transition is, for the explorer's POR bookkeeping.
#[derive(Debug, Clone)]
pub(crate) enum SuccKind {
    /// Pure message delivery — participates in partial-order reduction.
    Deliver {
        key: DeliveryKey,
        /// The process this delivery steps.
        proc: Proc,
        /// For the batched-append hazard: this wire is the newest frame of
        /// its channel and an `AppendEntry`, so a delivery processed by the
        /// channel's source node could merge into it.
        append_tail_from: Option<u32>,
    },
    /// Everything else (faults, timers, client issue) — never reduced.
    Other,
}

/// One enumerated successor.
pub(crate) struct Succ {
    pub(crate) label: String,
    pub(crate) kind: SuccKind,
    pub(crate) result: Result<World, String>,
}

/// Two deliveries commute unless they step the same process, or — with
/// batching on — one is the mergeable tail of a channel whose source is the
/// other's process (delivering the other first could grow or consume the
/// frame this one names).
pub(crate) fn independent(a: &SuccKind, b: &SuccKind) -> bool {
    let (
        SuccKind::Deliver { proc: pa, append_tail_from: ta, .. },
        SuccKind::Deliver { proc: pb, append_tail_from: tb, .. },
    ) = (a, b)
    else {
        return false;
    };
    if pa == pb {
        return false;
    }
    let hazard = |tail: &Option<u32>, other: &Proc| match (tail, other) {
        (Some(src), Proc::Node(n)) => src == n,
        _ => false,
    };
    !hazard(ta, pb) && !hazard(tb, pa)
}

/// The complete explored state: replicas, client, network, budgets, and the
/// history observables the invariants quantify over.
#[derive(Clone)]
pub(crate) struct World {
    pub(crate) nodes: Vec<Node<MemLog>>,
    pub(crate) crashed: Vec<bool>,
    /// Outbound Append coalescing cap applied to every node's outputs
    /// (`1` = unbatched; constant over a run, so excluded from fingerprints).
    pub(crate) batch: usize,
    pub(crate) client: RaftClient,
    pub(crate) wires: Vec<Wire>,
    pub(crate) now: Time,
    pub(crate) ops_issued: u8,
    pub(crate) budget: Phase,
    pub(crate) depth: u32,
    // History observables.
    /// `term -> node` for every ElectedLeader output seen on this path.
    pub(crate) leaders: BTreeMap<u64, u32>,
    /// `index -> (entry hash, term)` for every committed entry on this
    /// path, with the term of the replica first seen committing it.
    pub(crate) committed: BTreeMap<u64, (u64, u64)>,
    /// Origins `(client, request)` of committed entries.
    pub(crate) committed_origins: BTreeSet<(u64, u64)>,
    /// Highest commit index already scanned per node.
    pub(crate) commit_seen: Vec<u64>,
    /// `index -> entry hash` of the first apply observed at that index.
    pub(crate) applied_canon: BTreeMap<u64, u64>,
    /// Last applied index observed per node (strict-order check).
    pub(crate) last_applied: Vec<u64>,
    /// Per node: executed `(client, request)` effects, recorded apart from
    /// the state machine's own table.
    pub(crate) executed: Vec<BTreeSet<(u64, u64)>>,
    /// Per node: the state machine's dedup table, fed every applied entry.
    pub(crate) dedup: Vec<DedupTable>,
    /// WEAK_ACCEPT responses seen on this path (coverage only; deliberately
    /// excluded from the fingerprint).
    pub(crate) weak_seen: u16,
    /// Invariant-evaluation counters (coverage only, excluded like
    /// `weak_seen`).
    pub(crate) counts: Counts,
}

pub(crate) fn entry_hash(e: &Entry) -> u64 {
    let mut h = DefaultHasher::new();
    e.index.hash(&mut h);
    e.term.hash(&mut h);
    e.origin.hash(&mut h);
    e.payload.hash(&mut h);
    h.finish()
}

impl World {
    pub(crate) fn new(n: usize, window: usize, phase: Phase, batch: usize) -> World {
        let membership: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
        let cfg = Protocol::NbRaft.config(window);
        let nodes = (1..=n as u32)
            .map(|id| {
                // Cancel the constructor's id mix so replicas share one
                // jitter stream (see MODEL_SEED).
                let seed = MODEL_SEED ^ (id as u64).wrapping_mul(nbr_core::node::SEED_ID_MIX);
                Node::new(NodeId(id), membership.clone(), cfg.clone(), MemLog::new(), seed)
            })
            .collect();
        let client =
            RaftClient::new(ClientId(1), membership, NodeId(1), TimeDelta::from_millis(150));
        World {
            nodes,
            crashed: vec![false; n],
            batch,
            client,
            wires: Vec::new(),
            now: Time::ZERO,
            ops_issued: 0,
            budget: phase,
            depth: 0,
            leaders: BTreeMap::new(),
            committed: BTreeMap::new(),
            committed_origins: BTreeSet::new(),
            commit_seen: vec![0; n],
            applied_canon: BTreeMap::new(),
            last_applied: vec![0; n],
            executed: vec![BTreeSet::new(); n],
            dedup: vec![DedupTable::default(); n],
            weak_seen: 0,
            counts: Counts::default(),
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn node_index(&self, id: NodeId) -> usize {
        (id.0 - 1) as usize
    }

    /// Process engine outputs of node `n`, checking the output-triggered
    /// invariants as they appear.
    fn absorb_outputs(&mut self, n: usize, mut outputs: Vec<Output>) -> Result<(), String> {
        // NB-2: every WEAK_ACCEPT the engine makes, sent or superseded by
        // its Strong below, must be backed by a true majority of weak ∪
        // strong acceptances (or the entry already committed and the tuple
        // was retired).
        for out in &outputs {
            if let Output::Respond { resp: ClientResponse::Weak { index, .. }, .. } = *out {
                self.weak_seen = self.weak_seen.saturating_add(1);
                self.counts.nb2 += 1;
                let node = &self.nodes[n];
                let backed = match node.vote_list().get(index) {
                    Some(tp) => tp.accepted_count() >= node.vote_list().quorum(),
                    None => index <= node.commit_index(),
                };
                if !backed {
                    return Err(format!(
                        "NB-2: node {} sent WEAK_ACCEPT for {index} without a weak+strong majority",
                        n + 1
                    ));
                }
            }
        }
        // Settle the outputs as the replica loop does: the checker sees the
        // replies a client sees, and multi-entry frames face the same
        // reorder/dup/loss adversary as singles (batch=1 merges nothing).
        nbr_core::settle_outputs(&mut outputs, self.batch);
        for out in outputs {
            match out {
                Output::Send { to, msg } => {
                    let from = self.nodes[n].id();
                    // Cross-step coalescing: the replica loop drains a burst
                    // of deliveries into one transport flush, so an Append
                    // may still merge with the channel's *newest* queued
                    // Append. Only the final queued message of a channel can
                    // grow, so per-channel order is preserved.
                    if self.batch > 1 {
                        if let Message::AppendEntry(m) = &msg {
                            let newest = self.wires.iter_mut().rev().find_map(|w| match w {
                                Wire::Node { from: f, to: t, msg } if *f == from && *t == to => {
                                    Some(msg)
                                }
                                Wire::Node { .. } | Wire::Req { .. } | Wire::Resp { .. } => None,
                            });
                            if let Some(Message::AppendEntry(prev)) = newest {
                                if prev.merge(m, self.batch) {
                                    continue;
                                }
                            }
                        }
                    }
                    self.wires.push(Wire::Node { from, to, msg });
                }
                Output::Respond { resp, .. } => {
                    self.wires.push(Wire::Resp { from: self.nodes[n].id(), resp });
                }
                Output::Apply { entry } => self.observe_apply(n, &entry)?,
                Output::ElectedLeader { term } => {
                    let id = self.nodes[n].id().0;
                    self.counts.election_safety += 1;
                    if let Some(&prev) = self.leaders.get(&term.0) {
                        if prev != id {
                            return Err(format!(
                                "ElectionSafety: term {} has two leaders: node {prev} and node {id}",
                                term.0
                            ));
                        }
                    }
                    self.leaders.insert(term.0, id);
                    // LeaderCompleteness: every entry committed in an
                    // earlier term must be in the new leader's log,
                    // unchanged. A leader elected late in an old term by a
                    // stale vote may miss what a newer term committed; it
                    // can commit nothing.
                    let earlier = self.committed.iter().filter(|(_, &(_, t))| t < term.0);
                    for (&idx, &(hash, _)) in earlier {
                        self.counts.leader_completeness += 1;
                        match self.nodes[n].log().get(LogIndex(idx)) {
                            Some(e) if entry_hash(&e) == hash => {}
                            _ => {
                                return Err(format!(
                                    "LeaderCompleteness: new leader {id} (term {}) is missing committed entry {idx}",
                                    term.0
                                ))
                            }
                        }
                    }
                }
                Output::RestoreSnapshot { .. } | Output::ReadReady { .. } => {
                    return Err(
                        "model hole: snapshot/read outputs should not occur in the bounded world"
                            .to_string(),
                    );
                }
            }
        }
        Ok(())
    }

    /// StateMachineSafety + NB-1 order + NB-3 effect-exactly-once, observed
    /// at the apply stream of node `n`.
    fn observe_apply(&mut self, n: usize, entry: &Entry) -> Result<(), String> {
        let idx = entry.index.0;
        self.counts.nb1 += 1;
        if idx != self.last_applied[n] + 1 {
            return Err(format!(
                "NB-1: node {} applied index {idx} after {}; applies must be in strict index order",
                n + 1,
                self.last_applied[n]
            ));
        }
        self.last_applied[n] = idx;
        let h = entry_hash(entry);
        self.counts.state_machine_safety += 1;
        match self.applied_canon.get(&idx) {
            Some(&prev) if prev != h => {
                return Err(format!(
                    "StateMachineSafety: two different entries applied at index {idx}"
                ));
            }
            _ => {
                self.applied_canon.insert(idx, h);
            }
        }
        if let Some(origin) = entry.origin {
            let key = (origin.client.0, origin.request.0);
            self.counts.nb3 += 1;
            let fresh = self.dedup[n].insert(origin.client, origin.request);
            if fresh && !self.executed[n].insert(key) {
                return Err(format!(
                    "NB-3: node {} executed request {}/{} twice",
                    n + 1,
                    key.0,
                    key.1
                ));
            }
            if !fresh && !self.executed[n].contains(&key) {
                return Err(format!(
                    "NB-3: node {} dedup-skipped request {}/{} that never executed (lost retry)",
                    n + 1,
                    key.0,
                    key.1
                ));
            }
        }
        Ok(())
    }

    fn absorb_client_actions(&mut self, actions: Vec<ClientAction>) -> Result<(), String> {
        for a in actions {
            match a {
                ClientAction::Send { to, request } => {
                    self.wires.push(Wire::Req { to, req: request });
                }
                ClientAction::Acked { .. } => {}
                ClientAction::Confirmed { request } => {
                    // NB-3 (client side): a strong confirmation promises the
                    // operation is durably committed.
                    let key = (self.client.id().0, request.0);
                    self.counts.nb3 += 1;
                    if !self.committed_origins.contains(&key) {
                        return Err(format!(
                            "NB-3: client confirmed request {} which is not committed anywhere",
                            request.0
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whole-state invariants after every transition.
    fn check_global(&mut self) -> Result<(), String> {
        let n_nodes = self.n();
        // NB-1: windows stay adjacency-consistent.
        for (n, node) in self.nodes.iter().enumerate() {
            self.counts.nb1 += 1;
            if !node.window().adjacency_consistent() {
                return Err(format!("NB-1: node {} window lost adjacency consistency", n + 1));
            }
        }
        // Commit scan: record newly committed entries, check convergence.
        for n in 0..n_nodes {
            let commit = self.nodes[n].commit_index().0;
            while self.commit_seen[n] < commit {
                let idx = self.commit_seen[n] + 1;
                self.counts.leader_completeness += 1;
                let Some(e) = self.nodes[n].log().get(LogIndex(idx)) else {
                    return Err(format!(
                        "LeaderCompleteness: node {} committed index {idx} but has no such entry",
                        n + 1
                    ));
                };
                let h = entry_hash(&e);
                self.counts.state_machine_safety += 1;
                if let Some(&(prev, _)) = self.committed.get(&idx) {
                    if prev != h {
                        return Err(format!(
                            "StateMachineSafety: divergent committed entries at index {idx}"
                        ));
                    }
                } else {
                    self.committed.insert(idx, (h, self.nodes[n].term().0));
                }
                if let Some(origin) = e.origin {
                    self.committed_origins.insert((origin.client.0, origin.request.0));
                }
                self.commit_seen[n] = idx;
            }
        }
        // LogMatching, pairwise.
        for a in 0..n_nodes {
            for b in a + 1..n_nodes {
                self.counts.log_matching += 1;
                let (la, lb) = (self.nodes[a].log(), self.nodes[b].log());
                let lo = la.first_index().0.max(lb.first_index().0);
                let hi = la.last_index().0.min(lb.last_index().0);
                let mut agree_at = None;
                for idx in (lo..=hi).rev() {
                    if la.term_of(LogIndex(idx)) == lb.term_of(LogIndex(idx)) {
                        agree_at = Some(idx);
                        break;
                    }
                }
                if let Some(top) = agree_at {
                    for idx in lo..=top {
                        let (ea, eb) = (la.get(LogIndex(idx)), lb.get(LogIndex(idx)));
                        let same = match (&ea, &eb) {
                            (Some(x), Some(y)) => entry_hash(x) == entry_hash(y),
                            _ => false,
                        };
                        if !same {
                            return Err(format!(
                                "LogMatching: nodes {} and {} agree on the term at {top} but differ at index {idx}",
                                a + 1,
                                b + 1
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Enumerate successors. Deterministic; the explorer pops from the BACK
    /// of this list first (depth-first), so order encodes a search heuristic:
    /// protocol progress (deliveries, elections, client ops) is listed last
    /// and explored first, fault injection (drops, duplicates) is listed
    /// first and explored once the progress subtrees are done. This way the
    /// first lineage under a state cap is a complete happy-path execution,
    /// with faults branching off every prefix of it.
    pub(crate) fn successors(&self) -> Vec<Succ> {
        let n_nodes = self.n();
        let mut out = Vec::new();
        // Deliverable wires: the first REORDER_WINDOW per channel, with the
        // POR identity of each (channel, offset-in-channel).
        let mut per_channel: HashMap<(u8, u32, u32), usize> = HashMap::new();
        let mut chan_len: HashMap<(u8, u32, u32), usize> = HashMap::new();
        for w in &self.wires {
            *chan_len.entry(w.channel()).or_insert(0) += 1;
        }
        let mut deliverable: Vec<(usize, DeliveryKey)> = Vec::new();
        let mut chan_seen: HashMap<(u8, u32, u32), usize> = HashMap::new();
        for (i, w) in self.wires.iter().enumerate() {
            let chan = w.channel();
            let offset = *chan_seen.entry(chan).and_modify(|c| *c += 1).or_insert(0);
            let c = per_channel.entry(chan).or_insert(0);
            if *c < REORDER_WINDOW {
                deliverable.push((i, DeliveryKey { channel: chan, offset }));
                *c += 1;
            }
        }
        // Explored last: duplication and loss.
        for &(i, _) in &deliverable {
            if self.budget.dup > 0 {
                if let Wire::Node { .. } = self.wires[i] {
                    let label = format!("dup+deliver {}", self.wires[i].label());
                    out.push(Succ {
                        label,
                        kind: SuccKind::Other,
                        result: self.apply_deliver(i, true),
                    });
                }
            }
            if self.budget.drop > 0 {
                let label = format!("drop {}", self.wires[i].label());
                out.push(Succ { label, kind: SuccKind::Other, result: Ok(self.apply_drop(i)) });
            }
        }
        // Crash-stop of a leader that has committed something — crashing a
        // freshly elected leader only burns the election budget on a subtree
        // where nothing can commit. For windowed runs additionally require
        // the client to hold weak-accepted ops, so the crash lands exactly
        // in the opList-retry scenario of paper Figure 11 (NB-3).
        for n in 0..n_nodes {
            if self.crashed[n] || self.nodes[n].role() != nbr_core::Role::Leader {
                continue;
            }
            let windowed = self.nodes[n].window().capacity() > 0;
            let retry_armed = !windowed || self.client.op_list_len() > 0;
            if self.budget.crash > 0 && self.nodes[n].commit_index().0 > 0 && retry_armed {
                let label = format!("leader {} crashes", n + 1);
                out.push(Succ { label, kind: SuccKind::Other, result: Ok(self.apply_crash(n)) });
            }
        }
        if self.budget.client_ticks > 0 && self.client.in_flight() {
            out.push(Succ {
                label: "client request timeout".into(),
                kind: SuccKind::Other,
                result: self.apply_client_tick(),
            });
        }
        for n in 0..n_nodes {
            if !self.crashed[n]
                && self.nodes[n].role() == nbr_core::Role::Leader
                && self.budget.heartbeats > 0
            {
                let label = format!("heartbeat timer at node {}", n + 1);
                out.push(Succ { label, kind: SuccKind::Other, result: self.apply_timer(n, true) });
            }
        }
        for n in 0..n_nodes {
            if !self.crashed[n]
                && self.nodes[n].role() != nbr_core::Role::Leader
                && self.budget.elections > 0
            {
                let label = format!("election timeout at node {}", n + 1);
                out.push(Succ { label, kind: SuccKind::Other, result: self.apply_timer(n, false) });
            }
        }
        // Explored first: message delivery, then — ahead of everything —
        // issuing the next client op. Issuing before draining the wires puts
        // pipelined executions (several entries in flight, the regime where
        // transport batching and the NB window actually matter) on the very
        // first lineage instead of deep in sibling order.
        for &(i, key) in &deliverable {
            let wire = &self.wires[i];
            let proc = match wire {
                Wire::Node { to, .. } | Wire::Req { to, .. } => Proc::Node(to.0),
                Wire::Resp { .. } => Proc::Client,
            };
            let append_tail_from = match wire {
                Wire::Node { from, msg: Message::AppendEntry(_), .. }
                    if self.batch > 1 && key.offset + 1 == chan_len[&key.channel] =>
                {
                    Some(from.0)
                }
                _ => None,
            };
            out.push(Succ {
                label: format!("deliver {}", wire.label()),
                kind: SuccKind::Deliver { key, proc, append_tail_from },
                result: self.apply_deliver(i, false),
            });
        }
        if self.ops_issued < self.budget.max_ops && self.client.ready() {
            out.push(Succ {
                label: "client issues op".into(),
                kind: SuccKind::Other,
                result: self.apply_issue(),
            });
        }
        out
    }

    fn apply_deliver(&self, i: usize, duplicate: bool) -> Result<World, String> {
        let mut w = self.clone();
        w.depth += 1;
        let wire = if duplicate {
            w.budget.dup -= 1;
            w.wires[i].clone()
        } else {
            w.wires.remove(i)
        };
        match wire {
            Wire::Node { from, to, msg } => {
                let n = w.node_index(to);
                if !w.crashed[n] {
                    let mut out = Vec::new();
                    let now = w.now;
                    w.nodes[n].handle_message(from, msg, now, &mut out);
                    w.absorb_outputs(n, out)?;
                }
            }
            Wire::Req { to, req } => {
                let n = w.node_index(to);
                if !w.crashed[n] {
                    let mut out = Vec::new();
                    let now = w.now;
                    w.nodes[n].handle_client(req, now, &mut out);
                    w.absorb_outputs(n, out)?;
                }
            }
            Wire::Resp { resp, .. } => {
                let mut actions = Vec::new();
                let now = w.now;
                w.client.handle_response(resp, now, &mut actions);
                w.absorb_client_actions(actions)?;
            }
        }
        w.check_global()?;
        Ok(w)
    }

    fn apply_drop(&self, i: usize) -> World {
        let mut w = self.clone();
        w.depth += 1;
        w.budget.drop -= 1;
        w.wires.remove(i);
        w
    }

    fn apply_issue(&self) -> Result<World, String> {
        let mut w = self.clone();
        w.depth += 1;
        w.ops_issued += 1;
        let opno = w.ops_issued;
        let payload = Bytes::from(format!("k{opno}=v{opno}"));
        let mut actions = Vec::new();
        let now = w.now;
        w.client.issue(payload, now, &mut actions);
        w.absorb_client_actions(actions)?;
        w.check_global()?;
        Ok(w)
    }

    fn apply_client_tick(&self) -> Result<World, String> {
        let mut w = self.clone();
        w.depth += 1;
        w.budget.client_ticks -= 1;
        // Jump time far enough that the request timeout has elapsed.
        w.now += TimeDelta::from_millis(200);
        let mut actions = Vec::new();
        let now = w.now;
        w.client.tick(now, &mut actions);
        w.absorb_client_actions(actions)?;
        w.check_global()?;
        Ok(w)
    }

    fn apply_timer(&self, n: usize, heartbeat: bool) -> Result<World, String> {
        let mut w = self.clone();
        w.depth += 1;
        let deadline =
            if heartbeat { w.nodes[n].next_heartbeat() } else { w.nodes[n].election_deadline() };
        if heartbeat {
            w.budget.heartbeats -= 1;
        } else {
            w.budget.elections -= 1;
        }
        w.now = w.now.max(deadline);
        let mut out = Vec::new();
        let now = w.now;
        w.nodes[n].tick(now, &mut out);
        w.absorb_outputs(n, out)?;
        w.check_global()?;
        Ok(w)
    }

    fn apply_crash(&self, n: usize) -> World {
        let mut w = self.clone();
        w.depth += 1;
        w.budget.crash -= 1;
        w.crashed[n] = true;
        w
    }
}

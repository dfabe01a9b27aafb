//! The sans-I/O replica engine.
//!
//! One [`Node`] implements all seven evaluated protocols, selected by
//! [`ProtocolConfig`]: its preset decides the replication mode (full copies,
//! Reed–Solomon fragments, K-bucket relay) and per-entry verification
//! (VGRaft), and its window size `w` (0 = original Raft, >0 = NB-Raft,
//! Section III) the follower's tolerance for out-of-order entries.
//!
//! The engine is event-driven: `tick`, `handle_message` and `handle_client`
//! mutate state and append [`Output`] actions. It performs **real** work for
//! protocol mechanisms whose CPU cost the paper measures — fragments are
//! really Reed–Solomon coded, VGRaft digests are real SHA-256 — so both
//! harnesses exercise honest code paths.

use crate::event::Output;
use crate::fragments::{encode_fragments, FragmentStore};
use crate::stats::NodeStats;
use crate::votelist::{VoteList, VoteOutcome};
use crate::window::{SlidingWindow, WindowOutcome};
use bytes::Bytes;
use nbr_crypto::{Keypair, Signature};
use nbr_obs::{EngineProbe, ProbeEvent};
use nbr_storage::LogStore;
use nbr_types::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Shared secret from which per-node VGRaft keys are derived: a member's key
/// is `Keypair::derive(CLUSTER_SECRET, position in the sorted membership)`,
/// derived at each signature and each verification. A deployment would
/// provision real keys; the reproduction needs only the *cost* of
/// signing/verifying (see `nbr-crypto`).
const CLUSTER_SECRET: &[u8] = b"nbraft-reproduction-cluster";

/// Followers in VGRaft's per-entry verification group (rotating with the
/// entry index; the leader is not counted).
const VERIFY_GROUP_SIZE: usize = 2;

/// Multiplier mixed into the per-node RNG seed at construction
/// (`seed ^ id * SEED_ID_MIX`), so replicas sharing one base seed still
/// jitter independently. Exposed for the `nbr-check` symmetry reduction,
/// which must *cancel* the mix (pass `seed ^ id * SEED_ID_MIX` as the seed)
/// to give all replicas identical RNG streams — otherwise no two node
/// states are ever equal under id renaming and canonicalization is a no-op.
pub const SEED_ID_MIX: u64 = 0x9E3779B97F4A7C15;

/// Cap on parked (blocked, beyond-window) entries per follower; beyond this
/// the follower answers `Mismatch` to push back on the leader.
const MAX_PARKED: usize = 65_536;

/// Entries per repair batch: a trigger ships the first, and the report that
/// reaches a batch's last entry ships the next (`Node::on_matched`). One batch
/// fits one batched Append frame; larger batches measurably hurt under loss,
/// where a lost frame is re-sent whole.
const CATCHUP_BATCH: usize = 64;

/// Heartbeat rounds without progress from a lagging follower before a repair.
const STALL_ROUNDS: u32 = 2;

/// Heartbeat rounds without a response before a peer is considered dead
/// (drives CRaft fallback / ECRaft degraded coding).
const DEAD_ROUNDS: u32 = 5;

/// Replica role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica; appends entries, votes.
    Follower,
    /// Election in progress.
    Candidate,
    /// Handles client requests and drives replication.
    Leader,
}

/// What a harness publishes of one replica: a running replica's is
/// [`Node::status`], a crashed one's is `NodeStatus::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// Is the node running (not crashed)?
    pub alive: bool,
    /// Believes itself leader?
    pub is_leader: bool,
    /// Current term.
    pub term: u64,
    /// Commit index.
    pub commit: u64,
    /// Last log index.
    pub last_index: u64,
    /// Index through which entries have been applied to the state machine.
    pub applied: u64,
}

/// Who asked for a linearizable read.
#[derive(Debug, Clone, Copy)]
enum ReadOrigin {
    /// A client attached to this node.
    Local { client: ClientId, request: RequestId },
    /// A follower forwarding a ReadIndex probe.
    Remote { follower: NodeId, probe: u64 },
}

/// A linearizable read, served once the apply cursor reaches `gate`.
#[derive(Debug, Clone, Copy)]
struct Read {
    origin: ReadOrigin,
    /// At the leader, the no-op proposed after the read registered; at a
    /// follower, the leader's read index.
    gate: LogIndex,
    read_index: LogIndex,
}

/// Per-peer replication progress kept by the leader.
#[derive(Debug, Clone, Copy, Hash)]
struct Progress {
    /// Highest index the peer has strongly accepted.
    match_index: LogIndex,
    /// Peer's `last_index` from its most recent heartbeat response.
    last_seen: LogIndex,
    /// Consecutive heartbeat rounds without progress while lagging.
    stall_rounds: u32,
    /// Heartbeat rounds since the last response of any kind.
    silent_rounds: u32,
    /// End of the open repair range (`ZERO`: none; see `Node::on_matched`).
    repair_to: LogIndex,
    /// Last index the range has shipped so far.
    repair_sent: LogIndex,
}

impl Progress {
    fn new() -> Progress {
        Progress {
            match_index: LogIndex::ZERO,
            last_seen: LogIndex::ZERO,
            stall_rounds: 0,
            silent_rounds: 0,
            repair_to: LogIndex::ZERO,
            repair_sent: LogIndex::ZERO,
        }
    }

    fn alive(&self) -> bool {
        self.silent_rounds < DEAD_ROUNDS
    }
}

/// Follower gap-hint state: a window-cached entry proves the log has a gap
/// starting at `start`. How the `Mismatch` hint is timed depends on the link
/// ([`ProtocolConfig::in_order`]):
/// - On a reordering link a gap may be frames still in flight on another
///   connection, which fill it within jitter timescales, and hinting on
///   every momentary gap amplifies repair traffic (duplicate catch-up
///   rounds) instead of cutting latency. The hint goes out once per
///   distinct gap start, on the first cached arrival a quarter heartbeat
///   after the gap was first seen (`since`).
/// - On an in-order link every gap is a lost frame. The hint goes out on
///   the first cached arrival, and again on the first one half a heartbeat
///   after the last hint (`since`), in case the hint or a repair frame was
///   lost too.
///
/// Either way a lost frame is repaired long before the leader's stall
/// detector, which needs two heartbeat rounds without progress.
#[derive(Clone, Copy, Debug)]
struct GapHint {
    start: LogIndex,
    since: Time,
    sent: bool,
}

/// The replica engine. Generic over log storage so the simulator can use
/// [`nbr_storage::MemLog`] and the cluster runtime [`nbr_storage::WalLog`].
/// It records protocol events into an [`EngineProbe`]; `Off` (what
/// [`Node::new`] gives) costs one branch per emission.
///
/// `Clone` (available when the log store is cloneable, i.e. `MemLog`) exists
/// for the `nbr-check` model checker, which snapshots whole replicas while
/// exploring the protocol state graph.
#[derive(Clone)]
pub struct Node<L: LogStore> {
    id: NodeId,
    /// All members (sorted, includes self). Bit `i` of vote/accept bitmaps
    /// refers to `membership[i]`.
    membership: Vec<NodeId>,
    cfg: ProtocolConfig,
    log: L,

    term: Term,
    voted_for: Option<NodeId>,
    role: Role,
    leader_hint: Option<NodeId>,
    commit_index: LogIndex,
    applied_index: LogIndex,

    // ---- follower state ----
    /// Highest index through which the local log is *verified* to match the
    /// current term's leader (via a prev-term-checked append, a term-equal
    /// duplicate, or a snapshot). Follower commit may never advance past
    /// this: `leader_commit` proves the leader's entries up to that point
    /// are durable, not that our copies at those indices are those entries.
    /// A deposed leader carrying a stale uncommitted suffix would otherwise
    /// commit its own stale entries the moment a newer leader's commit index
    /// reaches them — before repair has overwritten them.
    matched_to: LogIndex,
    window: SlidingWindow,
    /// Blocked entries beyond the window (or all out-of-order entries when
    /// `w == 0`), keyed by index. Value: (entry, arrival time).
    parked: BTreeMap<LogIndex, (Entry, Time)>,
    /// Arrival times of window-cached entries, for `t_wait` accounting.
    arrivals: BTreeMap<LogIndex, Time>,
    /// Follower gap-repair hint state: caching an out-of-order entry
    /// reveals a gap at the log tip, and a `Mismatch` hint lets the leader
    /// re-send within a round trip instead of waiting out the heartbeat
    /// stall detector. Cleared whenever the log advances.
    gap_hint: Option<GapHint>,
    election_deadline: Time,

    // ---- candidate state ----
    votes: u64,

    // ---- leader state ----
    vote_list: VoteList,
    progress: Vec<Progress>,
    next_heartbeat: Time,

    // ---- CRaft state ----
    /// Shards, decoded payloads and the outstanding pull; empty unless the
    /// preset fragments.
    frags: FragmentStore,

    // ---- linearizable reads (ReadIndex) ----
    /// Reads waiting for the apply cursor to reach their gate.
    reads: Vec<Read>,
    /// Follower: outstanding ReadIndex probes sent to the leader.
    read_probes: BTreeMap<u64, (ClientId, RequestId)>,
    next_probe: u64,

    rng: StdRng,
    /// Counters for instrumentation.
    pub stats: NodeStats,

    /// Observability hook (`EngineProbe::Off` = disabled).
    probe: EngineProbe,
    /// Instant of the input currently being processed, captured at each
    /// public entry point purely for probe timestamps. Instrumentation
    /// only — excluded from [`Self::fingerprint`] so the model-checker
    /// state space is unchanged by tracing.
    probe_now: Time,
}

impl<L: LogStore> Node<L> {
    /// Create a replica with observability disabled. `membership` must
    /// contain `id`; it is sorted internally so all replicas agree on bit
    /// positions.
    pub fn new(
        id: NodeId,
        membership: Vec<NodeId>,
        cfg: ProtocolConfig,
        log: L,
        seed: u64,
    ) -> Node<L> {
        Node::with_probe(id, membership, cfg, log, seed, EngineProbe::Off)
    }

    /// Create a replica recording protocol events into `probe`.
    pub fn with_probe(
        id: NodeId,
        mut membership: Vec<NodeId>,
        cfg: ProtocolConfig,
        log: L,
        seed: u64,
        probe: EngineProbe,
    ) -> Node<L> {
        membership.sort_unstable();
        membership.dedup();
        assert!(membership.contains(&id), "membership must include self");
        assert!(membership.len() <= 64, "bitmap membership limited to 64 nodes");
        let quorum = ProtocolConfig::quorum(membership.len()) as u32;
        let last = log.last_index();
        let (term, voted_for) = log.hard_state();
        // A compacted prefix is committed and applied by construction: the
        // harness restores its machine from the log's snapshot.
        let boundary = log.first_index().prev();
        let n = membership.len();
        let mut rng = StdRng::seed_from_u64(seed ^ (id.0 as u64).wrapping_mul(SEED_ID_MIX));
        let election_deadline = Time::ZERO + jitter(&mut rng, cfg.timeouts);
        Node {
            id,
            membership,
            window: SlidingWindow::new(cfg.window, last),
            cfg,
            log,
            term,
            voted_for,
            role: Role::Follower,
            leader_hint: None,
            commit_index: boundary,
            applied_index: boundary,
            matched_to: boundary,
            parked: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            gap_hint: None,
            election_deadline,
            votes: 0,
            vote_list: VoteList::new(quorum),
            progress: vec![Progress::new(); n],
            next_heartbeat: Time::ZERO,
            frags: FragmentStore::new(),
            reads: Vec::new(),
            read_probes: BTreeMap::new(),
            next_probe: 0,
            rng,
            stats: NodeStats::default(),
            probe,
            probe_now: Time::ZERO,
        }
    }

    /// Record one protocol event at the current input's instant.
    #[inline]
    fn emit(&mut self, event: ProbeEvent) {
        self.probe.record(self.id, self.probe_now, event);
    }

    // ---------------------------------------------------------------- views

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// True when this node believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Believed leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// Commit index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// Last appended log index.
    pub fn last_index(&self) -> LogIndex {
        self.log.last_index()
    }

    /// When each entry still waiting above the log tip arrived, cached in
    /// the window or parked beyond it: a run that ends counts these waits
    /// so far, or a follower that never catches up reads as one that
    /// waited less.
    pub fn waiting_since(&self) -> impl Iterator<Item = Time> + '_ {
        let above_tip = self.log.last_index().next()..;
        let parked = self.parked.range(above_tip.clone()).map(|(_, (_, t))| t);
        self.arrivals.range(above_tip).map(|(_, t)| t).chain(parked).copied()
    }

    /// Borrow the log store.
    pub fn log(&self) -> &L {
        &self.log
    }

    /// The log store, taken back from a crashed engine: entries, hard state
    /// and snapshot are what the replica restarts on.
    pub fn into_log(self) -> L {
        self.log
    }

    /// This running replica's status.
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            alive: true,
            is_leader: self.is_leader(),
            term: self.term.0,
            commit: self.commit_index.0,
            last_index: self.last_index().0,
            applied: self.applied_index.0,
        }
    }

    /// Number of entries currently blocked (window + parked) — the paper's
    /// in-flight "middle state" population.
    pub fn blocked_entries(&self) -> usize {
        self.window.occupied() + self.parked.len()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Compact the log through the applied index into `image` (the state
    /// machine's serialized state at exactly `applied_index`), which the log
    /// keeps for followers that fall behind the compaction horizon and for
    /// this replica's own restart. The harness calls this periodically with
    /// a fresh snapshot.
    pub fn compact_with_snapshot(&mut self, image: Bytes) -> Result<()> {
        let boundary = self.applied_index;
        if boundary == LogIndex::ZERO || boundary < self.log.first_index() {
            return Ok(()); // nothing applied / already compacted past it
        }
        self.log.compact_to(boundary, image)
    }

    /// Last applied index (the snapshot boundary the harness should
    /// serialize the state machine at).
    pub fn applied_index(&self) -> LogIndex {
        self.applied_index
    }

    /// Record `(term, voted_for)` in the log before anything acts on it, so
    /// a restarted replica cannot vote twice in one term.
    fn persist_hard_state(&mut self) {
        let persisted = self.log.set_hard_state(self.term, self.voted_for);
        persisted.expect("hard state write"); // check:allow(L1): storage fault, crash-stop
    }

    /// Borrow the follower's sliding window (model checker / tests).
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// Borrow the leader's vote list (model checker / tests).
    pub fn vote_list(&self) -> &VoteList {
        &self.vote_list
    }

    /// When the election timer would fire (model checker: pass this to
    /// [`Self::tick`] to take the timeout transition deterministically).
    pub fn election_deadline(&self) -> Time {
        self.election_deadline
    }

    /// When the next leader heartbeat is due (model checker hook, as above).
    pub fn next_heartbeat(&self) -> Time {
        self.next_heartbeat
    }

    /// Fold every protocol-relevant piece of replica state into `h`.
    ///
    /// Two replicas with equal fingerprints behave identically on every
    /// future input: the `nbr-check` model checker uses this to recognize
    /// already-explored global states. Instrumentation counters
    /// ([`NodeStats`]), the `t_wait` arrival bookkeeping, and the probe
    /// (including `probe_now`) are deliberately excluded — they never
    /// influence a transition, so tracing leaves the model-checker state
    /// space unchanged. Read bookkeeping (`reads`, `read_probes`) is left
    /// out too, because the model issues no reads.
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.fingerprint_mapped(h, &|id| id, Time::ZERO);
    }

    /// [`Self::fingerprint`] under a node-id renaming and a time translation.
    ///
    /// `map` must be a bijection on the membership; every `NodeId` in the
    /// state is hashed through it, and id *sets* (the `votes` bitmap, the
    /// weak/strong acceptance bitmaps in each [`crate::VoteTuple`], per-peer
    /// `progress`) are hashed as sorted lists of mapped ids, so the digest
    /// depends only on which mapped replicas are in the set — not on local
    /// bit positions. Absolute instants (timer deadlines) are hashed relative
    /// to `base`; the engine only ever compares instants and adds deltas, so
    /// two states that differ by a uniform time shift behave identically.
    ///
    /// The `nbr-check` symmetry reduction hashes each world under every
    /// rotation of the id space with `base = now` and keeps the minimum,
    /// collapsing leader-relative renamings and time-shifted duplicates into
    /// one canonical state.
    pub fn fingerprint_mapped<H: std::hash::Hasher>(
        &self,
        h: &mut H,
        map: &dyn Fn(NodeId) -> NodeId,
        base: Time,
    ) {
        use std::hash::Hash;
        let rel = |t: Time| t.as_nanos().wrapping_sub(base.as_nanos()) as i64;
        let mask = |mask: u64, h: &mut H| {
            let mut ids: Vec<u32> = self
                .membership
                .iter()
                .enumerate()
                .filter(|&(pos, _)| mask & (1u64 << pos) != 0)
                .map(|(_, &n)| map(n).0)
                .collect();
            ids.sort_unstable();
            ids.hash(h);
        };
        map(self.id).hash(h);
        self.term.hash(h);
        self.voted_for.map(&map).hash(h);
        (self.role as u8).hash(h);
        self.leader_hint.map(&map).hash(h);
        self.commit_index.hash(h);
        self.applied_index.hash(h);
        // Follower commit is capped at the verified match watermark.
        self.matched_to.hash(h);
        // Log contents.
        let (first, last) = (self.log.first_index(), self.log.last_index());
        first.hash(h);
        let mut i = first;
        while i <= last {
            if i > LogIndex::ZERO {
                self.log.get(i).hash(h);
            }
            i = i.next();
        }
        // Window cache.
        self.window.base().hash(h);
        for idx in self.window.cached_indices() {
            self.window.get(idx).hash(h);
        }
        // Parked entries (beyond-window / stock-Raft out-of-order).
        for (idx, (entry, _arrival)) in &self.parked {
            idx.hash(h);
            entry.hash(h);
        }
        // Follower gap hint: its timing state decides whether a `Mismatch`
        // repair hint may be (re)sent, so it distinguishes behavior.
        if let Some(hint) = &self.gap_hint {
            hint.start.hash(h);
            rel(hint.since).hash(h);
            hint.sent.hash(h);
        }
        // Candidate and leader state.
        mask(self.votes, h);
        for (idx, t) in self.vote_list.iter() {
            idx.hash(h);
            t.term.hash(h);
            t.origin.hash(h);
            mask(t.weak, h);
            mask(t.strong, h);
            t.commit_threshold.hash(h);
            t.weak_replied.hash(h);
        }
        let mut progress: Vec<(u32, Progress)> =
            self.membership.iter().zip(&self.progress).map(|(&n, &p)| (map(n).0, p)).collect();
        progress.sort_unstable_by_key(|&(id, ..)| id);
        progress.hash(h);
        // Timers and the RNG cursor that feeds them: two replicas that agree
        // on everything else but would jitter differently are distinct states.
        rel(self.election_deadline).hash(h);
        rel(self.next_heartbeat).hash(h);
        rand::RngCore::next_u64(&mut self.rng.clone()).hash(h);
        // Snapshot horizon.
        if let Some((idx, term, image)) = &self.log.snapshot() {
            idx.hash(h);
            term.hash(h);
            image.hash(h);
        }
        // CRaft recovery state, whole (empty unless the preset fragments).
        self.frags.hash(h);
    }

    fn bit_of(&self, node: NodeId) -> u64 {
        let pos = self.membership.iter().position(|&n| n == node).expect("node in membership"); // check:allow(L1): membership is fixed at construction and routing is membership-driven
        1u64 << pos
    }

    fn position_of(&self, node: NodeId) -> usize {
        let pos = self.membership.iter().position(|&n| n == node);
        pos.expect("node in membership") // check:allow(L1): membership is fixed at construction
    }

    fn quorum(&self) -> u32 {
        ProtocolConfig::quorum(self.membership.len()) as u32
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.id;
        self.membership.iter().copied().filter(move |&n| n != me)
    }

    // ---------------------------------------------------------------- input

    /// Advance timers: elections for followers/candidates, heartbeats and
    /// catch-up for leaders.
    pub fn tick(&mut self, now: Time, out: &mut Vec<Output>) {
        self.probe_now = now;
        match self.role {
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now, out);
                }
            }
            Role::Leader => {
                if now >= self.next_heartbeat {
                    self.send_heartbeats(now, out);
                }
            }
        }
    }

    /// Feed one client request (only meaningful at the leader).
    pub fn handle_client(&mut self, req: ClientRequest, now: Time, out: &mut Vec<Output>) {
        self.probe_now = now;
        if self.role != Role::Leader {
            out.push(Output::Respond {
                client: req.client,
                resp: ClientResponse::NotLeader { request: req.request, hint: self.leader_hint },
            });
            return;
        }
        self.stats.proposals += 1;
        self.emit(ProbeEvent::SubmitReceived { client: req.client, request: req.request });
        let origin = Origin { client: req.client, request: req.request };
        self.propose(Some(origin), Payload::Data(req.payload), out);
    }

    /// Feed one protocol message from peer `from`. A quorum is a set of
    /// senders, so the message is dropped unless `from` is a member and the
    /// message names `from` as its sender; a KRaft relay forwards appends
    /// for the leader, so an append needs only a member leader.
    pub fn handle_message(&mut self, from: NodeId, msg: Message, now: Time, out: &mut Vec<Output>) {
        let trusted = if let Message::AppendEntry(m) = &msg {
            self.membership.contains(&m.leader)
        } else {
            self.membership.contains(&from) && msg.sender().is_none_or(|s| s == from)
        };
        if !trusted {
            return;
        }
        self.probe_now = now;
        self.stats.messages += 1;
        let mterm = msg.term();
        if mterm > self.term {
            // Only replication traffic names the leader to follow. Snapshots
            // name it too, but an InstallSnapshot for a newer term is
            // immediately followed by heartbeats anyway.
            let replication = matches!(msg, Message::AppendEntry(_) | Message::Heartbeat(_));
            self.step_down(mterm, msg.sender().filter(|_| replication), out);
        }
        match msg {
            Message::AppendEntry(m) => self.on_append_entry(m, now, out),
            Message::AppendResp(m) => self.on_append_resp(m, out),
            Message::Heartbeat(m) => self.on_heartbeat(m, now, out),
            Message::HeartbeatResp(m) => self.on_heartbeat_resp(m, out),
            Message::RequestVote(m) => self.on_request_vote(m, now, out),
            Message::RequestVoteResp(m) => self.on_vote_resp(m, now, out),
            Message::PullFragments(m) => self.on_pull_fragments(m, out),
            Message::PushFragments(m) => self.on_push_fragments(m, out),
            Message::InstallSnapshot(m) => self.on_install_snapshot(m, now, out),
            Message::InstallSnapshotResp(m) => self.on_install_snapshot_resp(m, out),
            Message::ReadIndexReq(m) => self.on_read_index_req(m, out),
            Message::ReadIndexResp(m) => self.on_read_index_resp(m, out),
        }
    }

    // ------------------------------------------------------------ elections

    /// Start an election immediately (also used by tests/harnesses to
    /// bootstrap a leader deterministically).
    pub fn campaign(&mut self, now: Time, out: &mut Vec<Output>) {
        self.probe_now = now;
        self.start_election(now, out);
    }

    fn start_election(&mut self, now: Time, out: &mut Vec<Output>) {
        self.stats.elections += 1;
        self.role = Role::Candidate;
        self.term = self.term.next();
        // New term, unknown leader: only the committed prefix is known to
        // match whoever wins.
        self.matched_to = self.commit_index;
        self.emit(ProbeEvent::ElectionStarted { term: self.term });
        self.voted_for = Some(self.id);
        self.persist_hard_state();
        self.votes = self.bit_of(self.id);
        self.leader_hint = None;
        self.election_deadline = now + jitter(&mut self.rng, self.cfg.timeouts);
        let msg = Message::RequestVote(RequestVoteMsg {
            term: self.term,
            candidate: self.id,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        });
        for peer in self.peers().collect::<Vec<_>>() {
            out.push(Output::Send { to: peer, msg: msg.clone() });
        }
        // Single-node group: elected immediately.
        if self.votes.count_ones() >= self.quorum() {
            self.become_leader(now, out);
        }
    }

    fn on_request_vote(&mut self, m: RequestVoteMsg, now: Time, out: &mut Vec<Output>) {
        let mut granted = false;
        if m.term == self.term && self.role == Role::Follower {
            let can_vote = self.voted_for.is_none() || self.voted_for == Some(m.candidate);
            let up_to_date = (m.last_log_term, m.last_log_index)
                >= (self.log.last_term(), self.log.last_index());
            if can_vote && up_to_date {
                granted = true;
                self.voted_for = Some(m.candidate);
                self.persist_hard_state();
                self.election_deadline = now + jitter(&mut self.rng, self.cfg.timeouts);
            }
        }
        out.push(Output::Send {
            to: m.candidate,
            msg: Message::RequestVoteResp(RequestVoteRespMsg {
                term: self.term,
                from: self.id,
                granted,
            }),
        });
    }

    fn on_vote_resp(&mut self, m: RequestVoteRespMsg, now: Time, out: &mut Vec<Output>) {
        if self.role != Role::Candidate || m.term != self.term || !m.granted {
            return;
        }
        self.votes |= self.bit_of(m.from);
        if self.votes.count_ones() >= self.quorum() {
            self.become_leader(now, out);
        }
    }

    fn become_leader(&mut self, now: Time, out: &mut Vec<Output>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.emit(ProbeEvent::Elected { term: self.term });
        self.vote_list = VoteList::new(self.quorum());
        self.progress = vec![Progress::new(); self.membership.len()];
        self.next_heartbeat = now; // heartbeat immediately
        out.push(Output::ElectedLeader { term: self.term });
        // Term-start no-op: commits all prior entries once replicated.
        self.propose(None, Payload::Noop, out);
        self.send_heartbeats(now, out);
        // Resume the apply cursor: a follower stalls at committed fragment
        // entries; as leader we reconstruct them (pull shards) and apply.
        self.emit_applies(out);
    }

    fn step_down(&mut self, new_term: Term, leader: Option<NodeId>, out: &mut Vec<Output>) {
        let was_leader = self.role == Role::Leader;
        if was_leader {
            // Figure 11: reply LEADER_CHANGED to every client with an open
            // tuple and clean the VoteList.
            for origin in self.vote_list.clear().into_iter().flatten() {
                out.push(Output::Respond {
                    client: origin.client,
                    resp: ClientResponse::LeaderChanged { term: new_term },
                });
            }
            self.emit(ProbeEvent::SteppedDown { term: new_term });
        }
        if new_term > self.term {
            self.term = new_term;
            self.voted_for = None;
            self.persist_hard_state();
            // The new term's leader may disagree with anything above our
            // commit point; matches must be re-verified against it.
            self.matched_to = self.commit_index;
        }
        self.role = Role::Follower;
        if leader.is_some() {
            self.leader_hint = leader;
        }
        if was_leader {
            // Rebuild follower machinery over the current log tail.
            self.window = SlidingWindow::new(self.cfg.window, self.log.last_index());
            self.parked.clear();
            self.arrivals.clear();
            // A read whose gate has not committed proved nothing.
            let commit = self.commit_index;
            self.reads.retain(|r| r.gate <= commit);
        }
    }

    // ------------------------------------------------------------ proposing

    /// Effective commit threshold for an entry proposed now, given the
    /// replication mode and peer liveness (ECRaft degrades adaptively).
    fn effective_threshold(&self) -> u32 {
        let n = self.membership.len();
        let quorum = self.quorum();
        match self.cfg.protocol.replication() {
            ReplicationMode::Full | ReplicationMode::Relay => quorum,
            ReplicationMode::Fragmented { adaptive } => {
                if n <= 2 {
                    return quorum; // cannot fragment with one follower
                }
                let alive = self.alive_count();
                let dead = n - alive;
                if dead == 0 {
                    self.cfg.commit_threshold(n) as u32
                } else if adaptive {
                    // ECRaft: re-encoded over the living set; every living
                    // member must hold a shard.
                    (alive as u32).max(quorum)
                } else {
                    // CRaft fallback: full copies, plain majority.
                    quorum
                }
            }
        }
    }

    fn alive_count(&self) -> usize {
        if self.role != Role::Leader {
            return self.membership.len();
        }
        self.progress
            .iter()
            .enumerate()
            .filter(|&(i, p)| self.membership[i] == self.id || p.alive())
            .count()
    }

    fn propose(&mut self, origin: Option<Origin>, payload: Payload, out: &mut Vec<Output>) {
        debug_assert_eq!(self.role, Role::Leader);
        let index = self.log.last_index().next();
        let prev_term = self.log.last_term();
        let entry = Entry { index, term: self.term, prev_term, origin, payload };
        self.log.append(entry.clone()).expect("leader append is contiguous"); // check:allow(L1): index chosen as last+1; failure = storage fault, crash-stop
        self.stats.appends += 1;
        if let Some(o) = origin {
            // The op → index join point for cross-node span assembly.
            self.emit(ProbeEvent::Proposed { index, client: o.client, request: o.request });
        }
        self.emit(ProbeEvent::Appended { index });
        let threshold = self.effective_threshold();
        let self_bit = self.bit_of(self.id);
        self.vote_list.track(index, self.term, origin, self_bit, threshold);
        self.emit(ProbeEvent::VoteTracked { index, threshold });
        self.replicate_entry(&entry, out);
        // A one-node group commits on the leader's own vote (bit 0 =
        // evaluate only). In a larger group that vote can commit nothing,
        // and every other tuple was evaluated when its votes arrived.
        if threshold <= 1 {
            let outcome = self.vote_list.strong_accept(index, 0, self.term);
            self.process_vote_outcome(outcome, out);
        }
    }

    /// Send one freshly indexed entry to followers according to the
    /// replication mode.
    fn replicate_entry(&mut self, entry: &Entry, out: &mut Vec<Output>) {
        match self.cfg.protocol.replication() {
            ReplicationMode::Full => self.replicate_full(entry, out),
            ReplicationMode::Relay => self.replicate_relay(entry, out),
            ReplicationMode::Fragmented { adaptive } => {
                self.replicate_fragmented(entry, adaptive, out)
            }
        }
    }

    fn append_msg(
        &self,
        entries: Vec<Entry>,
        verification: Option<Verification>,
        relay_to: Vec<NodeId>,
    ) -> Message {
        debug_assert!(!entries.is_empty());
        Message::AppendEntry(AppendEntryMsg {
            term: self.term,
            leader: self.id,
            entries,
            leader_commit: self.commit_index,
            verification,
            relay_to,
        })
    }

    fn replicate_full(&mut self, entry: &Entry, out: &mut Vec<Output>) {
        let verification = self.make_verification(entry);
        for peer in self.peers().collect::<Vec<_>>() {
            out.push(Output::Send {
                to: peer,
                msg: self.append_msg(vec![entry.clone()], verification.clone(), Vec::new()),
            });
        }
    }

    /// KRaft: direct sends to the bucket; bucket nodes relay onward.
    fn replicate_relay(&mut self, entry: &Entry, out: &mut Vec<Output>) {
        let peers: Vec<NodeId> = self.peers().collect();
        let bucket = self.cfg.kraft_bucket(&peers);
        if bucket.is_empty() || bucket.len() >= peers.len() {
            return self.replicate_full(entry, out);
        }
        let rest: Vec<NodeId> = peers.iter().copied().filter(|n| !bucket.contains(n)).collect();
        for (i, &b) in bucket.iter().enumerate() {
            // Round-robin the non-bucket targets across bucket members.
            let targets: Vec<NodeId> = rest
                .iter()
                .enumerate()
                .filter(|&(j, _)| j % bucket.len() == i)
                .map(|(_, &n)| n)
                .collect();
            out.push(Output::Send {
                to: b,
                msg: self.append_msg(vec![entry.clone()], None, targets),
            });
        }
    }

    fn replicate_fragmented(&mut self, entry: &Entry, adaptive: bool, out: &mut Vec<Output>) {
        let n = self.membership.len();
        let payload = match &entry.payload {
            Payload::Data(b) if n > 2 => b.clone(),
            // No-ops, tiny groups and pre-fragmented entries replicate in
            // full.
            Payload::Data(_) | Payload::Noop | Payload::Fragment(_) => {
                return self.replicate_full(entry, out)
            }
        };
        let alive: Vec<NodeId> = self
            .membership
            .iter()
            .enumerate()
            .filter(|&(i, &m)| m == self.id || self.progress[i].alive())
            .map(|(_, &m)| m)
            .collect();
        let dead = n - alive.len();

        let (k, group): (usize, Vec<NodeId>) = if dead == 0 {
            (ProtocolConfig::fragment_k(n), self.membership.clone())
        } else if adaptive && alive.len() > 2 {
            // ECRaft degraded coding over the living members.
            (ProtocolConfig::fragment_k(n).min(alive.len() - 1).max(2), alive.clone())
        } else {
            // CRaft fallback: full copies.
            return self.replicate_full(entry, out);
        };

        self.stats.fragments_encoded += 1;
        let frags = encode_fragments(&payload, k, group.len());
        for (pos, &member) in group.iter().enumerate() {
            if member == self.id {
                continue; // leader keeps the full payload in its log
            }
            let frag_entry = Entry {
                index: entry.index,
                term: entry.term,
                prev_term: entry.prev_term,
                origin: entry.origin,
                payload: Payload::Fragment(frags[pos].clone()),
            };
            out.push(Output::Send {
                to: member,
                msg: self.append_msg(vec![frag_entry], None, Vec::new()),
            });
        }
        // Dead members of the original membership get nothing until they
        // revive and catch up via heartbeat repair.
    }

    fn make_verification(&mut self, entry: &Entry) -> Option<Verification> {
        if !self.cfg.protocol.verifies() {
            return None;
        }
        let digest = verification_digest(entry);
        let signature =
            Keypair::derive(CLUSTER_SECRET, self.position_of(self.id) as u32).sign(&digest);
        let peers: Vec<NodeId> = self.peers().collect();
        let gsize = VERIFY_GROUP_SIZE.min(peers.len());
        let group =
            (0..gsize).map(|i| peers[((entry.index.0 as usize) + i) % peers.len()]).collect();
        Some(Verification { digest, signature: signature.0, group })
    }

    // ------------------------------------------------------- follower: append

    fn on_append_entry(&mut self, m: AppendEntryMsg, now: Time, out: &mut Vec<Output>) {
        if m.term < self.term {
            // Old leader (Figure 11): report our position at our newer term.
            out.push(Output::Send {
                to: m.leader,
                msg: Message::AppendResp(AppendRespMsg {
                    term: self.term,
                    from: self.id,
                    state: AcceptState::Strong {
                        last_index: self.log.last_index(),
                        last_term: self.log.last_term(),
                    },
                }),
            });
            return;
        }
        // Current-term append: recognize leadership.
        if self.role == Role::Candidate {
            self.role = Role::Follower;
        }
        self.leader_hint = Some(m.leader);
        // NOTE (paper Figure 13): the follower timeout is reset by *progress*
        // (an actual append) — see accept_entry — not by the mere reception
        // of a blocked out-of-order entry. "Node2 starts the follower
        // timeout as soon as the old leader fails. During the timeout, Node2
        // receives E2. It is blocked because E1 does not arrive. When the
        // timeout ends, an election starts." Heartbeats always reset.

        // VGRaft: verify when we are in the verification group. Verified
        // messages carry exactly one entry (the decoder enforces this for
        // remote peers; in-process producers never batch them).
        if let Some(v) = &m.verification {
            let [entry] = &m.entries[..] else {
                return; // protocol violation: drop
            };
            if self.cfg.protocol.verifies() && v.group.contains(&self.id) {
                self.stats.verifications += 1;
                let digest = verification_digest(entry);
                let leader = Keypair::derive(CLUSTER_SECRET, self.position_of(m.leader) as u32);
                let ok = digest == v.digest && leader.verify(&digest, &Signature(v.signature));
                if !ok {
                    return; // Byzantine-suspect entry: drop silently
                }
            }
        }

        // KRaft relay duty: forward the whole batch onward.
        if !m.relay_to.is_empty() {
            let targets = m.relay_to.clone();
            let mut fwd = m.clone();
            fwd.relay_to = Vec::new();
            for t in targets {
                out.push(Output::Send { to: t, msg: Message::AppendEntry(fwd.clone()) });
            }
        }

        let leader = m.leader;
        let before = self.log.last_index();
        // Accept the run entry-by-entry: a batch is *defined* as equivalent
        // to its entries arriving back-to-back, so window and VoteList
        // semantics carry over unchanged from the single-entry protocol.
        for entry in m.entries {
            self.emit(ProbeEvent::EntryReceived { index: entry.index, term: entry.term });
            self.accept_entry(entry, leader, now, out);
        }
        if self.log.last_index() != before {
            // Progress: the leader is alive and feeding us appendable data.
            self.election_deadline = now + jitter(&mut self.rng, self.cfg.timeouts);
        }
        if self.probe.enabled() {
            self.emit(ProbeEvent::WindowOccupancy {
                occupied: self.window.occupied() as u32,
                parked: self.parked.len() as u32,
            });
        }
        self.advance_commit(m.leader_commit, out);
    }

    /// Core follower acceptance logic (Section III-A).
    fn accept_entry(&mut self, entry: Entry, leader: NodeId, now: Time, out: &mut Vec<Output>) {
        let last = self.log.last_index();
        let diff = entry.index.diff(last);

        if diff <= 0 {
            self.accept_existing_range(entry, leader, out);
        } else {
            self.accept_ahead(entry, leader, now, out);
        }
        // Anything we just appended may unblock parked entries.
        self.drain_parked(leader, now, out);
    }

    /// `diff <= 0`: the entry's index is already covered by our log
    /// (Section III-A1 — replace/truncate path).
    fn accept_existing_range(&mut self, entry: Entry, leader: NodeId, out: &mut Vec<Output>) {
        if self.log.term_of(entry.index) == Some(entry.term) {
            // Duplicate of an entry we already hold: cumulative ack. Equal
            // terms at equal index imply identical prefixes (Log Matching),
            // so the match watermark advances to here.
            self.matched_to = self.matched_to.max(entry.index);
            self.respond_strong(leader, out);
            return;
        }
        if entry.index <= self.commit_index {
            // Conflicting rewrite below the commit point can only come from
            // a confused or Byzantine peer; never truncate committed data.
            self.respond_strong(leader, out);
            return;
        }
        let prev_idx = entry.index.prev();
        if self.log.term_of(prev_idx) == Some(entry.prev_term) {
            // Replace: truncate the conflicting suffix, append, and move the
            // window leftwards (Figure 7).
            let min_term = entry.term;
            let index = entry.index;
            self.log.truncate_from(entry.index).expect("truncate above commit"); // check:allow(L1): storage fault is unrecoverable, crash-stop
            self.log.append(entry).expect("contiguous after truncate"); // check:allow(L1): storage fault is unrecoverable, crash-stop
            self.stats.appends += 1;
            self.emit(ProbeEvent::Appended { index });
            self.window.shift_to(self.log.last_index(), min_term);
            self.frags.truncate_from(index);
            // The log now ends exactly at the replacing entry and matches
            // the leader through it; anything previously verified above was
            // just truncated away.
            self.matched_to = index;
            self.respond_strong(leader, out);
        } else {
            // Previous entry mismatch: ask for earlier entries.
            self.respond_mismatch(
                leader,
                entry.index,
                prev_idx.max(self.log.first_index().prev()),
                out,
            );
        }
    }

    /// `diff >= 1`: the entry extends our log — in order (`diff == 1`),
    /// into the window, or beyond it.
    fn accept_ahead(&mut self, entry: Entry, leader: NodeId, now: Time, out: &mut Vec<Output>) {
        let (index, term) = (entry.index, entry.term);
        let Some(entry) = self.absorb(entry, None, leader, now, out) else {
            return;
        };
        // Blocked (Section III-A3): park silently and wait — this is the Raft
        // waiting loop; the entry is acknowledged only once appendable.
        if self.parked.len() >= MAX_PARKED {
            self.respond_mismatch(leader, index, self.log.last_index().next(), out);
            return;
        }
        self.stats.parked += 1;
        self.emit(ProbeEvent::Parked { index });
        match self.parked.get(&index) {
            Some((existing, _)) if existing.term >= term => {}
            Some(_) | None => {
                self.parked.insert(index, (entry, now));
            }
        }
    }

    /// Offer an entry that extends the log to the window and act on every
    /// outcome the window settles by itself: flush a completed run into the
    /// log (strong accept), cache the entry (weak accept), or report a
    /// previous-entry mismatch. `parked_at` is when the entry arrived if it
    /// has been waiting in `parked` since, `None` if it arrives now. An entry
    /// beyond the window comes back, for the caller to park or keep parked.
    fn absorb(
        &mut self,
        entry: Entry,
        parked_at: Option<Time>,
        leader: NodeId,
        now: Time,
        out: &mut Vec<Output>,
    ) -> Option<Entry> {
        let (index, term) = (entry.index, entry.term);
        match self.window.offer(entry, self.log.last_term()) {
            WindowOutcome::Flush(run) => {
                self.stats.window_flushes += 1;
                if let Some(f) = run.first() {
                    self.emit(ProbeEvent::WindowFlushed {
                        index: f.index,
                        run_len: run.len() as u32,
                    });
                }
                for e in run {
                    // t_wait accounting: cached and parked entries waited
                    // since arrival; one that arrives in order did not wait.
                    if let Some(arrived) = self.arrivals.remove(&e.index).or(parked_at) {
                        self.stats.park_wait_ns += now.since(arrived).as_nanos();
                        self.stats.park_waits += 1;
                    }
                    let e_index = e.index;
                    self.log.append(e).expect("window flush is contiguous"); // check:allow(L1): flush run is contiguous by construction; else storage fault, crash-stop
                    self.stats.appends += 1;
                    self.emit(ProbeEvent::Appended { index: e_index });
                }
                // A flush run is prev-term-chained onto our old tail, so the
                // whole log now verifiably matches the leader's.
                self.matched_to = self.log.last_index();
                self.respond_strong(leader, out);
            }
            WindowOutcome::Cached => {
                self.arrivals.insert(index, parked_at.unwrap_or(now));
                self.stats.weak_accepts += 1;
                self.emit(ProbeEvent::WindowCached { index });
                self.emit(ProbeEvent::WeakAccepted { index });
                out.push(Output::Send {
                    to: leader,
                    msg: Message::AppendResp(AppendRespMsg {
                        term: self.term,
                        from: self.id,
                        state: AcceptState::Weak { index, term },
                    }),
                });
                if parked_at.is_none() {
                    self.hint_gap(index, leader, now, out);
                }
            }
            WindowOutcome::Mismatch => {
                // diff == 1 but the previous-entry check failed: our last
                // entry conflicts with the leader's log.
                self.respond_mismatch(leader, index, self.log.last_index(), out);
            }
            WindowOutcome::Beyond(entry) => return Some(entry),
        }
        None
    }

    /// A freshly cached entry at `index` proves everything from our log tip
    /// up to it is missing, and the strong-accept watermark is frozen until
    /// the gap fills. Ask the leader for the repair as soon as the gap is
    /// known to be a loss rather than reorder, instead of letting its stall
    /// detector notice whole heartbeat rounds later; see [`GapHint`] for
    /// when that is on each kind of link.
    fn hint_gap(&mut self, index: LogIndex, leader: NodeId, now: Time, out: &mut Vec<Output>) {
        let missing = self.log.last_index().next();
        let hint = match self.gap_hint {
            Some(h) if h.start == missing => h,
            Some(_) | None => GapHint { start: missing, since: now, sent: false },
        };
        let heartbeat = self.cfg.timeouts.heartbeat_interval.as_nanos();
        let waited = (now - hint.since).as_nanos();
        let due = match (self.cfg.in_order, hint.sent) {
            (true, false) => true,
            (true, true) => waited >= heartbeat / 2,
            (false, sent) => !sent && waited >= heartbeat / 4,
        };
        if !due {
            self.gap_hint = Some(hint);
            return;
        }
        let since = if self.cfg.in_order { now } else { hint.since };
        self.gap_hint = Some(GapHint { since, sent: true, ..hint });
        self.stats.gap_hints += 1;
        self.respond_mismatch(leader, index, missing, out);
    }

    fn respond_strong(&mut self, leader: NodeId, out: &mut Vec<Output>) {
        // The log advanced, so any hinted gap start is stale.
        self.gap_hint = None;
        self.stats.strong_accepts += 1;
        self.emit(ProbeEvent::StrongAccepted { last_index: self.log.last_index() });
        out.push(Output::Send {
            to: leader,
            msg: Message::AppendResp(AppendRespMsg {
                term: self.term,
                from: self.id,
                state: AcceptState::Strong {
                    last_index: self.log.last_index(),
                    last_term: self.log.last_term(),
                },
            }),
        });
    }

    fn respond_mismatch(
        &mut self,
        leader: NodeId,
        index: LogIndex,
        resend_from: LogIndex,
        out: &mut Vec<Output>,
    ) {
        self.stats.mismatches += 1;
        out.push(Output::Send {
            to: leader,
            msg: Message::AppendResp(AppendRespMsg {
                term: self.term,
                from: self.id,
                state: AcceptState::Mismatch { index, resend_from },
            }),
        });
    }

    /// Retry parked entries that now fit the window / the log.
    fn drain_parked(&mut self, leader: NodeId, now: Time, out: &mut Vec<Output>) {
        loop {
            let Some((&index, _)) = self.parked.first_key_value() else {
                return;
            };
            let last = self.log.last_index();
            let diff = index.diff(last);
            if diff <= 0 {
                // Superseded by appended entries; drop (a duplicate ack was
                // already sent when the covering entry was appended).
                self.parked.remove(&index);
                continue;
            }
            // Fits in the window (or is the next in-order entry)?
            let fits = diff == 1 || (diff - 1) < self.cfg.window as i64;
            if !fits {
                return;
            }
            let Some((entry, arrived)) = self.parked.remove(&index) else {
                return;
            };
            if let Some(entry) = self.absorb(entry, Some(arrived), leader, now, out) {
                // Still beyond (shouldn't happen given the fit check).
                self.parked.insert(index, (entry, arrived));
                return;
            }
        }
    }

    /// Advance the follower commit index per the leader's commit point.
    ///
    /// This is Raft's `min(leaderCommit, index of last NEW entry)` rule
    /// generalized for out-of-order acceptance: the cap is the verified
    /// match watermark, not the raw local log length. Capping at
    /// `last_index` alone would let a deposed leader commit its own stale
    /// uncommitted suffix as soon as the new leader's commit index passes
    /// it, before repair rewrites those entries.
    fn advance_commit(&mut self, leader_commit: LogIndex, out: &mut Vec<Output>) {
        let target = leader_commit.min(self.matched_to.max(self.commit_index));
        if target > self.commit_index {
            if self.probe.enabled() {
                let mut i = self.commit_index.next();
                while i <= target {
                    self.emit(ProbeEvent::Committed { index: i });
                    i = i.next();
                }
            }
            self.commit_index = target;
            self.emit_applies(out);
        }
    }

    // ------------------------------------------------------- leader: responses

    fn on_append_resp(&mut self, m: AppendRespMsg, out: &mut Vec<Output>) {
        if self.role != Role::Leader || m.term != self.term {
            return; // stale response (higher terms already handled globally)
        }
        let pos = self.position_of(m.from);
        self.progress[pos].silent_rounds = 0;
        match m.state {
            AcceptState::Weak { index, term } => {
                let outcome = self.vote_list.weak_accept(index, term, self.bit_of(m.from));
                self.process_vote_outcome(outcome, out);
            }
            AcceptState::Strong { last_index, last_term } => {
                // Figure 11: a strong accept naming a higher term means a new
                // leader exists; handled by the global term check. A strong
                // accept for a last entry that does not match our log means
                // the follower diverged — repair instead of counting.
                if self.log.term_of(last_index) == Some(last_term) {
                    self.on_matched(m.from, last_index, out);
                } else {
                    self.repair_follower(m.from, last_index, self.log.last_index(), out);
                }
            }
            AcceptState::Mismatch { index, resend_from } => {
                self.repair_follower(m.from, resend_from, index, out);
            }
        }
    }

    /// `follower`'s log matches ours through `index` (a matched Strong
    /// accept, heartbeat reply or snapshot ack): count a cumulative strong
    /// accept and pace the open repair range. A report that reaches the last
    /// index the range shipped ships the next batch while `index` trails the
    /// range's end (one batch in flight, self-clocked at the follower's round
    /// trip, each entry sent once); a report at or past the end closes the
    /// range.
    fn on_matched(&mut self, follower: NodeId, index: LogIndex, out: &mut Vec<Output>) {
        let pos = self.position_of(follower);
        let p = &mut self.progress[pos];
        p.match_index = p.match_index.max(index);
        let (repair_to, next) = (p.repair_to, index >= p.repair_sent);
        if index >= repair_to {
            (p.repair_to, p.repair_sent) = (LogIndex::ZERO, LogIndex::ZERO);
        }
        let outcome = self.vote_list.strong_accept(index, self.bit_of(follower), self.term);
        self.process_vote_outcome(outcome, out);
        if next && index < repair_to {
            self.repair_follower(follower, index.next(), repair_to, out);
        }
    }

    fn process_vote_outcome(&mut self, outcome: VoteOutcome, out: &mut Vec<Output>) {
        if self.probe.enabled() {
            for &(index, _, _) in &outcome.weak_ready {
                self.emit(ProbeEvent::WeakQuorum { index });
            }
            for &(index, _, _) in &outcome.committed {
                self.emit(ProbeEvent::Committed { index });
            }
        }
        // Weak majorities: early return to clients (Figure 10) — only
        // meaningful for the non-blocking variants.
        if self.cfg.window > 0 {
            for (index, term, origin) in &outcome.weak_ready {
                if let Some(origin) = origin {
                    out.push(Output::Respond {
                        client: origin.client,
                        resp: ClientResponse::Weak {
                            request: origin.request,
                            index: *index,
                            term: *term,
                        },
                    });
                }
            }
        }
        // Commits: advance, apply, answer clients with the last committed
        // coordinates (Section III-B3b).
        if let Some(&(last_idx, last_term, _)) = outcome.committed.last() {
            self.commit_index = self.commit_index.max(last_idx);
            self.stats.committed += outcome.committed.len() as u64;
            for (_, _, origin) in &outcome.committed {
                if let Some(origin) = origin {
                    out.push(Output::Respond {
                        client: origin.client,
                        resp: ClientResponse::Strong {
                            request: origin.request,
                            index: last_idx,
                            term: last_term,
                        },
                    });
                }
            }
            self.emit_applies(out);
        }
    }

    /// Open (or widen) `follower`'s repair range to `to` and ship its next
    /// batch, from `from_index` up to at most `to` — or the snapshot, when
    /// `from_index` is behind the compaction horizon, with the range
    /// widened to our log tail. Either way the range's cursor moves to the
    /// last index shipped.
    fn repair_follower(
        &mut self,
        follower: NodeId,
        from_index: LogIndex,
        to: LogIndex,
        out: &mut Vec<Output>,
    ) {
        let tail = self.log.last_index();
        let pos = self.position_of(follower);
        // Behind the compaction horizon: ship the snapshot instead.
        if from_index < self.log.first_index() {
            if let Some((last_index, last_term, data)) = self.log.snapshot() {
                self.progress[pos].repair_to = tail;
                self.progress[pos].repair_sent = last_index;
                out.push(Output::Send {
                    to: follower,
                    msg: Message::InstallSnapshot(InstallSnapshotMsg {
                        term: self.term,
                        leader: self.id,
                        last_index,
                        last_term,
                        leader_commit: self.commit_index,
                        data,
                    }),
                });
                return;
            }
        }
        let end = to.min(tail);
        let start = from_index.max(self.log.first_index());
        if start > end {
            return;
        }
        self.progress[pos].repair_to = self.progress[pos].repair_to.max(end);
        let mut sent = 0usize;
        let mut idx = start;
        // Collect per-entry messages, then coalesce contiguous unverified
        // runs into batched frames — catch-up is where batching pays most,
        // since the whole suffix is ready to ship at once.
        let mut repairs: Vec<Output> = Vec::new();
        while idx <= end && sent < CATCHUP_BATCH {
            if let Some(entry) = self.log.get(idx) {
                let Some(msg) = self.repair_message_for(follower, entry) else { break };
                repairs.push(Output::Send { to: follower, msg });
                sent += 1;
            }
            idx = idx.next();
        }
        self.progress[pos].repair_sent = idx.prev();
        crate::event::coalesce_appends(&mut repairs, MAX_APPEND_BATCH);
        out.append(&mut repairs);
        if idx <= end && sent < CATCHUP_BATCH {
            // Stopped at a fragment entry we cannot materialize yet: pull
            // shards first, repair resumes when they arrive.
            self.request_fragments(idx, out);
        }
    }

    /// Build the repair AppendEntry for one log entry, honouring the
    /// replication mode. Returns `None` when a fragment entry's payload is
    /// not yet reconstructable.
    fn repair_message_for(&mut self, follower: NodeId, entry: Entry) -> Option<Message> {
        let n = self.membership.len();
        let fragmented =
            matches!(self.cfg.protocol.replication(), ReplicationMode::Fragmented { .. }) && n > 2;
        let payload_bytes: Option<Bytes> = match &entry.payload {
            Payload::Data(b) => Some(b.clone()),
            Payload::Noop => None,
            Payload::Fragment(_) => Some(self.frags.payload(entry.index)?.clone()),
        };
        let send_entry = match (&entry.payload, fragmented, payload_bytes) {
            (Payload::Noop, _, _) => entry,
            (_, false, Some(b)) => Entry { payload: Payload::Data(b), ..entry },
            (_, true, Some(b)) => {
                let k = ProtocolConfig::fragment_k(n);
                self.stats.fragments_encoded += 1;
                let frags = encode_fragments(&b, k, n);
                let pos = self.position_of(follower);
                Entry { payload: Payload::Fragment(frags[pos].clone()), ..entry }
            }
            (_, _, None) => entry,
        };
        let verification = self.make_verification(&send_entry);
        Some(self.append_msg(vec![send_entry], verification, Vec::new()))
    }

    // ------------------------------------------------------- heartbeats

    fn send_heartbeats(&mut self, now: Time, out: &mut Vec<Output>) {
        self.next_heartbeat = now + self.cfg.timeouts.heartbeat_interval;
        let msg = Message::Heartbeat(HeartbeatMsg {
            term: self.term,
            leader: self.id,
            last_index: self.log.last_index(),
            last_term: self.log.last_term(),
            leader_commit: self.commit_index,
        });
        for peer in self.peers().collect::<Vec<_>>() {
            let pos = self.position_of(peer);
            self.progress[pos].silent_rounds = self.progress[pos].silent_rounds.saturating_add(1);
            out.push(Output::Send { to: peer, msg: msg.clone() });
        }
        self.maybe_degrade_replication(out);
    }

    /// CRaft fallback / ECRaft degradation: when a replica is declared dead,
    /// entries waiting for `k + F` fragment acks can never commit. Lower the
    /// thresholds of open tuples to the now-effective value and re-replicate
    /// them in the degraded mode (full copies for CRaft, re-coded shards for
    /// ECRaft).
    fn maybe_degrade_replication(&mut self, out: &mut Vec<Output>) {
        if !matches!(self.cfg.protocol.replication(), ReplicationMode::Fragmented { .. }) {
            return;
        }
        // A peer is newly dead in the round that raises its silence to
        // `DEAD_ROUNDS` (`send_heartbeats` has just counted this one).
        if self.progress.iter().any(|p| p.silent_rounds == DEAD_ROUNDS) {
            let threshold = self.effective_threshold();
            let outcome = self.vote_list.lower_thresholds(threshold, self.term);
            self.process_vote_outcome(outcome, out);
            for idx in self.vote_list.open_indices() {
                if let Some(entry) = self.log.get(idx) {
                    self.replicate_entry(&entry, out);
                }
            }
        }
    }

    fn on_heartbeat(&mut self, m: HeartbeatMsg, now: Time, out: &mut Vec<Output>) {
        if m.term < self.term {
            out.push(Output::Send {
                to: m.leader,
                msg: Message::HeartbeatResp(HeartbeatRespMsg {
                    term: self.term,
                    from: self.id,
                    last_index: self.log.last_index(),
                    last_term: self.log.last_term(),
                }),
            });
            return;
        }
        if self.role == Role::Candidate {
            self.role = Role::Follower;
        }
        self.leader_hint = Some(m.leader);
        self.election_deadline = now + jitter(&mut self.rng, self.cfg.timeouts);
        self.advance_commit(m.leader_commit, out);
        out.push(Output::Send {
            to: m.leader,
            msg: Message::HeartbeatResp(HeartbeatRespMsg {
                term: self.term,
                from: self.id,
                last_index: self.log.last_index(),
                last_term: self.log.last_term(),
            }),
        });
    }

    fn on_heartbeat_resp(&mut self, m: HeartbeatRespMsg, out: &mut Vec<Output>) {
        if self.role != Role::Leader || m.term != self.term {
            return;
        }
        let pos = self.position_of(m.from);
        self.progress[pos].silent_rounds = 0;
        let tail = self.log.last_index();
        if self.log.term_of(m.last_index) != Some(m.last_term) {
            // Diverged tail (walk back one entry per round) or behind the
            // compaction horizon (repair_follower ships the snapshot).
            self.repair_follower(m.from, m.last_index, tail, out);
            return;
        }
        // Matching prefix: a cumulative strong accept (how old-term entries
        // gather votes after a leader change). Trailing the tail without
        // progress for `STALL_ROUNDS` rounds means something was lost, so
        // a repair range opens to the tail, from the follower's position.
        let p = &mut self.progress[pos];
        let lagging = m.last_index < tail && m.last_index <= p.last_seen;
        p.last_seen = m.last_index;
        p.stall_rounds = if lagging { (p.stall_rounds + 1) % STALL_ROUNDS } else { 0 };
        if lagging && p.stall_rounds == 0 {
            (p.repair_to, p.repair_sent) = (tail, m.last_index);
        }
        self.on_matched(m.from, m.last_index, out);
    }

    // ------------------------------------------------------- fragments (CRaft)

    fn request_fragments(&mut self, index: LogIndex, out: &mut Vec<Output>) {
        if !self.frags.start_pull(index) {
            return; // already requested
        }
        let msg = Message::PullFragments(PullFragmentsMsg {
            term: self.term,
            from: self.id,
            from_index: index,
            to_index: self.log.last_index(),
        });
        for peer in self.peers().collect::<Vec<_>>() {
            out.push(Output::Send { to: peer, msg: msg.clone() });
        }
    }

    fn on_pull_fragments(&mut self, m: PullFragmentsMsg, out: &mut Vec<Output>) {
        let mut fragments = Vec::new();
        let mut idx = m.from_index.max(self.log.first_index());
        while idx <= m.to_index.min(self.log.last_index()) {
            if let Some(e) = self.log.get(idx) {
                match e.payload {
                    Payload::Fragment(f) => fragments.push((idx, e.term, f)),
                    Payload::Data(b) => {
                        // Full copy held (fallback-mode replication): a k=1
                        // pseudo-fragment delivers the payload directly.
                        let orig_len = b.len() as u32;
                        fragments.push((
                            idx,
                            e.term,
                            Fragment { shard: 0, k: 1, n: 1, orig_len, data: b },
                        ));
                    }
                    Payload::Noop => {}
                }
            }
            idx = idx.next();
        }
        if !fragments.is_empty() {
            out.push(Output::Send {
                to: m.from,
                msg: Message::PushFragments(PushFragmentsMsg {
                    term: self.term,
                    from: self.id,
                    fragments,
                }),
            });
        }
    }

    fn on_push_fragments(&mut self, m: PushFragmentsMsg, out: &mut Vec<Output>) {
        self.frags.absorb(m.fragments, &self.log);
        // Decoded payloads may unblock the apply cursor.
        self.emit_applies(out);
    }

    // ------------------------------------------------- linearizable reads

    /// Register a linearizable read for `client`. Emits
    /// [`Output::ReadReady`] once the local state machine has applied
    /// everything up to a read index that covers every entry committed when
    /// the read arrived. At the leader the read index is our last index `L`,
    /// and the read waits for a no-op proposed at `L + 1` to apply: that
    /// entry commits in our own term only if a quorum still followed us
    /// after the read arrived, and its commit commits everything at or
    /// below `L` (one no-op entry per read). A follower asks the leader for
    /// its read index and serves the read *locally* once it has applied that
    /// far (follower read, the capability CRaft forfeits — paper Table II).
    pub fn handle_read(
        &mut self,
        client: ClientId,
        request: RequestId,
        now: Time,
        out: &mut Vec<Output>,
    ) {
        self.probe_now = now;
        match self.role {
            Role::Leader => self.read_at_leader(ReadOrigin::Local { client, request }, out),
            Role::Follower | Role::Candidate => match self.leader_hint {
                Some(leader) if leader != self.id => {
                    self.next_probe += 1;
                    self.read_probes.insert(self.next_probe, (client, request));
                    out.push(Output::Send {
                        to: leader,
                        msg: Message::ReadIndexReq(ReadIndexReqMsg {
                            term: self.term,
                            from: self.id,
                            probe: self.next_probe,
                        }),
                    });
                }
                Some(_) | None => out.push(Output::Respond {
                    client,
                    resp: ClientResponse::NotLeader { request, hint: self.leader_hint },
                }),
            },
        }
    }

    /// Read index `L` = our last index; gate = the no-op proposed at `L + 1`.
    fn read_at_leader(&mut self, origin: ReadOrigin, out: &mut Vec<Output>) {
        let read_index = self.log.last_index();
        self.reads.push(Read { origin, gate: read_index.next(), read_index });
        self.propose(None, Payload::Noop, out);
    }

    fn on_read_index_req(&mut self, m: ReadIndexReqMsg, out: &mut Vec<Output>) {
        if self.role != Role::Leader || m.term != self.term {
            return; // the follower's harness-level timeout handles retry
        }
        self.read_at_leader(ReadOrigin::Remote { follower: m.from, probe: m.probe }, out);
    }

    fn on_read_index_resp(&mut self, m: ReadIndexRespMsg, out: &mut Vec<Output>) {
        if let Some((client, request)) = self.read_probes.remove(&m.probe) {
            let origin = ReadOrigin::Local { client, request };
            self.reads.push(Read { origin, gate: m.read_index, read_index: m.read_index });
            self.emit_applies(out);
        }
    }

    /// Serve every read whose gate the apply cursor has reached: a local
    /// client's is ready, a follower's probe gets its read index.
    fn flush_reads(&mut self, out: &mut Vec<Output>) {
        let (applied, term) = (self.applied_index, self.term);
        self.reads.retain(|r| {
            if r.gate > applied {
                return true;
            }
            out.push(match r.origin {
                ReadOrigin::Local { client, request } => {
                    Output::ReadReady { client, request, read_index: r.read_index }
                }
                ReadOrigin::Remote { follower, probe } => Output::Send {
                    to: follower,
                    msg: Message::ReadIndexResp(ReadIndexRespMsg {
                        term,
                        read_index: r.read_index,
                        probe,
                    }),
                },
            });
            false
        });
    }

    // ------------------------------------------------------- snapshots

    fn on_install_snapshot(&mut self, m: InstallSnapshotMsg, now: Time, out: &mut Vec<Output>) {
        if m.term < self.term {
            out.push(Output::Send {
                to: m.leader,
                msg: Message::InstallSnapshotResp(InstallSnapshotRespMsg {
                    term: self.term,
                    from: self.id,
                    last_index: self.log.last_index(),
                }),
            });
            return;
        }
        if self.role == Role::Candidate {
            self.role = Role::Follower;
        }
        self.leader_hint = Some(m.leader);
        self.election_deadline = now + jitter(&mut self.rng, self.cfg.timeouts);

        // Install only when the snapshot supersedes our log (standard Raft:
        // a snapshot covering a prefix we already hold consistently is a
        // retransmission — just ack our position).
        let covered = self.log.term_of(m.last_index) == Some(m.last_term);
        if !covered {
            self.log.reset(m.last_index, m.last_term, m.data.clone()).expect("log reset"); // check:allow(L1): storage fault is unrecoverable, crash-stop
            self.window = SlidingWindow::new(self.cfg.window, m.last_index);
            self.parked.clear();
            self.arrivals.clear();
            self.frags = FragmentStore::new();
            self.commit_index = m.last_index.max(self.commit_index).min(m.last_index);
            self.applied_index = m.last_index;
            out.push(Output::RestoreSnapshot {
                last_index: m.last_index,
                last_term: m.last_term,
                data: m.data,
            });
        } else if self.applied_index < m.last_index {
            // We hold the entries but have not applied them (e.g. a CRaft
            // follower stalled on fragments): the snapshot lets us jump.
            self.applied_index = m.last_index;
            self.commit_index = self.commit_index.max(m.last_index);
            out.push(Output::RestoreSnapshot {
                last_index: m.last_index,
                last_term: m.last_term,
                data: m.data,
            });
        }
        // Either the log was reset to the snapshot point (exact match) or
        // `covered` verified a term-equal entry at `m.last_index`.
        self.matched_to = self.matched_to.max(m.last_index).min(self.log.last_index());
        self.advance_commit(m.leader_commit, out);
        out.push(Output::Send {
            to: m.leader,
            msg: Message::InstallSnapshotResp(InstallSnapshotRespMsg {
                term: self.term,
                from: self.id,
                last_index: self.log.last_index(),
            }),
        });
    }

    fn on_install_snapshot_resp(&mut self, m: InstallSnapshotRespMsg, out: &mut Vec<Output>) {
        if self.role != Role::Leader || m.term != self.term {
            return;
        }
        let pos = self.position_of(m.from);
        self.progress[pos].silent_rounds = 0;
        self.on_matched(m.from, m.last_index, out);
    }

    // ------------------------------------------------------- apply

    /// Emit `Apply` outputs for newly committed entries, in order. The leader
    /// stalls on fragment entries until their payload is decoded;
    /// follower apply cursors *wait* at fragment entries — a follower cannot
    /// reconstruct on its own, which is exactly why CRaft forfeits follower
    /// reads (paper Table II). The cursor resumes (with reconstruction) if
    /// the node is later elected leader.
    fn emit_applies(&mut self, out: &mut Vec<Output>) {
        while self.applied_index < self.commit_index {
            let idx = self.applied_index.next();
            let Some(entry) = self.log.get(idx) else {
                break; // compacted or missing (harness installed snapshot)
            };
            let entry = match (&entry.payload, self.role) {
                (Payload::Fragment(_), Role::Leader) => match self.frags.payload(idx) {
                    Some(b) => Entry { payload: Payload::Data(b.clone()), ..entry },
                    None => {
                        self.request_fragments(idx, out);
                        break; // stall until shards arrive
                    }
                },
                (Payload::Fragment(_), Role::Follower | Role::Candidate) => break,
                (Payload::Noop | Payload::Data(_), _) => entry,
            };
            out.push(Output::Apply { entry });
            self.stats.applied += 1;
            self.emit(ProbeEvent::Applied { index: idx });
            self.applied_index = idx;
            self.frags.release_through(idx);
        }
        self.flush_reads(out);
    }
}

/// Randomized election timeout in `[election_min, election_max)`.
fn jitter(rng: &mut StdRng, t: TimeoutConfig) -> TimeDelta {
    let lo = t.election_min.as_nanos();
    let hi = t.election_max.as_nanos().max(lo + 1);
    TimeDelta(rng.random_range(lo..hi))
}

/// Digest of the fields VGRaft signs: index, term, prev_term, payload bytes.
fn verification_digest(entry: &Entry) -> [u8; 32] {
    let mut h = nbr_crypto::Sha256::new();
    h.update(&entry.index.0.to_le_bytes());
    h.update(&entry.term.0.to_le_bytes());
    h.update(&entry.prev_term.0.to_le_bytes());
    match &entry.payload {
        Payload::Noop => h.update(b"noop"),
        Payload::Data(b) => h.update(b),
        Payload::Fragment(f) => h.update(&f.data),
    }
    h.finalize()
}

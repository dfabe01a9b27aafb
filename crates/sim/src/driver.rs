//! The discrete-event simulation driver.
//!
//! Runs the *real* protocol engines (`nbr_core::Node`) and client state
//! machines (`nbr_core::RaftClient`) over modelled resources:
//!
//! * **NICs** — one FIFO serializer per machine at the configured bandwidth
//!   (all clients share one client machine, as in the paper's testbed);
//! * **dispatcher channels** — per (leader → follower) pair, `N_csm`
//!   parallel connections, each message's propagation latency independently
//!   jittered → out-of-order arrival, the paper's `t_wait(F)` source;
//! * **CPUs** — per replica, `cores` parallel servers with per-operation
//!   costs from [`CostModel`], scaled by the concurrency contention factor;
//! * a virtual clock with a deterministic event heap.
//!
//! Queueing is computed arithmetically at enqueue time (free-time vectors),
//! so the event count per request stays small and 1024-client runs are fast.

use crate::cost::{CostModel, GeoMatrix};
use nbr_core::{ClientAction, Node, NodeStats, NodeStatus, Output, RaftClient};
use nbr_metrics::Histogram;
use nbr_obs::{EngineProbe, ProbeEvent};
use nbr_storage::{DedupTable, LogStore, MemLog};
use nbr_types::*;
use nbr_workload::{RequestGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Protocol preset.
    pub protocol: Protocol,
    /// NB window size (used by the NB variants; paper default 10 000).
    pub window: usize,
    /// Replication group size.
    pub n_replicas: usize,
    /// Closed-loop client connections.
    pub n_clients: usize,
    /// Dispatcher connections per (leader, follower) pair.
    pub n_dispatchers: usize,
    /// Request payload bytes.
    pub payload: usize,
    /// Ramp-up time before measurement starts.
    pub warmup: TimeDelta,
    /// Measurement window length.
    pub duration: TimeDelta,
    /// Clients start staggered over this period (thread ramp-up).
    pub client_ramp: TimeDelta,
    /// Resource cost model.
    pub costs: CostModel,
    /// Optional geo-distribution latency matrix.
    pub geo: Option<GeoMatrix>,
    /// CPU slowdown factor (1.0 = Turbo on; >1 = slower, Figure 23).
    pub cpu_scale: f64,
    /// Election/heartbeat timing (Figure 19b varies election_min/max).
    pub timeouts: TimeoutConfig,
    /// Fault schedule: faults applied at their virtual instants, ties in
    /// vector order. Faults due at t = 0 land before the bootstrap
    /// campaign, so `crash N` at 0 is a replica dead from the start. The run
    /// lasts until the later of the window's end and the last fault.
    pub chaos: Vec<(Time, Fault)>,
    /// Seed for all randomness.
    pub seed: u64,
    /// Protocol tracing: `EngineProbe::Off` (default) or a shared buffer
    /// every replica emits into (`EngineProbe::shared()`), exported as
    /// JSONL for `nbraft-cli trace`.
    pub trace: EngineProbe,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            protocol: Protocol::Raft,
            window: 10_000,
            n_replicas: 3,
            n_clients: 64,
            n_dispatchers: 64,
            payload: 4096,
            warmup: TimeDelta::from_millis(500),
            duration: TimeDelta::from_secs(2),
            client_ramp: TimeDelta::from_millis(200),
            costs: CostModel::default(),
            geo: None,
            cpu_scale: 1.0,
            timeouts: TimeoutConfig::default(),
            chaos: Vec::new(),
            seed: 42,
            trace: EngineProbe::Off,
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// First-ack throughput in the measurement window, ops/s.
    pub throughput: f64,
    /// Mean first-ack latency, ms.
    pub latency_mean_ms: f64,
    /// Median latency, ms.
    pub latency_p50_ms: f64,
    /// Tail latency, ms.
    pub latency_p99_ms: f64,
    /// Requests issued over the whole run.
    pub issued: u64,
    /// Requests first-acked (weak or strong).
    pub acked: u64,
    /// Requests durably confirmed.
    pub confirmed: u64,
    /// Of the acked requests, how many were weak acks.
    pub weak_acked: u64,
    /// Mean `t_wait(F)` per appended entry, ms (paper's bottleneck metric).
    pub twait_mean_ms: f64,
    /// Distinct client requests in the final log of the live replica with
    /// the highest `(term, last index)` (0 when no replica is alive).
    pub survived: u64,
    /// Fraction of issued requests missing from that log.
    pub loss_fraction: f64,
    /// Leader elections observed.
    pub elections: u64,
    /// Each replica's status at the end of the run.
    pub final_status: Vec<NodeStatus>,
    /// Where what a client was told disagrees with what the replicas apply,
    /// one line each. Each live replica's committed prefix is run through
    /// the state machine's [`DedupTable`]; a request it applies twice is a
    /// violation, and so is any request at or below a live client's
    /// confirmed watermark that the live replica with the highest commit
    /// index applies other than once.
    pub exactly_once_violations: Vec<String>,
    /// FNV-1a hash over each live replica's `(index, term)` log prefix up to
    /// the minimum live commit index. Equal hashes mean identical committed
    /// prefixes — the chaos harness's log-convergence oracle.
    pub prefix_hash: Vec<Option<u64>>,
    /// Messages dropped by chaos link faults (cut + gray links).
    pub chaos_dropped: u64,
    /// Chaos crash-recoveries performed.
    pub recoveries: u64,
    /// Every [`NodeStats`] counter summed over the replicas alive at the end
    /// of the run, the leader included. `elections`, `messages` and `applied`
    /// are summed too; `stats.elections` counts elections started, where
    /// [`SimResult::elections`] counts leaders elected.
    pub stats: NodeStats,
}

/// Work processed on a replica's CPU.
enum WorkItem {
    Msg { from: NodeId, msg: Message },
    ClientReq(ClientRequest),
}

enum Ev {
    /// Arrival of work at a node. `txed` is when the sender's NIC finished
    /// serializing it: work whose sender crashes before then dies with the
    /// sender (`Simulator::lose_unsent`).
    Work {
        node: usize,
        item: WorkItem,
        txed: Time,
    },
    WorkDone {
        node: usize,
        item: WorkItem,
    },
    ClientRecv {
        client: usize,
        resp: ClientResponse,
    },
    ClientIssue {
        client: usize,
    },
    ClientTick {
        client: usize,
    },
    NodeTick {
        node: usize,
    },
    Chaos {
        fault: Fault,
    },
}

struct HeapEntry {
    at: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Free-time vector resource: `k` parallel servers, arithmetic queueing.
struct Servers {
    free: Vec<Time>,
}

impl Servers {
    fn new(k: usize) -> Servers {
        Servers { free: vec![Time::ZERO; k.max(1)] }
    }

    /// Schedule a job arriving at `ready` with service time `cost`; returns
    /// its completion time.
    fn schedule(&mut self, ready: Time, cost: TimeDelta) -> Time {
        let (i, _) =
            self.free.iter().enumerate().min_by_key(|&(_, t)| *t).expect("at least one server");
        let start = self.free[i].max(ready);
        let done = start + cost;
        self.free[i] = done;
        done
    }
}

/// A replica engine of this experiment over `log`: empty at the start, a
/// crashed node's durable image on recovery.
fn boot_node(cfg: &SimConfig, id: NodeId, log: MemLog, seed: u64) -> Node<MemLog> {
    let membership = (0..cfg.n_replicas as u32).map(NodeId).collect();
    let mut pcfg = cfg.protocol.config(cfg.window);
    pcfg.timeouts = cfg.timeouts;
    Node::with_probe(id, membership, pcfg, log, seed, cfg.trace.clone())
}

/// The simulator.
pub struct Simulator {
    cfg: SimConfig,
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    rng: StdRng,

    nodes: Vec<Option<Node<MemLog>>>,
    node_cpu: Vec<Servers>,
    node_nic: Vec<Servers>,
    client_nic: Servers,
    /// Dispatcher channels keyed by (from, to).
    channels: Vec<Vec<Servers>>,

    clients: Vec<Option<RaftClient>>,
    generators: Vec<RequestGenerator>,
    client_started: Vec<bool>,

    // measurement
    window_start: Time,
    window_end: Time,
    /// First-ack latencies inside the window; its count is the throughput.
    latency: Histogram,
    issued: u64,
    acked: u64,
    confirmed: u64,
    weak_acked: u64,
    elections: u64,
    /// Unanswered client requests per node (drives dynamic contention).
    resident: Vec<u64>,
    /// Which (node, client) pairs currently hold an unanswered request.
    held: std::collections::HashSet<(usize, u64)>,

    // fault state (empty/zero unless cfg.chaos is non-empty)
    /// Link cuts and gray links, per-node clock skew (added to every `now`
    /// an engine sees) and slow-disk penalty (added to append/proposal CPU
    /// costs).
    faults: FaultTable,
    /// Durable image of a crashed node, until it recovers.
    crashed_durable: Vec<Option<MemLog>>,
    chaos_dropped: u64,
    recoveries: u64,
}

impl Simulator {
    /// Build a simulator from a configuration.
    pub fn new(cfg: SimConfig) -> Simulator {
        let n = cfg.n_replicas;
        let membership: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let nodes = membership
            .iter()
            .map(|&id| Some(boot_node(&cfg, id, MemLog::new(), cfg.seed)))
            .collect();
        let wl = WorkloadConfig { request_size: cfg.payload, ..Default::default() };
        let clients: Vec<Option<RaftClient>> = (0..cfg.n_clients)
            .map(|c| {
                Some(RaftClient::new(
                    ClientId(c as u64),
                    membership.clone(),
                    NodeId(0),
                    TimeDelta::from_millis(1000),
                ))
            })
            .collect();
        let generators = (0..cfg.n_clients)
            .map(|c| RequestGenerator::new(wl.clone(), c as u64, cfg.n_clients as u64))
            .collect();
        let window_start = Time::ZERO + cfg.warmup;
        let window_end = window_start + cfg.duration;
        let channels =
            (0..n).map(|_| (0..n).map(|_| Servers::new(cfg.n_dispatchers)).collect()).collect();
        Simulator {
            now: Time::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xD1CE),
            node_cpu: (0..n).map(|_| Servers::new(cfg.costs.cores)).collect(),
            node_nic: (0..n).map(|_| Servers::new(1)).collect(),
            client_nic: Servers::new(1),
            channels,
            nodes,
            clients,
            generators,
            client_started: vec![false; cfg.n_clients],
            window_start,
            window_end,
            latency: Histogram::new(),
            issued: 0,
            acked: 0,
            confirmed: 0,
            weak_acked: 0,
            elections: 0,
            resident: vec![0; n],
            held: std::collections::HashSet::new(),
            faults: FaultTable::default(),
            crashed_durable: (0..n).map(|_| None).collect(),
            chaos_dropped: 0,
            recoveries: 0,
            cfg,
        }
    }

    /// The instant `node`'s engine believes it is (virtual now + skew).
    fn node_now(&self, node: usize) -> Time {
        self.now + self.faults.skew(node as u32)
    }

    fn push(&mut self, at: Time, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry { at, seq: self.seq, ev }));
    }

    /// Scheduling noise on a busy machine: Uniform(0, spread * scale) where
    /// the spread grows with the number of active threads (≈ client
    /// connections). `scale` weights the path: entry dispatch queues behind
    /// thousands of data messages (heaviest), while small control acks cut
    /// ahead (lightest).
    fn sched_noise(&mut self, scale: f64) -> TimeDelta {
        let spread =
            (self.cfg.costs.sched_spread(self.cfg.n_clients).as_nanos() as f64 * scale) as u64;
        if spread == 0 {
            TimeDelta::ZERO
        } else {
            TimeDelta(self.rng.random_range(0..spread))
        }
    }

    fn jittered(&mut self, base: TimeDelta) -> TimeDelta {
        let j = self.cfg.costs.jitter;
        if j <= 0.0 {
            return base;
        }
        let lo = (base.as_secs_f64() * (1.0 - j)).max(1e-9);
        let hi = base.as_secs_f64() * (1.0 + j);
        TimeDelta::from_secs_f64(self.rng.random_range(lo..hi.max(lo + 1e-12)))
    }

    fn link_latency(&mut self, from: usize, to: usize) -> TimeDelta {
        let base = match &self.cfg.geo {
            Some(g) => g.between(from, to),
            None => self.cfg.costs.latency,
        };
        self.jittered(base)
    }

    /// Latency from the client machine (co-located with region of node 0).
    fn client_link_latency(&mut self, node: usize) -> TimeDelta {
        let base = match &self.cfg.geo {
            Some(g) => g.between(0, node),
            None => self.cfg.costs.latency,
        };
        self.jittered(base)
    }

    fn cpu_cost_of(&self, item: &WorkItem, node: usize) -> TimeDelta {
        let c = &self.cfg.costs;
        let contention = c.contention(self.resident[node] as usize) * self.cfg.cpu_scale;
        let raw = match item {
            WorkItem::ClientReq(req) => {
                let mut t = c.t_prs + c.t_idx;
                if matches!(
                    self.cfg.protocol,
                    Protocol::CRaft | Protocol::NbCRaft | Protocol::EcRaft
                ) && self.cfg.n_replicas > 2
                {
                    t += c.rs_cost(req.payload.len());
                }
                if self.cfg.protocol == Protocol::VgRaft {
                    t += c.sha_cost(req.payload.len());
                }
                t
            }
            WorkItem::Msg { msg, .. } => match msg {
                Message::AppendEntry(m) => {
                    let mut t = c.msg_handle + c.t_append;
                    if m.verification.is_some() {
                        // Verified appends are always single-entry batches.
                        t += c.sha_cost(m.entries[0].payload.size_bytes());
                    }
                    t
                }
                Message::AppendResp(_) => c.msg_handle + c.t_commit,
                Message::PushFragments(m) => {
                    let bytes: usize = m.fragments.iter().map(|(_, _, f)| f.data.len()).sum();
                    c.msg_handle + c.rs_cost(bytes)
                }
                _ => c.msg_handle,
            },
        };
        // Chaos slow-disk: the persistence paths (appends and proposals)
        // stall for the injected penalty; pure control handling does not.
        let stall = match item {
            WorkItem::ClientReq(_) | WorkItem::Msg { msg: Message::AppendEntry(_), .. } => {
                self.faults.stall(node as u32)
            }
            WorkItem::Msg { .. } => TimeDelta::ZERO,
        };
        raw.scale(contention) + stall
    }

    /// Route one protocol-engine output.
    fn route_outputs(&mut self, from: usize, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Send { to, msg } => self.route_send(from, to.as_usize(), msg),
                Output::Respond { client, resp } => {
                    let cidx = client.as_usize();
                    // First response to this client's outstanding request
                    // frees its server-side context (residence ends).
                    if self.held.remove(&(from, client.0)) {
                        self.resident[from] = self.resident[from].saturating_sub(1);
                    }
                    if self.clients.get(cidx).is_some_and(|c| c.is_some()) {
                        // Leader NIC + link back to the client machine.
                        let size = 256; // responses are small and fixed
                        let t1 =
                            self.node_nic[from].schedule(self.now, self.cfg.costs.tx_time(size));
                        let lat = self.client_link_latency(from) + self.sched_noise(1.0);
                        self.push(t1 + lat, Ev::ClientRecv { client: cidx, resp });
                    }
                }
                Output::Apply { entry } => {
                    // Charge apply CPU occupancy (no completion action).
                    let cost = self.cfg.costs.t_apply.scale(
                        self.cfg.costs.contention(self.resident[from] as usize)
                            * self.cfg.cpu_scale,
                    );
                    let _ = self.node_cpu[from].schedule(self.now, cost);
                    let _ = entry;
                }
                Output::RestoreSnapshot { .. } | Output::ReadReady { .. } => {
                    // The simulator tracks no state machine; snapshots and
                    // reads are log/bookkeeping operations here.
                }
                Output::ElectedLeader { .. } => self.elections += 1,
            }
        }
    }

    fn route_send(&mut self, from: usize, to: usize, msg: Message) {
        if self.nodes.get(to).is_none_or(|n| n.is_none()) {
            return; // dead target
        }
        // Chaos link faults: a cut link eats the message outright; a gray
        // link drops probabilistically and delays the survivors. A healthy
        // link takes no draw, so a run without chaos keeps its rng stream.
        let link = self.faults.link(from as u32, to as u32);
        if link.loses(|| self.rng.random_range(0.0..1.0)) {
            self.chaos_dropped += 1;
            return;
        }
        let chaos_extra = link.delay_at(|| self.rng.random_range(0.0..1.0));
        let size = msg.size_bytes();
        // NIC serialization at the sender.
        let t_nic = self.node_nic[from].schedule(self.now, self.cfg.costs.tx_time(size));
        // Entry replication goes through the dispatcher channel (limited
        // parallel connections, jittered per-connection latency — the
        // reordering source). Control traffic takes a direct path.
        // Heavy-tail stragglers (opt-in): a small fraction of *entries*
        // suffers a retransmission/GC-pause-scale delay. The decision is a
        // deterministic hash of the entry index so it is CORRELATED across
        // followers — a leader-side stall delays every copy of the entry,
        // which is what puts it in a genuine race with the election
        // (Figure 13).
        let straggle = {
            let p = self.cfg.costs.straggler_prob;
            match (&msg, p > 0.0) {
                (Message::AppendEntry(m), true) => {
                    let mut h = m.entries[0].index.0.wrapping_mul(0x9E3779B97F4A7C15)
                        ^ self.cfg.seed.wrapping_mul(0xD1B54A32D192ED03);
                    h ^= h >> 29;
                    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
                    h ^= h >> 32;
                    if (h % 1_000_000) as f64 / 1e6 < p {
                        let max = self.cfg.costs.straggler_delay.as_nanos().max(5);
                        TimeDelta(max / 5 + (h >> 8) % (max * 4 / 5))
                    } else {
                        TimeDelta::ZERO
                    }
                }
                _ => TimeDelta::ZERO,
            }
        };
        let deliver_at = if matches!(msg, Message::AppendEntry(_)) {
            // Data path: dispatched entries queue behind the bulk traffic;
            // the queueing delay scales with the bytes ahead, so smaller
            // messages (CRaft shards) cut through faster, and more replicas
            // mean proportionally more interleaved traffic per entry
            // (Section V-C: consecutive requests to one follower interleave
            // with requests to the others).
            let fanout = ((self.cfg.n_replicas.saturating_sub(1)) as f64 / 2.0).powf(0.8).max(0.75);
            let scale = 1.3 * fanout * (size as f64 / 4096.0).powf(0.7).clamp(0.35, 6.0);
            let lat =
                self.link_latency(from, to) + self.sched_noise(scale) + straggle + chaos_extra;
            self.channels[from][to].schedule(t_nic, lat)
        } else {
            // Control path: small acks/heartbeats suffer less queueing.
            t_nic + self.link_latency(from, to) + self.sched_noise(0.5) + chaos_extra
        };
        self.push(
            deliver_at,
            Ev::Work {
                node: to,
                item: WorkItem::Msg { from: NodeId(from as u32), msg },
                txed: t_nic,
            },
        );
    }

    fn process_client_actions(&mut self, _cidx: usize, actions: Vec<ClientAction>) {
        for a in actions {
            match a {
                ClientAction::Send { to, request } => {
                    let target = to.as_usize();
                    if self.nodes.get(target).is_none_or(|n| n.is_none()) {
                        continue; // dead node; the client's timeout will rotate
                    }
                    let size = request.payload.len() + 64;
                    let t1 = self.client_nic.schedule(self.now, self.cfg.costs.tx_time(size));
                    let lat = self.client_link_latency(target) + self.sched_noise(1.0);
                    self.push(
                        t1 + lat,
                        Ev::Work { node: target, item: WorkItem::ClientReq(request), txed: t1 },
                    );
                }
                ClientAction::Acked { request: _, issued_at, weak } => {
                    self.acked += 1;
                    if weak {
                        self.weak_acked += 1;
                    }
                    if self.now >= self.window_start && self.now < self.window_end {
                        self.latency.record(self.now.since(issued_at).as_nanos());
                    }
                }
                ClientAction::Confirmed { .. } => self.confirmed += 1,
            }
        }
    }

    fn client_issue(&mut self, cidx: usize) {
        let Some(client) = self.clients[cidx].as_mut() else { return };
        if !client.ready() {
            return;
        }
        let payload = self.generators[cidx].next_request();
        let mut actions = Vec::new();
        client.issue(payload, self.now, &mut actions);
        self.issued += 1;
        self.process_client_actions(cidx, actions);
    }

    fn leader_index(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.as_ref().is_some_and(|n| n.is_leader()))
            .map(|(i, _)| i)
    }

    /// Run the configured experiment to completion.
    pub fn run(mut self) -> SimResult {
        // Faults due at t = 0 come before the bootstrap: a replica crashed
        // at 0 is dead from the start, and the first live one campaigns.
        let (at_zero, chaos): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.cfg.chaos).into_iter().partition(|(at, _)| *at == Time::ZERO);
        for (_, fault) in at_zero {
            self.apply_fault(fault);
        }
        // Bootstrap: node 0 (or the first living node) campaigns at t = 0 so
        // every run starts from an established leader deterministically.
        if let Some(first_alive) = self.nodes.iter().position(Option::is_some) {
            let mut out = Vec::new();
            let now = self.now;
            self.nodes[first_alive].as_mut().expect("a live node").campaign(now, &mut out);
            self.route_outputs(first_alive, out);
        }

        // Periodic node ticks, phase-staggered per node: on a shared tick
        // grid, randomized election deadlines quantize to identical instants
        // and two candidates can split votes in lockstep forever.
        for i in 0..self.nodes.len() {
            let phase = TimeDelta::from_micros(1_300 * i as u64);
            self.push(Time::ZERO + TimeDelta::from_millis(10) + phase, Ev::NodeTick { node: i });
        }
        // Staggered client starts + retry ticks.
        let ramp = self.cfg.client_ramp.as_nanos().max(1);
        for c in 0..self.cfg.n_clients {
            let offset = TimeDelta(ramp * c as u64 / self.cfg.n_clients.max(1) as u64);
            self.push(Time::ZERO + offset, Ev::ClientIssue { client: c });
            self.push(
                Time::ZERO + offset + TimeDelta::from_millis(500),
                Ev::ClientTick { client: c },
            );
        }
        let mut horizon = self.window_end;
        for (at, fault) in chaos {
            horizon = horizon.max(at);
            self.push(at, Ev::Chaos { fault });
        }

        while let Some(Reverse(top)) = self.heap.pop() {
            if top.at > horizon {
                break;
            }
            self.now = top.at;
            match top.ev {
                Ev::Work { node, item, .. } => {
                    // Arrival at the replica: enter the CPU queue; protocol
                    // logic runs at service completion.
                    if self.nodes[node].is_none() {
                        continue;
                    }
                    if let WorkItem::ClientReq(req) = &item {
                        // The request now occupies a server-side context
                        // until its first response (Little's law residence).
                        if self.held.insert((node, req.client.0)) {
                            self.resident[node] += 1;
                        }
                    }
                    let cost = self.cpu_cost_of(&item, node);
                    let done = self.node_cpu[node].schedule(self.now, cost);
                    self.push(done, Ev::WorkDone { node, item });
                }
                Ev::WorkDone { node, item } => {
                    if self.nodes[node].is_none() {
                        continue;
                    }
                    let now = self.node_now(node);
                    let mut out = Vec::new();
                    match item {
                        WorkItem::Msg { from, msg } => {
                            if let Some(n) = self.nodes[node].as_mut() {
                                n.handle_message(from, msg, now, &mut out);
                            }
                        }
                        WorkItem::ClientReq(req) => {
                            if let Some(n) = self.nodes[node].as_mut() {
                                n.handle_client(req, now, &mut out);
                            }
                        }
                    }
                    self.route_outputs(node, out);
                }
                Ev::ClientRecv { client, resp } => {
                    if self.clients[client].is_none() {
                        continue;
                    }
                    let mut actions = Vec::new();
                    let now = self.now;
                    self.clients[client].as_mut().unwrap().handle_response(resp, now, &mut actions);
                    self.process_client_actions(client, actions);
                    if self.clients[client].as_ref().unwrap().ready() {
                        let next = self.now + self.cfg.costs.t_gen;
                        self.push(next, Ev::ClientIssue { client });
                    }
                }
                Ev::ClientIssue { client } => {
                    self.client_started[client] = true;
                    self.client_issue(client);
                }
                Ev::ClientTick { client } => {
                    if self.clients[client].is_none() {
                        continue;
                    }
                    let mut actions = Vec::new();
                    let now = self.now;
                    self.clients[client].as_mut().unwrap().tick(now, &mut actions);
                    self.process_client_actions(client, actions);
                    self.push(self.now + TimeDelta::from_millis(500), Ev::ClientTick { client });
                }
                Ev::NodeTick { node } => {
                    let now = self.node_now(node);
                    if let Some(n) = self.nodes[node].as_mut() {
                        let mut out = Vec::new();
                        n.tick(now, &mut out);
                        self.route_outputs(node, out);
                    }
                    self.push(self.now + TimeDelta::from_millis(10), Ev::NodeTick { node });
                }
                Ev::Chaos { fault } => self.apply_fault(fault),
            }
        }
        self.finish()
    }

    /// Apply one scheduled fault at the current instant: link, clock and
    /// disk faults are table state; node faults are carried out here.
    fn apply_fault(&mut self, fault: Fault) {
        let Some(action) = self.faults.apply(&fault) else { return };
        match action {
            NodeAction::Crash(target) => {
                let replica = match target {
                    Target::Node(node) => Some(node as usize),
                    Target::Leader => self.leader_index(),
                    Target::Clients => {
                        self.clients.iter_mut().for_each(|c| *c = None);
                        return self.lose_unsent(|item| matches!(item, WorkItem::ClientReq(_)));
                    }
                };
                // No leader at this instant: `crash leader` is a no-op.
                let Some(i) = replica else { return };
                let Some(n) = self.nodes.get_mut(i).and_then(Option::take) else { return };
                // The log (entries, hard state, snapshot) survives the
                // crash — it is what a WAL-backed replica recovers from.
                self.crashed_durable[i] = Some(n.into_log());
                self.cfg.trace.record(NodeId(i as u32), self.now, ProbeEvent::Crashed);
                self.lose_unsent(
                    |item| matches!(item, WorkItem::Msg { from, .. } if from.as_usize() == i),
                );
            }
            NodeAction::Recover(node) => {
                let i = node as usize;
                if i >= self.nodes.len() || self.nodes[i].is_some() {
                    return;
                }
                let log = self.crashed_durable[i].take().unwrap_or_default();
                let seed = self.cfg.seed ^ 0xBEEF ^ u64::from(node);
                self.nodes[i] = Some(boot_node(&self.cfg, NodeId(node), log, seed));
                self.recoveries += 1;
            }
            NodeAction::Campaign(node) => {
                let i = node as usize;
                let now = self.node_now(i);
                let mut out = Vec::new();
                if let Some(n) = self.nodes.get_mut(i).and_then(|n| n.as_mut()) {
                    n.campaign(now, &mut out);
                }
                self.route_outputs(i, out);
            }
        }
    }

    /// The crash rule, the same for a replica and the client machine: the
    /// crashed machine's work that had not left its NIC (`txed` after now)
    /// dies with it, while work already in the air still lands (Figure 13's
    /// race between in-flight entries and the election). `sent_by` picks the
    /// machine's own work out of the queue; a recovered incarnation sends
    /// only after this, so its work is untouched.
    fn lose_unsent(&mut self, sent_by: impl Fn(&WorkItem) -> bool) {
        let now = self.now;
        self.heap.retain(
            |Reverse(e)| !matches!(&e.ev, Ev::Work { item, txed, .. } if *txed > now && sent_by(item)),
        );
    }

    /// The exactly-once oracle behind [`SimResult::exactly_once_violations`].
    fn exactly_once_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        // (commit index, replica, applications per request) of the live
        // replica with the highest commit index.
        let mut highest: Option<(LogIndex, usize, _)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let (log, mut dedup) = (node.log(), DedupTable::default());
            let mut applied: BTreeMap<(ClientId, RequestId), u32> = BTreeMap::new();
            let mut idx = log.first_index();
            while idx <= node.commit_index() {
                if let Some(o) = log.get(idx).and_then(|e| e.origin) {
                    if dedup.insert(o.client, o.request) {
                        *applied.entry((o.client, o.request)).or_insert(0) += 1;
                    }
                }
                idx = idx.next();
            }
            for ((client, request), times) in &applied {
                if *times > 1 {
                    violations.push(format!("n{i} applies {client}/{request} {times} times"));
                }
            }
            if highest.as_ref().is_none_or(|&(commit, ..)| node.commit_index() > commit) {
                highest = Some((node.commit_index(), i, applied));
            }
        }
        let Some((_, i, applied)) = highest else { return violations };
        for client in self.clients.iter().flatten() {
            for request in (1..=client.confirmed()).map(RequestId) {
                let times = applied.get(&(client.id(), request)).unwrap_or(&0);
                if *times != 1 {
                    violations.push(format!(
                        "{} confirmed {request}, which n{i} applies {times} times",
                        client.id()
                    ));
                }
            }
        }
        violations
    }

    fn finish(self) -> SimResult {
        let duration_s = self.cfg.duration.as_nanos() as f64 / 1e9;
        let mut stats = NodeStats::default();
        for n in self.nodes.iter().flatten() {
            stats += n.stats;
        }
        let twait_mean_ms = if stats.park_waits == 0 {
            0.0
        } else {
            stats.park_wait_ns as f64 / stats.park_waits as f64 / 1e6
        };

        // Loss accounting: distinct client requests in the log of the live
        // replica with the highest (term, last index), against requests
        // issued. With no replica alive nothing survived.
        let mut unique = std::collections::HashSet::new();
        if let Some(survivor) =
            self.nodes.iter().flatten().max_by_key(|n| (n.term(), n.last_index()))
        {
            let log = survivor.log();
            let mut idx = log.first_index();
            while idx <= log.last_index() {
                if let Some(o) = log.get(idx).and_then(|e| e.origin) {
                    unique.insert((o.client, o.request));
                }
                idx = idx.next();
            }
        }
        let survived = unique.len() as u64;
        let lost = self.issued.saturating_sub(survived);
        let loss_fraction = if self.issued == 0 { 0.0 } else { lost as f64 / self.issued as f64 };

        let final_status: Vec<NodeStatus> = self
            .nodes
            .iter()
            .map(|n| n.as_ref().map_or_else(NodeStatus::default, Node::status))
            .collect();
        // Committed-prefix hash: every live node hashes its (index, term)
        // pairs up to the *minimum* live commit index, so lagging-but-
        // consistent followers still hash equal (log matching ⇒ identical
        // prefixes below any commit point).
        let min_commit =
            final_status.iter().filter(|s| s.alive).map(|s| s.commit).min().unwrap_or(0);
        let prefix_hash: Vec<Option<u64>> = self
            .nodes
            .iter()
            .map(|n| {
                n.as_ref().map(|n| {
                    let log = n.log();
                    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
                    let mut idx = log.first_index();
                    while idx <= log.last_index() && idx.0 <= min_commit {
                        if let Some(e) = log.get(idx) {
                            for b in e.index.0.to_le_bytes().iter().chain(&e.term.0.to_le_bytes()) {
                                h ^= u64::from(*b);
                                h = h.wrapping_mul(0x0000_0100_0000_01B3);
                            }
                        }
                        idx = idx.next();
                    }
                    h
                })
            })
            .collect();
        SimResult {
            exactly_once_violations: self.exactly_once_violations(),
            final_status,
            prefix_hash,
            chaos_dropped: self.chaos_dropped,
            recoveries: self.recoveries,
            throughput: if duration_s > 0.0 {
                self.latency.count() as f64 / duration_s
            } else {
                0.0
            },
            latency_mean_ms: self.latency.mean() / 1e6,
            latency_p50_ms: self.latency.p50() as f64 / 1e6,
            latency_p99_ms: self.latency.p99() as f64 / 1e6,
            issued: self.issued,
            acked: self.acked,
            confirmed: self.confirmed,
            weak_acked: self.weak_acked,
            twait_mean_ms,
            survived,
            loss_fraction,
            elections: self.elections,
            stats,
        }
    }
}

/// Convenience: build and run.
pub fn run(cfg: SimConfig) -> SimResult {
    Simulator::new(cfg).run()
}

//! The real-thread cluster runtime: one OS thread per replica, an in-process
//! network with fault injection, durable WAL storage, and real state
//! machines. This is the harness that demonstrates the protocols *work* —
//! real concurrency, real crypto/coding work, crash/restart with recovery —
//! complementing the deterministic simulator used for the figures.

use crate::client::{ClientDriver, ClientLink};
use crate::faults::FaultPlane;
use crate::network::{NetConfig, Network, Packet, CLIENT_ENDPOINT};
use crate::sync::Mutex;
use crate::transport::{Endpoints, Transport, TransportInboxes};
use bytes::Bytes;
use nbr_core::{Node, NodeStats, NodeStatus, Output};
use nbr_obs::{EngineProbe, Gauge, ProbeEvent, Registry};
use nbr_storage::{LogStore, MemLog, StateMachine, SyncPolicy, WalLog};
use nbr_types::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where replicas keep their logs.
#[derive(Debug, Clone)]
pub enum StorageMode {
    /// Volatile in-memory logs (fast; used by most tests). A crashed
    /// replica's log outlives its engine and [`Cluster::restart`] boots
    /// from it, as the simulator's does; the log is lost with the cluster.
    Memory,
    /// Durable write-ahead logs under the given directory — survives
    /// [`Cluster::crash`] + [`Cluster::restart`].
    Wal(PathBuf),
}

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Protocol preset + window.
    pub protocol: ProtocolConfig,
    /// Network behaviour.
    pub net: NetConfig,
    /// Log storage.
    pub storage: StorageMode,
    /// Snapshot + compact a replica's log whenever it retains more than this
    /// many applied entries (`None` disables compaction).
    pub compact_after: Option<u64>,
    /// Seed for node RNGs.
    pub seed: u64,
    /// Protocol tracing hook threaded into every replica's engine.
    /// `EngineProbe::Off` (the default) keeps the hot path allocation-free;
    /// a shared probe collects [`nbr_obs::TraceEvent`]s for `nbraft-cli trace`.
    pub probe: EngineProbe,
    /// The cluster's fault plane, shared with whoever injects faults while
    /// it runs. Each replica adds its own node's clock skew to its view of
    /// `now` and (under [`StorageMode::Wal`]) stalls every WAL record write
    /// by its node's disk dial; the in-process router reads the link rows.
    /// `None` (the default) injects nothing and costs nothing.
    pub faults: Option<Arc<FaultPlane>>,
    /// Trace clock epoch. `None` (the default) starts a fresh epoch at
    /// spawn; a multi-process host (`NodeServer`) passes the same instant
    /// it gives the transport so probe timestamps and the transport's
    /// Ping/Pong clock samples share one per-node clock — the property
    /// cross-node span alignment relies on.
    pub trace_epoch: Option<Instant>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            protocol: {
                let mut p = Protocol::NbRaft.config(10_000);
                // Real-time timeouts suited to an in-process network.
                p.timeouts = TimeoutConfig {
                    election_min: TimeDelta::from_millis(150),
                    election_max: TimeDelta::from_millis(300),
                    heartbeat_interval: TimeDelta::from_millis(40),
                };
                p
            },
            net: NetConfig::default(),
            storage: StorageMode::Memory,
            compact_after: None,
            seed: 42,
            probe: EngineProbe::Off,
            faults: None,
            trace_epoch: None,
        }
    }
}

/// A log that is either volatile or WAL-backed.
enum ClusterLog {
    Mem(MemLog),
    Wal(WalLog),
}

macro_rules! delegate {
    ($self:ident, $m:ident ( $($a:expr),* )) => {
        match $self {
            ClusterLog::Mem(l) => l.$m($($a),*),
            ClusterLog::Wal(l) => l.$m($($a),*),
        }
    };
}

impl LogStore for ClusterLog {
    fn first_index(&self) -> LogIndex {
        delegate!(self, first_index())
    }
    fn last_index(&self) -> LogIndex {
        delegate!(self, last_index())
    }
    fn last_term(&self) -> Term {
        delegate!(self, last_term())
    }
    fn term_of(&self, idx: LogIndex) -> Option<Term> {
        delegate!(self, term_of(idx))
    }
    fn get(&self, idx: LogIndex) -> Option<Entry> {
        delegate!(self, get(idx))
    }
    fn append(&mut self, entry: Entry) -> Result<()> {
        delegate!(self, append(entry))
    }
    fn truncate_from(&mut self, idx: LogIndex) -> Result<()> {
        delegate!(self, truncate_from(idx))
    }
    fn compact_to(&mut self, idx: LogIndex, image: Bytes) -> Result<()> {
        delegate!(self, compact_to(idx, image))
    }
    fn reset(&mut self, boundary: LogIndex, term: Term, image: Bytes) -> Result<()> {
        delegate!(self, reset(boundary, term, image))
    }
    fn hard_state(&self) -> (Term, Option<NodeId>) {
        delegate!(self, hard_state())
    }
    fn set_hard_state(&mut self, term: Term, vote: Option<NodeId>) -> Result<()> {
        delegate!(self, set_hard_state(term, vote))
    }
    fn snapshot(&self) -> Option<(LogIndex, Term, Bytes)> {
        delegate!(self, snapshot())
    }
}

enum Control {
    /// Crash the replica; the sender is signalled once it is down.
    Crash(Sender<()>),
    /// Restart a crashed replica; the sender is signalled once it is back
    /// up and its status says so (or once it has stayed down on a snapshot
    /// that does not restore).
    Restart(Sender<()>),
    Stop,
    /// Register a linearizable read; the sender is signalled when the local
    /// state machine is safe to read (ReadIndex protocol).
    Read(Sender<Result<()>>),
}

/// One replica's harness-side handles.
struct Replica {
    /// This replica's node id (local replicas may be a subset of the
    /// membership when peers live in other processes).
    id: u32,
    control: Sender<Control>,
    status: StatusGauges,
    registry: Arc<Registry>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// A running cluster with state machines of type `M`.
///
/// A `Cluster` hosts the replicas of `local` node ids in this process —
/// all of them for [`Cluster::spawn`] (the classic single-process harness),
/// or a subset (typically one) for [`Cluster::spawn_on`] when the rest of
/// the membership is reached over a real transport. Indexed
/// accessors ([`Cluster::status`], [`Cluster::machine`], …) take the *local
/// position* of a replica, which equals its node id in the full-local case.
pub struct Cluster<M: StateMachine + Send + 'static> {
    /// Configuration the cluster was spawned with.
    pub cfg: ClusterConfig,
    epoch: Instant,
    transport: Arc<dyn Transport>,
    replicas: Vec<Replica>,
    machines: Vec<Arc<Mutex<M>>>,
    /// Client response demultiplexer registry.
    client_routes: Arc<Mutex<HashMap<ClientId, Sender<ClientResponse>>>>,
    router_thread: Option<std::thread::JoinHandle<()>>,
    next_client: std::sync::atomic::AtomicU64,
    n: usize,
}

pub(crate) fn now_since(epoch: Instant) -> Time {
    Time(epoch.elapsed().as_nanos() as u64)
}

impl<M: StateMachine + Send + Default + 'static> Cluster<M> {
    /// Spawn an `n`-replica cluster, all replicas local, connected by the
    /// in-process router ([`Network`]).
    pub fn spawn(n: usize, cfg: ClusterConfig) -> Cluster<M> {
        let local: Vec<u32> = (0..n as u32).collect();
        let (inboxes, endpoints) = TransportInboxes::channels(&local);
        let network = Network::spawn(cfg.net.clone(), cfg.faults.clone(), inboxes);
        Self::spawn_on(n, endpoints, cfg, Arc::new(network))
    }

    /// Spawn one replica per inbox in `endpoints` (a subset of the `n`-node
    /// membership) on an already running `transport` — one that was built
    /// over the sending ends of the same [`TransportInboxes::channels`] call.
    /// `serve`-style processes host one replica per Raft group this way, all
    /// groups on one TCP transport. The replicas' engines learn from the
    /// transport whether their links keep send order ([`Transport::in_order`]).
    pub fn spawn_on(
        n: usize,
        endpoints: Endpoints,
        mut cfg: ClusterConfig,
        transport: Arc<dyn Transport>,
    ) -> Cluster<M> {
        cfg.protocol.in_order = transport.in_order();
        let epoch = cfg.trace_epoch.unwrap_or_else(Instant::now);
        let membership: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let Endpoints { nodes: receivers, client: client_rx } = endpoints;

        let machines: Vec<Arc<Mutex<M>>> =
            (0..receivers.len()).map(|_| Arc::new(Mutex::new(M::default()))).collect();

        let mut replicas = Vec::new();
        for (i, (id, rx)) in receivers.into_iter().enumerate() {
            let (ctl_tx, ctl_rx) = channel::<Control>();
            let registry = Arc::new(Registry::new(id.to_string()));
            let status = StatusGauges::new(&registry);
            let thread = spawn_replica(
                NodeId(id),
                membership.clone(),
                cfg.clone(),
                epoch,
                rx,
                ctl_rx,
                Arc::clone(&transport),
                Arc::clone(&machines[i]),
                Arc::clone(&registry),
            );
            replicas.push(Replica { id, control: ctl_tx, status, registry, thread: Some(thread) });
        }

        // Client response router.
        let client_routes: Arc<Mutex<HashMap<ClientId, Sender<ClientResponse>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let routes = Arc::clone(&client_routes);
        let router_thread = std::thread::Builder::new()
            .name("nbr-client-router".into())
            .spawn(move || {
                while let Ok(packet) = client_rx.recv() {
                    if let Packet::Response { client, resp } = packet {
                        if let Some(tx) = routes.lock().get(&client) {
                            let _ = tx.send(resp);
                        }
                    }
                }
            })
            .expect("spawn router"); // check:allow(L1): harness startup; without the router no client can ever see a response

        Cluster {
            cfg,
            epoch,
            transport,
            replicas,
            machines,
            client_routes,
            router_thread: Some(router_thread),
            next_client: std::sync::atomic::AtomicU64::new(0),
            n,
        }
    }

    /// Membership size (including replicas hosted in other processes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the cluster has no replicas (never in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of replicas hosted in this process.
    pub fn local_len(&self) -> usize {
        self.replicas.len()
    }

    /// Node id of the replica at local position `node`.
    pub fn node_id(&self, node: usize) -> u32 {
        self.replicas[node].id
    }

    /// Status of one replica (by local position), read back from the
    /// gauges of its registry that its thread publishes into after every
    /// burst, crash and restart.
    pub fn status(&self, node: usize) -> NodeStatus {
        self.replicas[node].status.read()
    }

    /// The state machine of one replica.
    pub fn machine(&self, node: usize) -> Arc<Mutex<M>> {
        Arc::clone(&self.machines[node])
    }

    /// The metrics registry of one replica (updated by its node thread).
    pub fn registry(&self, node: usize) -> Arc<Registry> {
        Arc::clone(&self.replicas[node].registry)
    }

    /// Prometheus text-format exposition of every replica's metrics, plus
    /// the transport's own registry (delivery accounting, socket stats).
    pub fn prometheus(&self) -> String {
        let mut snaps: Vec<_> = self.replicas.iter().map(|r| r.registry.snapshot()).collect();
        if let Some(t) = self.transport.scrape() {
            snaps.push(t);
        }
        nbr_obs::export::prometheus(&snaps)
    }

    /// The transport this cluster runs on.
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::clone(&self.transport)
    }

    /// Wait until some locally hosted replica believes it is leader;
    /// returns its local index.
    pub fn wait_for_leader(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            for i in 0..self.replicas.len() {
                let s = self.status(i);
                if s.alive && s.is_leader {
                    return Some(i);
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }

    /// Wait until every live locally hosted replica's applied count
    /// reaches `target`.
    pub fn wait_for_applied(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            let ok = (0..self.replicas.len()).all(|i| {
                let s = self.status(i);
                !s.alive || s.applied >= target
            });
            if ok {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// Crash a replica (drops volatile state; WAL files survive). Returns
    /// once it is down.
    pub fn crash(&self, node: usize) {
        self.control(node, Control::Crash);
    }

    /// Restart a crashed replica on the log it crashed with: reopened from
    /// its WAL when configured (hard state, snapshot and log suffix), the
    /// crashed engine's in-memory log otherwise. Returns once it is running
    /// again, with its full status published. A replica whose snapshot does
    /// not restore stays down (`alive` false).
    pub fn restart(&self, node: usize) {
        self.control(node, Control::Restart);
    }

    /// Send `node` a command and wait for its replica thread to carry it out.
    fn control(&self, node: usize, command: impl FnOnce(Sender<()>) -> Control) {
        let (done, wait) = channel();
        if self.replicas[node].control.send(command(done)).is_ok() {
            let _ = wait.recv();
        }
    }

    /// Perform a linearizable read on `node`'s state machine: blocks until
    /// the ReadIndex protocol confirms the local machine is safe to read
    /// (leader or follower), then applies `f` to it. Errors if the node is
    /// not part of an active quorum (e.g. a deposed, partitioned leader —
    /// this is what prevents stale reads).
    pub fn linearizable_read<T>(
        &self,
        node: usize,
        timeout: Duration,
        f: impl FnOnce(&M) -> T,
    ) -> Result<T> {
        let (tx, rx) = channel();
        self.replicas[node]
            .control
            .send(Control::Read(tx))
            .map_err(|_| Error::Cluster("replica thread gone".into()))?;
        match rx.recv_timeout(timeout) {
            Ok(Ok(())) => Ok(f(&self.machines[node].lock())),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::Cluster(format!("read on node {node} timed out"))),
        }
    }

    /// Create a synchronous client of the in-process response router: its
    /// requests go out through this cluster's transport and its responses
    /// come back through the router, which only the in-process
    /// [`Network`] feeds. Over TCP, use `nbr_net::NetClient`.
    pub fn client(&self) -> ClusterClient {
        let id = ClientId(self.next_client.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let (tx, rx) = channel();
        self.client_routes.lock().insert(id, tx);
        let engine = nbr_core::RaftClient::new(
            id,
            (0..self.n as u32).map(NodeId).collect(),
            NodeId(0),
            TimeDelta::from_millis(300),
        );
        let link = ClusterLink {
            id,
            net: Arc::clone(&self.transport),
            rx,
            routes: Arc::clone(&self.client_routes),
        };
        ClientDriver::new(engine, self.epoch, link)
    }
}

impl<M: StateMachine + Send + 'static> Drop for Cluster<M> {
    fn drop(&mut self) {
        for r in &self.replicas {
            let _ = r.control.send(Control::Stop);
        }
        for r in &mut self.replicas {
            if let Some(t) = r.thread.take() {
                let _ = t.join();
            }
        }
        // The router thread exits when the network (which owns the sender
        // side of its channel) shuts down; the network shuts down when its
        // field drops after this body. Detach rather than join to avoid a
        // drop-order deadlock.
        drop(self.router_thread.take());
    }
}

/// The registry gauges one replica's [`NodeStatus`] is published in: the
/// replica thread writes them, [`Cluster::status`] reads them back.
struct StatusGauges {
    alive: Arc<Gauge>,
    is_leader: Arc<Gauge>,
    term: Arc<Gauge>,
    commit_index: Arc<Gauge>,
    last_index: Arc<Gauge>,
    applied_index: Arc<Gauge>,
}

impl StatusGauges {
    fn new(reg: &Registry) -> StatusGauges {
        StatusGauges {
            alive: reg.gauge("alive"),
            is_leader: reg.gauge("is_leader"),
            term: reg.gauge("term"),
            commit_index: reg.gauge("commit_index"),
            last_index: reg.gauge("last_index"),
            applied_index: reg.gauge("applied_index"),
        }
    }

    fn publish(&self, s: NodeStatus) {
        self.alive.set(s.alive as i64);
        self.is_leader.set(s.is_leader as i64);
        self.term.set(s.term as i64);
        self.commit_index.set(s.commit as i64);
        self.last_index.set(s.last_index as i64);
        self.applied_index.set(s.applied as i64);
    }

    fn read(&self) -> NodeStatus {
        NodeStatus {
            alive: self.alive.get() != 0,
            is_leader: self.is_leader.get() != 0,
            term: self.term.get() as u64,
            commit: self.commit_index.get() as u64,
            last_index: self.last_index.get() as u64,
            applied: self.applied_index.get() as u64,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_replica<M: StateMachine + Send + Default + 'static>(
    id: NodeId,
    membership: Vec<NodeId>,
    cfg: ClusterConfig,
    epoch: Instant,
    inbox: Receiver<Packet>,
    control: Receiver<Control>,
    net: Arc<dyn Transport>,
    machine: Arc<Mutex<M>>,
    registry: Arc<Registry>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("nbr-node-{}", id.0))
        .spawn(move || {
            let open_log = |kept: Option<MemLog>| -> ClusterLog {
                match &cfg.storage {
                    StorageMode::Memory => ClusterLog::Mem(kept.unwrap_or_default()),
                    StorageMode::Wal(dir) => {
                        // A replica that cannot open its durable log must not
                        // serve; dying here is the crash-recovery story working
                        // as intended.
                        std::fs::create_dir_all(dir).expect("wal dir"); // check:allow(L1): replica bring-up, must abort
                        let path = dir.join(format!("node-{}.wal", id.0));
                        let mut w = WalLog::open(path, SyncPolicy::Never).expect("open wal"); // check:allow(L1): replica bring-up, must abort
                        if let Some(dial) = cfg.faults.as_ref().and_then(|p| p.stall_dial(id.0)) {
                            w.set_stall(dial);
                        }
                        ClusterLog::Wal(w)
                    }
                }
            };
            // The replica's view of time: wall clock plus this node's skew
            // on the fault plane. All engine deadlines derive from this, so
            // skewing one replica makes its election timer fire early
            // relative to peers.
            let plane = cfg.faults.clone();
            let local_now =
                move || now_since(epoch) + plane.as_ref().map_or(TimeDelta::ZERO, |p| p.skew(id.0));
            // Outstanding harness reads keyed by synthetic request id.
            let mut read_replies: HashMap<u64, Sender<Result<()>>> = HashMap::new();
            let mut next_read_id = 0u64;
            // A (re)started engine over whatever this node's storage kept:
            // the machine restored from the log's snapshot, the engine built
            // on the log. `None`: the snapshot does not restore and the
            // replica stays down.
            let boot = |seed: u64, kept: Option<MemLog>| {
                let log = open_log(kept);
                if let Some((last_index, _, image)) = log.snapshot() {
                    machine.lock().restore(&image, last_index).ok()?;
                }
                let (protocol, probe) = (cfg.protocol.clone(), cfg.probe.clone());
                Some(Node::with_probe(id, membership.clone(), protocol, log, seed, probe))
            };
            let mut node: Option<Node<ClusterLog>> = boot(cfg.seed, None);
            // A crashed in-memory replica's log, until it restarts on it.
            let mut kept: Option<MemLog> = None;
            let mut outputs: Vec<Output> = Vec::new();
            let mut burst: Vec<Packet> = Vec::new();
            // Metric handles, interned once: each mirror below is one
            // atomic store.
            let stats = NodeStats::NAMES.map(|name| registry.counter(name));
            let gauges = StatusGauges::new(&registry);
            let window_cached = registry.gauge("window_cached");
            let window_parked = registry.gauge("window_parked");

            loop {
                // Control commands.
                while let Ok(c) = control.try_recv() {
                    match c {
                        Control::Stop => return,
                        Control::Crash(done) => {
                            cfg.probe.record(id, now_since(epoch), ProbeEvent::Crashed);
                            // An in-memory log outlives its engine, as a
                            // WAL outlives it on disk: a replica restarted on
                            // a fresh one could vote twice in a term and
                            // forget entries it helped commit.
                            if let Some(ClusterLog::Mem(log)) = node.take().map(Node::into_log) {
                                kept = Some(log);
                            }
                            // The state machine is volatile node state: a
                            // restarted replica rebuilds it from its log's
                            // snapshot and re-applies the suffix.
                            *machine.lock() = M::default();
                            gauges.publish(NodeStatus::default());
                            let _ = done.send(());
                        }
                        Control::Read(reply) => {
                            if let Some(n) = node.as_mut() {
                                next_read_id += 1;
                                read_replies.insert(next_read_id, reply);
                                let now = local_now();
                                n.handle_read(
                                    ClientId(u64::MAX),
                                    RequestId(next_read_id),
                                    now,
                                    &mut outputs,
                                );
                            } else {
                                let _ = reply.send(Err(Error::Cluster("node crashed".into())));
                            }
                        }
                        Control::Restart(done) => {
                            if node.is_none() {
                                node = boot(cfg.seed ^ 0xBEEF, kept.take());
                                let status = node.as_ref().map(Node::status);
                                gauges.publish(status.unwrap_or_default());
                            }
                            let _ = done.send(());
                        }
                    }
                }

                // Input: block briefly for the first packet, then drain a
                // batch so the fixed per-iteration work below (compaction
                // check, metrics and status publishing) amortizes across
                // bursts instead of being paid once per packet.
                let packet = inbox.recv_timeout(Duration::from_millis(2));
                let now = local_now();
                if let Some(n) = node.as_mut() {
                    let handle =
                        |p: Packet, n: &mut Node<ClusterLog>, outputs: &mut Vec<Output>| match p {
                            Packet::Peer { from, msg } => n.handle_message(from, msg, now, outputs),
                            Packet::Request(req) => n.handle_client(req, now, outputs),
                            Packet::Response { .. } => {}
                        };
                    if let Ok(p) = packet {
                        burst.push(p);
                        for _ in 0..255 {
                            match inbox.try_recv() {
                                Ok(p) => burst.push(p),
                                Err(_) => break,
                            }
                        }
                        // Strong accepts are cumulative (the engine counts
                        // every index ≤ last_index), so within one burst only
                        // a peer's furthest Strong response per term matters —
                        // drop the superseded ones before paying a full
                        // handle_message pass for each.
                        compress_strong_resps(&mut burst);
                        for p in burst.drain(..) {
                            handle(p, n, &mut outputs);
                        }
                    }
                    n.tick(now, &mut outputs);
                    // The whole burst's outputs leave at once: settle them as one.
                    nbr_core::settle_outputs(&mut outputs, MAX_APPEND_BATCH);

                    for o in outputs.drain(..) {
                        match o {
                            Output::Send { to, msg } => {
                                net.send(id.0, to.0, Packet::Peer { from: id, msg });
                            }
                            Output::Respond { client, resp } if client == ClientId(u64::MAX) => {
                                // A harness read was rejected (not leader /
                                // no leader known): fail the waiter fast.
                                if let ClientResponse::NotLeader { request, .. } = resp {
                                    if let Some(reply) = read_replies.remove(&request.0) {
                                        let _ = reply.send(Err(Error::NotLeader { hint: None }));
                                    }
                                }
                            }
                            Output::Respond { client, resp } => {
                                net.send(id.0, CLIENT_ENDPOINT, Packet::Response { client, resp });
                            }
                            Output::Apply { entry } => {
                                machine.lock().apply(&entry);
                            }
                            Output::RestoreSnapshot { last_index, data, .. } => {
                                machine
                                    .lock()
                                    .restore(&data, last_index)
                                    .expect("snapshot image restores"); // check:allow(L1): corrupt snapshot = unrecoverable replica, abort its thread
                            }
                            Output::ReadReady { client, request, .. } => {
                                if client == ClientId(u64::MAX) {
                                    if let Some(reply) = read_replies.remove(&request.0) {
                                        let _ = reply.send(Ok(()));
                                    }
                                }
                            }

                            Output::ElectedLeader { .. } => {}
                        }
                    }

                    // Compaction policy: checkpoint the state machine and
                    // drop the applied log prefix once it grows past the limit.
                    if let Some(limit) = cfg.compact_after {
                        let applied = n.applied_index();
                        if applied.0 >= limit && applied.0 + 1 - n.log().first_index().0 > limit {
                            let image = machine.lock().checkpoint();
                            let _ = n.compact_with_snapshot(image);
                        }
                    }

                    // Metrics registry: protocol counters mirrored from the
                    // engine's stats, plus the replica's status gauges.
                    for (counter, v) in stats.iter().zip(n.stats.values()) {
                        counter.set(v);
                    }
                    gauges.publish(n.status());
                    // Live window occupancy: entries currently cached in
                    // the sliding window vs parked beyond it.
                    let cached = n.window().occupied();
                    window_cached.set(cached as i64);
                    window_parked.set((n.blocked_entries() - cached) as i64);
                } else {
                    // Crashed: drain and ignore.
                    let _ = packet;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
        .expect("spawn replica thread") // check:allow(L1): harness startup; a cluster without its replica threads is useless
}

/// Drop Strong `AppendResp`s that a later response in the same inbound burst
/// supersedes: same peer, same term, and the later response's `last_index`
/// is at least as far. [`nbr_core::VoteList::strong_accept`] counts every
/// index up to `last_index`, so handling only the furthest response is
/// semantically identical. Weak and Mismatch responses are never touched.
///
/// Public so property tests can check the supersession invariants against
/// random response bursts; the replica loop is the only runtime caller.
pub fn compress_strong_resps(burst: &mut Vec<Packet>) {
    // (peer, term) → furthest last_index of a LATER kept Strong response.
    let mut kept: HashMap<(u32, u64), u64> = HashMap::new();
    let mut drop = vec![false; burst.len()];
    let mut any = false;
    for i in (0..burst.len()).rev() {
        if let Packet::Peer { from, msg: Message::AppendResp(r) } = &burst[i] {
            if let AcceptState::Strong { last_index, .. } = r.state {
                match kept.get(&(from.0, r.term.0)) {
                    Some(&li) if last_index.0 <= li => {
                        drop[i] = true;
                        any = true;
                    }
                    Some(_) | None => {
                        kept.insert((from.0, r.term.0), last_index.0);
                    }
                }
            }
        }
    }
    if any {
        let mut i = 0;
        burst.retain(|_| {
            let d = drop[i];
            i += 1;
            !d
        });
    }
}

/// A synchronous client bound to one cluster: the shared [`ClientDriver`]
/// loop with requests leaving through the cluster's [`Transport`].
pub type ClusterClient = ClientDriver<ClusterLink>;

/// A [`ClusterClient`]'s way out, its way back from the response router,
/// and its registration there.
pub struct ClusterLink {
    id: ClientId,
    net: Arc<dyn Transport>,
    rx: Receiver<ClientResponse>,
    routes: Arc<Mutex<HashMap<ClientId, Sender<ClientResponse>>>>,
}

impl ClientLink for ClusterLink {
    fn send(&mut self, to: NodeId, request: ClientRequest) {
        self.net.send(CLIENT_ENDPOINT, to.0, Packet::Request(request));
    }

    fn recv(&mut self, wait: Duration) -> Option<ClientResponse> {
        self.rx.recv_timeout(wait).ok()
    }
}

impl Drop for ClusterLink {
    fn drop(&mut self) {
        self.routes.lock().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NODE_INBOX_DEPTH;

    fn strong(from: u32, term: u64, last_index: u64) -> Packet {
        Packet::Peer {
            from: NodeId(from),
            msg: Message::AppendResp(message::AppendRespMsg {
                term: Term(term),
                from: NodeId(from),
                state: AcceptState::Strong {
                    last_index: LogIndex(last_index),
                    last_term: Term(term),
                },
            }),
        }
    }

    fn weak(from: u32, term: u64, index: u64) -> Packet {
        Packet::Peer {
            from: NodeId(from),
            msg: Message::AppendResp(message::AppendRespMsg {
                term: Term(term),
                from: NodeId(from),
                state: AcceptState::Weak { index: LogIndex(index), term: Term(term) },
            }),
        }
    }

    fn indexes(burst: &[Packet]) -> Vec<u64> {
        burst
            .iter()
            .map(|p| match p {
                Packet::Peer { msg: Message::AppendResp(r), .. } => match r.state {
                    AcceptState::Strong { last_index, .. } => last_index.0,
                    AcceptState::Weak { index, .. } => index.0,
                    AcceptState::Mismatch { index, .. } => index.0,
                },
                other => panic!("expected AppendResp, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn compress_empty_burst_is_a_no_op() {
        let mut burst: Vec<Packet> = Vec::new();
        compress_strong_resps(&mut burst);
        assert!(burst.is_empty());
    }

    #[test]
    fn compress_keeps_only_furthest_strong_per_peer_and_term() {
        // An inbox-depth burst of monotone Strong acks from one peer
        // collapses to the single furthest one — the VoteList counts every
        // index up to last_index, so the rest are redundant.
        let mut burst: Vec<Packet> =
            (1..=NODE_INBOX_DEPTH as u64).map(|i| strong(2, 1, i)).collect();
        compress_strong_resps(&mut burst);
        assert_eq!(indexes(&burst), vec![NODE_INBOX_DEPTH as u64]);

        // Different peers never compress against each other.
        let mut burst = vec![strong(2, 1, 1), strong(3, 1, 2), strong(2, 1, 3)];
        compress_strong_resps(&mut burst);
        assert_eq!(indexes(&burst), vec![2, 3]);
    }

    #[test]
    fn compress_respects_term_boundaries() {
        // Same peer, different terms: both survive. A term-1 Strong says
        // nothing about what the peer holds under term 2.
        let mut burst = vec![strong(2, 1, 5), strong(2, 2, 3)];
        compress_strong_resps(&mut burst);
        assert_eq!(indexes(&burst), vec![5, 3]);
    }

    #[test]
    fn compress_never_reorders_and_never_touches_weak() {
        // Only a LATER response that is at least as far supersedes: a
        // regression (4 then 2) keeps both, so the leader still observes
        // out-of-order delivery, and the Weak between them is untouched.
        let mut burst = vec![strong(2, 1, 4), weak(2, 1, 6), strong(2, 1, 2)];
        compress_strong_resps(&mut burst);
        assert_eq!(indexes(&burst), vec![4, 6, 2]);

        // Monotone case: the earlier shorter resp is dropped, survivors
        // keep their relative order around other peers' packets.
        let mut burst = vec![weak(3, 1, 1), strong(2, 1, 8), strong(2, 1, 9)];
        compress_strong_resps(&mut burst);
        assert_eq!(indexes(&burst), vec![1, 9]);

        // Equal last_index also supersedes (duplicate ack collapse).
        let mut burst = vec![strong(2, 1, 7), strong(2, 1, 7)];
        compress_strong_resps(&mut burst);
        assert_eq!(indexes(&burst), vec![7]);
    }
}

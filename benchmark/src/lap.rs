//! One lap: fresh TCP cluster on loopback → leader elected → clients
//! connected → warm-up → measured window → drain → verify → teardown. Everything the rest of the benchmark reports about a workload
//! is derived from the [`Lap`]s this module returns.

use crate::workload::{request_pool, Request, Workload};
use nbr_cluster::ClusterConfig;
use nbr_net::{NetClient, NodeServer, ServeConfig};
use nbr_obs::{EngineProbe, SharedProbe, TraceEvent};
use nbr_storage::{KvStore, StateMachine};
use nbr_types::{ClientId, Entry, LogIndex, Term, TimeDelta};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const CLUSTER_ID: u64 = 1;
/// The log is compacted behind a snapshot every this many applied entries,
/// which with the fixed device fleet keeps a lap's memory flat: without it
/// the 4 KiB workload passes 2.5 GB and slows threefold within 10 s.
const COMPACT_AFTER: u64 = 8192;
/// An op with no first ack after this long, or acked but unconfirmed this
/// long after the lap, has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// Client re-send timeout, as `nbraft-cli bench-net` ships it.
const REQUEST_TIMEOUT_MS: u64 = 300;
const CLIENT_ID_BASE: u64 = 1000;
/// Transport counter: frames dropped because a send queue was full.
const SHED: &str = "net_dropped_queue_full";

pub struct LapOpts {
    pub seed: u64,
    /// Cluster size: 3 for every workload, 1 for the single-node baseline.
    pub replicas: usize,
    pub warmup: Duration,
    pub measure: Duration,
    /// Record probe events on every replica (`EngineProbe::shared()`).
    pub traced: bool,
}

/// One op as the generator saw it.
#[derive(Clone, Copy)]
pub struct Op {
    pub client: u64,
    pub request: u64,
    /// When the op was due: the schedule slot on a paced workload, the
    /// moment the connection became free on a closed-loop one. Latency is
    /// timed from here.
    pub due: Instant,
    /// When `NetClient::submit` was entered.
    pub sent: Instant,
    pub acked: Instant,
    pub weak: bool,
    pub confirmed: Option<Instant>,
}

pub struct Lap {
    /// Spawn → leader elected → every client's first request acked.
    pub setup_s: f64,
    /// Start of the measured window (end of warm-up) and its length.
    pub window: (Instant, Duration),
    /// The window is cut into equal segments of about half a second; for each,
    /// the CPU time the host stole from the guest during it, milliseconds.
    pub steal_ms: Vec<f64>,
    /// Every acked op of the lap, warm-up included, in no particular order.
    pub ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    /// Verdict of the correctness gate, with what diverged.
    pub gate: Result<(), String>,
    /// Elections started, summed over replicas, over the whole lap.
    pub elections: u64,
    /// One election and no frame shed by a full send queue in the window:
    /// the lap measured steady state, not an election or overload.
    pub steady: bool,
    /// Scrape counters (replica registries + transports, summed): their
    /// growth over the measured window.
    pub counters: BTreeMap<String, u64>,
    /// Process CPU (user + system) over the measured window, milliseconds.
    pub cpu_ms: f64,
    pub rss_mb: f64,
    /// Trace clock epoch and the probe events of all replicas (traced laps).
    pub trace: Option<(Instant, Vec<TraceEvent>)>,
}

impl Lap {
    /// Ops first-acked inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &Op> {
        let (start, len) = self.window;
        self.ops.iter().filter(move |o| o.acked >= start && o.acked < start + len)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Frames shed by full transport send queues in the window.
    pub fn shed(&self) -> u64 {
        self.counter(SHED)
    }
}

struct Shared {
    members: Vec<(u32, SocketAddr)>,
    ready: AtomicUsize,
    /// Start of warm-up, published once every client is connected.
    start: OnceLock<Instant>,
    run: Duration,
}

/// One connection's generator state.
struct Driver {
    id: u64,
    client: NetClient,
    ops: Vec<Op>,
    /// Indices into `ops` not yet covered by a `Confirmed` watermark.
    unconfirmed: VecDeque<usize>,
    failed: u64,
    /// Pool index of the last request sent to each device.
    last: HashMap<u16, usize>,
}

impl Driver {
    fn op(&mut self, pool: &[Request], k: usize, due: Instant) {
        let req = &pool[k % pool.len()];
        self.last.insert(req.device, k % pool.len());
        let sent = Instant::now();
        match self.client.submit(req.payload.clone(), OP_TIMEOUT) {
            Ok((id, weak)) => {
                let acked = Instant::now();
                self.unconfirmed.push_back(self.ops.len());
                self.ops.push(Op {
                    client: self.id,
                    request: id.0,
                    due,
                    sent,
                    acked,
                    weak,
                    confirmed: None,
                });
            }
            Err(_) => {
                self.failed += 1;
                self.client.await_ready(OP_TIMEOUT);
            }
        }
        self.reap();
    }

    /// `Confirmed{N}` is cumulative: it covers every request id ≤ N.
    fn reap(&mut self) {
        for watermark in self.client.take_confirmed() {
            let now = Instant::now();
            while let Some(&i) = self.unconfirmed.front() {
                if self.ops[i].request > watermark.0 {
                    break;
                }
                self.ops[i].confirmed = Some(now);
                self.unconfirmed.pop_front();
            }
        }
    }
}

struct ClientOut {
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    /// `(device, payload)` of the last request sent to each device.
    last: Vec<(u16, bytes::Bytes)>,
}

fn drive(sh: &Shared, w: &Workload, t: usize, pool: &[Request]) -> ClientOut {
    let id = CLIENT_ID_BASE + t as u64;
    let mut d = Driver {
        id,
        client: NetClient::new(
            CLUSTER_ID,
            ClientId(id),
            sh.members.clone(),
            TimeDelta::from_millis(REQUEST_TIMEOUT_MS),
        ),
        ops: Vec::new(),
        unconfirmed: VecDeque::new(),
        failed: 0,
        last: HashMap::new(),
    };
    // The first request dials and handshakes: part of set-up.
    d.op(pool, 0, Instant::now());
    sh.ready.fetch_add(1, Ordering::SeqCst);
    let start = loop {
        match sh.start.get() {
            Some(&s) => break s,
            None => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    let end = start + sh.run;
    let mut k = 1usize;
    match w.pace {
        None => {
            while Instant::now() < end {
                d.op(pool, k, Instant::now());
                k += 1;
            }
        }
        Some(interval) => {
            // Connections are phase-staggered across one interval.
            let phase = interval * t as u32 / w.clients as u32;
            loop {
                let due = start + phase + interval * (k as u32 - 1);
                if due >= end {
                    break;
                }
                // Read confirmations as they arrive, not at the next request:
                // `drain` returns once the opList is empty.
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    if d.client.op_list_len() > 0 {
                        d.client.drain(wait);
                        d.reap();
                    }
                }
                sleep_until(due);
                d.op(pool, k, due);
                k += 1;
            }
        }
    }
    d.client.drain(OP_TIMEOUT);
    d.reap();
    let unconfirmed = d.unconfirmed.len() as u64;
    ClientOut {
        attempted: d.ops.len() as u64 + d.failed,
        failed: d.failed + unconfirmed,
        last: d.last.iter().map(|(&dev, &i)| (dev, pool[i].payload.clone())).collect(),
        ops: d.ops,
    }
}

/// Sum of the public scrape counters of every replica and transport.
fn scrape(servers: &[NodeServer<KvStore>]) -> BTreeMap<String, u64> {
    let mut sum = BTreeMap::new();
    for s in servers {
        let c = s.cluster();
        for snap in [Some(c.registry(0).snapshot()), c.transport().scrape()].into_iter().flatten() {
            for (k, v) in snap.counters {
                *sum.entry(k).or_insert(0) += v;
            }
        }
    }
    sum
}

/// Process user + system CPU time so far, in milliseconds.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<f64> = rest.split_whitespace().skip(11).take(2).flat_map(str::parse).collect();
    f.iter().sum::<f64>() * 10.0
}

/// CPU time the host has stolen from this guest so far (`/proc/stat`, 8th
/// value of the `cpu` line, in ticks of 10 ms), in milliseconds.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or("");
    cpu.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) * 10.0
}

/// Resident set size now, in MB.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while !cond() {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Run one lap of `w`. `Err` means the cluster could not be brought up; the
/// verdict of the correctness gate is in [`Lap::gate`].
pub fn run_lap(w: &Workload, o: &LapOpts) -> Result<Lap, String> {
    let pools: Vec<Vec<Request>> =
        (0..w.clients).map(|t| request_pool(o.seed, t, w.clients, w.payload)).collect();

    let t0 = Instant::now();
    // Bind every listener first so the OS hands out conflict-free ports.
    let listeners: Vec<TcpListener> = (0..o.replicas)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}")))
        .collect::<Result<_, _>>()?;
    let mut members = Vec::new();
    for (i, l) in listeners.iter().enumerate() {
        members.push((i as u32, l.local_addr().map_err(|e| format!("local addr: {e}"))?));
    }
    let mut probes: Vec<SharedProbe> = Vec::new();
    let mut servers: Vec<NodeServer<KvStore>> = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut cluster = ClusterConfig {
            compact_after: Some(COMPACT_AFTER),
            // Staggered per-node seeds keep the cold-start election one
            // round long. They do not follow `--seed`: the seed varies the
            // inputs, not the program's configuration.
            seed: 42 ^ ((i as u64) << 8),
            // One trace clock for all replicas of the process.
            trace_epoch: Some(t0),
            ..ClusterConfig::default()
        };
        if o.traced {
            let (probe, handle) = EngineProbe::shared();
            cluster.probe = probe;
            probes.push(handle);
        }
        let cfg = ServeConfig {
            cluster_id: CLUSTER_ID,
            node_id: i as u32,
            bind: members[i].1,
            peers: members.iter().filter(|&&(id, _)| id != i as u32).copied().collect(),
            cluster,
            metrics_bind: None,
            link_delay: w.link_delay,
            peer_lanes: 1,
            link_loss_pct: w.loss_pct,
            faults: None,
        };
        servers.push(NodeServer::spawn_on(cfg, listener).map_err(|e| format!("spawn: {e}"))?);
    }
    let mut leader = None;
    wait_until(Duration::from_secs(10), || {
        leader = servers.iter().position(|s| {
            let st = s.cluster().status(0);
            st.alive && st.is_leader
        });
        leader.is_some()
    });
    let leader = leader.ok_or("no leader elected within 10 s")?;
    // Clients dial the leader first, as a deployed client that knows it would.
    members.swap(0, leader);

    let sh = Shared {
        members,
        ready: AtomicUsize::new(0),
        start: OnceLock::new(),
        run: o.warmup + o.measure,
    };
    let mut setup_s = 0.0;
    let mut window_start = t0;
    let (mut before, mut after) = (BTreeMap::new(), BTreeMap::new());
    let (mut cpu0, mut cpu1) = (0.0, 0.0);
    // About half a second each.
    let segments = ((o.measure.as_secs_f64() * 2.0) as u32).max(1);
    let mut steal = Vec::new();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(t, pool)| {
                let sh = &sh;
                scope.spawn(move || drive(sh, w, t, pool))
            })
            .collect();
        // A client that cannot connect fails its first op after OP_TIMEOUT.
        wait_until(OP_TIMEOUT * 2, || sh.ready.load(Ordering::SeqCst) == w.clients);
        setup_s = t0.elapsed().as_secs_f64();
        let start = Instant::now();
        sh.start.set(start).expect("start is published once");
        window_start = start + o.warmup;
        sleep_until(window_start);
        (before, cpu0) = (scrape(&servers), cpu_ms());
        // Sample the host's steal counter at every segment boundary.
        let mut stolen = steal_ms();
        for k in 1..=segments {
            sleep_until(window_start + o.measure * k / segments);
            let now = steal_ms();
            steal.push(now - stolen);
            stolen = now;
        }
        (after, cpu1) = (scrape(&servers), cpu_ms());
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let attempted: u64 = outs.iter().map(|c| c.attempted).sum();
    let failed: u64 = outs.iter().map(|c| c.failed).sum();
    let totals = scrape(&servers);
    let elections = totals.get("elections").copied().unwrap_or(0);
    let counters: BTreeMap<String, u64> = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0).min(*v)))
        .collect();
    let steady = elections == 1 && counters.get(SHED).copied().unwrap_or(0) == 0;
    let gate = verify(&servers, &outs, attempted, failed, steady);
    let rss_mb = rss_mb();
    // Dropping the servers joins the replica threads, so the probe buffers
    // are quiescent when they are taken.
    drop(servers);
    let trace = o.traced.then(|| (t0, probes.iter().flat_map(SharedProbe::take).collect()));
    Ok(Lap {
        setup_s,
        window: (window_start, o.measure),
        steal_ms: steal,
        ops: outs.into_iter().flat_map(|c| c.ops).collect(),
        attempted,
        failed,
        gate,
        elections,
        steady,
        counters,
        cpu_ms: cpu1 - cpu0,
        rss_mb,
        trace,
    })
}

/// The correctness gate. All replicas reach the same commit index with
/// nothing left to apply; their state-machine snapshots are byte-equal; the
/// snapshot equals the one the generator predicts from the last request it
/// sent to each device (every acked write present, none reordered, none
/// duplicated past the dedup table); and the log holds exactly one entry
/// per proposal plus the leader's no-op.
///
/// After an election storm a follower can stay behind for longer than this
/// waits (seen under the 4 KiB load when the host freezes the guest: shed
/// heartbeats, dozens of elections, one replica left with a stale suffix).
/// That is slow recovery, not a wrong output: in a lap that was not
/// `steady`, replicas still behind are reported and left out, provided a
/// majority has converged. In a steady lap every replica must.
fn verify(
    servers: &[NodeServer<KvStore>],
    outs: &[ClientOut],
    attempted: u64,
    failed: u64,
    steady: bool,
) -> Result<(), String> {
    let status = || servers.iter().map(|s| s.cluster().status(0)).collect::<Vec<_>>();
    let caught_up = |st: &[nbr_cluster::NodeStatus]| -> Vec<usize> {
        let head = st.iter().map(|s| s.commit).max().unwrap_or(0);
        let at_head = |s: &nbr_cluster::NodeStatus| {
            s.commit == head && s.applied == head && s.last_index == head
        };
        (0..st.len()).filter(|&i| at_head(&st[i]) && head >= attempted - failed).collect()
    };
    wait_until(OP_TIMEOUT, || caught_up(&status()).len() == servers.len());
    let up = caught_up(&status());
    if up.len() < servers.len() {
        if steady || up.len() * 2 <= servers.len() {
            return Err(format!("replicas did not converge: {:?}", status()));
        }
        eprintln!("benchmark: after an election storm, still behind: {:?}", status());
    }
    let snaps: Vec<bytes::Bytes> =
        up.iter().map(|&i| servers[i].cluster().machine(0).lock().snapshot()).collect();
    if snaps.iter().any(|s| s != &snaps[0]) {
        return Err("replica state machines differ".into());
    }
    let totals = scrape(servers);
    let count = |k: &str| totals.get(k).copied().unwrap_or(0);
    if count("elections") == 1 {
        let commit = status()[0].commit;
        if commit != 1 + count("proposals") || count("proposals") < attempted - failed {
            return Err(format!(
                "log accounting: commit {commit}, proposals {}, ops {attempted}",
                count("proposals")
            ));
        }
    }
    if failed == 0 {
        // A failed op may or may not have been applied, so only a lap
        // without failures has a predictable final state.
        let mut last: Vec<&(u16, bytes::Bytes)> = outs.iter().flat_map(|c| &c.last).collect();
        last.sort_by_key(|(device, _)| *device);
        let mut model = KvStore::new();
        for (i, (_, payload)) in last.into_iter().enumerate() {
            let index = LogIndex(i as u64 + 1);
            model.apply(&Entry::data(index, Term(1), Term(1), None, payload.clone()));
        }
        if model.snapshot() != snaps[0] {
            return Err("replicated state differs from the state the generator predicts".into());
        }
    }
    Ok(())
}

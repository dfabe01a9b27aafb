//! `demo`, `serve` and `bench-net`: the live cluster — in-process, one TCP
//! replica per process, and the closed-loop TCP bench.

use crate::{die, Args};
use bytes::Bytes;
use nbr_cluster::{Cluster, ClusterConfig, StorageMode};
use nbr_net::{NetClient, NodeServer, ServeConfig};
use nbr_obs::{EngineProbe, TraceEvent};
use nbr_storage::KvStore;
use nbr_types::{ClientId, Protocol, TimeDelta, MAX_GROUPS};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DEMO_OPTS: &str = "protocol window replicas clients seconds";
pub const SERVE_OPTS: &str = "node-id peers bind cluster-id metrics wal protocol window seed \
                              groups rtt-ms lanes loss-pct trace quiet";
pub const BENCH_NET_OPTS: &str = "window groups clients clients-per-group replicas seconds \
                                  payload protocol rtt-ms lanes loss-pct trace-dir peers \
                                  cluster-id";

pub fn cmd_demo(args: &Args) {
    let n = args.get("replicas", 3usize);
    let seconds = args.get("seconds", 5u64);
    let clients = args.get("clients", 4usize);
    let cluster_cfg = ClusterConfig {
        protocol: args.protocol().config(args.get("window", 10_000usize)),
        ..ClusterConfig::default()
    };
    println!(
        "spawning a live {}-replica {} cluster for {seconds}s with {clients} client threads...",
        n,
        cluster_cfg.protocol.protocol.name()
    );
    let cluster: Cluster<KvStore> = Cluster::spawn(n, cluster_cfg);
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("no leader elected");
    println!("leader elected: node {leader}");

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..clients {
        let mut client = cluster.client();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let (mut ops, mut weak, mut i) = (0u64, 0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                if let Ok((_, w)) =
                    client.submit(Bytes::from(format!("t{t}.k{i}=v{i}")), Duration::from_secs(5))
                {
                    ops += 1;
                    weak += u64::from(w);
                }
            }
            (ops, weak)
        }));
    }
    for s in 1..=seconds {
        std::thread::sleep(Duration::from_secs(1));
        let status = cluster.status(leader);
        println!(
            "  t={s}s  leader commit={} applied={} term={}",
            status.commit, status.applied, status.term
        );
    }
    stop.store(true, Ordering::Relaxed);
    let (total, weak_total) = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .fold((0, 0), |sum, (ops, weak)| (sum.0 + ops, sum.1 + weak));
    println!(
        "done: {total} ops in {seconds}s ({:.0} ops/s), {weak_total} weak-acked early",
        total as f64 / seconds as f64
    );
    let kv = cluster.machine(leader);
    println!("leader state machine holds {} keys", kv.lock().len());
}

/// Parse a `host:port,host:port,...` membership list; node id = position.
fn parse_members(list: &str) -> Vec<(u32, SocketAddr)> {
    let addr =
        |a: &str| a.trim().parse().unwrap_or_else(|_| die(2, format!("invalid address: {a}")));
    list.split(',').enumerate().map(|(i, a)| (i as u32, addr(a))).collect()
}

/// A group count from the command line must be one the wire can carry.
fn check_groups(groups: u32) -> u32 {
    if !(1..=MAX_GROUPS).contains(&groups) {
        die(2, format!("group count {groups} out of range 1..={MAX_GROUPS}"));
    }
    groups
}

pub fn cmd_serve(args: &Args) {
    let members = parse_members(args.str("peers").unwrap_or_else(|| {
        die(2, "serve: --peers host:port,host:port,... is required (node id = position)")
    }));
    let node_id: u32 = args.get("node-id", 0u32);
    if node_id as usize >= members.len() {
        die(2, format!("serve: --node-id {node_id} out of range for {} members", members.len()));
    }
    let bind = args.opt("bind").unwrap_or(members[node_id as usize].1);
    let mut cluster_cfg = ClusterConfig {
        protocol: args.protocol().config(args.get("window", 10_000usize)),
        seed: args.get("seed", 42u64),
        ..ClusterConfig::default()
    };
    if let Some(dir) = args.str("wal") {
        cluster_cfg.storage = StorageMode::Wal(dir.into());
    }
    let groups = check_groups(args.get("groups", 1u32));
    // --trace FILE: every group and the transport record into this one
    // buffer (group g's replica ids offset by the server), and the
    // cumulative JSONL is flushed periodically, so a kill -9 (the net
    // smoke's crash tier) still leaves a usable trace behind.
    let trace_path = args.str("trace");
    let (probe, buffer) = EngineProbe::shared();
    if let Some(path) = trace_path {
        println!("tracing probe events to {path} (flushed every 500ms)");
        cluster_cfg.probe = probe;
    }
    let cfg = ServeConfig {
        cluster_id: args.get("cluster-id", 1u64),
        node_id,
        bind,
        peers: members.iter().filter(|&&(id, _)| id != node_id).copied().collect(),
        cluster: cluster_cfg,
        metrics_bind: args.opt("metrics"),
        link_delay: Duration::from_micros(args.get("rtt-ms", 0u64) * 500),
        peer_lanes: args.get("lanes", 1usize),
        link_loss_pct: args.get("loss-pct", 0.0f64),
        faults: None,
    };
    let server: NodeServer<KvStore> =
        NodeServer::spawn(cfg, groups).unwrap_or_else(|e| die(1, format!("serve: {e}")));
    let of_groups = if groups == 1 { String::new() } else { format!(" {groups} groups") };
    println!(
        "node {node_id}/{} serving{of_groups} on {}{}",
        members.len(),
        server.transport_addr().map_or_else(|| bind.to_string(), |a| a.to_string()),
        server
            .metrics_addr()
            .map_or_else(String::new, |a| format!(", metrics on http://{a}/metrics"))
    );
    let quiet = args.has("quiet");
    let mut events: Vec<TraceEvent> = Vec::new();
    for tick in 1u64.. {
        std::thread::sleep(Duration::from_millis(500));
        if let Some(path) = trace_path {
            events.extend(buffer.take());
            // Write-then-rename: collectors read these files while the
            // server is live, and a plain truncate+write would hand them a
            // half-written (or empty) trace mid-flush.
            let tmp = format!("{path}.tmp");
            if std::fs::write(&tmp, nbr_obs::trace::to_jsonl(&events)).is_ok() {
                let _ = std::fs::rename(&tmp, path);
            }
        }
        // One status line a second.
        if quiet || tick % 2 == 1 {
            continue;
        }
        let status: Vec<_> = (0..groups).map(|g| server.group(g).status(0)).collect();
        if let [s] = status.as_slice() {
            println!(
                "node {node_id} {} term={} commit={} applied={}",
                if s.is_leader { "LEADER" } else { "follower" },
                s.term,
                s.commit,
                s.applied
            );
        } else {
            let leading: Vec<u32> = (0..groups)
                .zip(&status)
                .filter(|(_, s)| s.alive && s.is_leader)
                .map(|(g, _)| g)
                .collect();
            println!(
                "node {node_id} leads {}/{groups} groups {leading:?} \
                 commit(sum)={} applied(sum)={}",
                leading.len(),
                status.iter().map(|s| s.commit).sum::<u64>(),
                status.iter().map(|s| s.applied).sum::<u64>()
            );
        }
    }
}

/// Totals of one closed-loop client drive: one row of the `bench-net` table.
struct NetBenchRun {
    ops: u64,
    weak: u64,
    elapsed: f64,
    /// Commit (durable-confirmation) latency samples in nanoseconds:
    /// request issue → cumulative `Confirmed` watermark covering it.
    commit_lat_ns: Vec<u64>,
}

/// What every run of one `bench-net` invocation shares; the window, group
/// count and client count are the run matrix's coordinates.
struct BenchNet {
    cluster_id: u64,
    replicas: usize,
    seconds: u64,
    payload: usize,
    protocol: Protocol,
    rtt_ms: u64,
    lanes: usize,
    loss_pct: f64,
}

/// Drive `clients` closed-loop socket clients against `members` for
/// `b.seconds`. With `groups > 1` the client pool is split round-robin across
/// the groups (thread `t` drives group `t % groups`), with globally unique
/// client ids — response routing over the shared links is by `ClientId`.
fn drive_net_clients(
    b: &BenchNet,
    members: &[(u32, SocketAddr)],
    clients: usize,
    groups: u32,
) -> NetBenchRun {
    let (cluster_id, payload) = (b.cluster_id, b.payload);
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..clients {
        let members = members.to_vec();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let group = t as u32 % groups;
            let mut client = NetClient::new_in_group(
                cluster_id,
                groups,
                group,
                ClientId(1_000 + u64::from(group) * 10_000 + t as u64),
                members,
                TimeDelta::from_millis(300),
            );
            let (mut ops, mut weak, mut i) = (0u64, 0u64, 0u64);
            // Issue instants of requests not yet covered by a Confirmed
            // watermark. Confirmed{N} is cumulative (everything ≤ N is
            // committed), so each watermark drains a whole prefix.
            let mut pending: BTreeMap<u64, Instant> = BTreeMap::new();
            let mut lats: Vec<u64> = Vec::new();
            let mut reap = |client: &mut NetClient, pending: &mut BTreeMap<u64, Instant>| {
                for r in client.take_confirmed() {
                    let done = Instant::now();
                    let uncovered = pending.split_off(&(r.0 + 1));
                    let covered = std::mem::replace(pending, uncovered);
                    lats.extend(
                        covered.values().map(|at| done.duration_since(*at).as_nanos() as u64),
                    );
                }
            };
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let mut buf = format!("t{t}.k{i}=").into_bytes();
                buf.resize(buf.len() + payload, b'x');
                let issued = Instant::now();
                if let Ok((id, w)) = client.submit(Bytes::from(buf), Duration::from_secs(5)) {
                    ops += 1;
                    weak += u64::from(w);
                    pending.insert(id.0, issued);
                }
                reap(&mut client, &mut pending);
            }
            client.drain(Duration::from_secs(5));
            reap(&mut client, &mut pending);
            (ops, weak, lats)
        }));
    }
    std::thread::sleep(Duration::from_secs(b.seconds));
    stop.store(true, Ordering::Relaxed);
    let mut run = NetBenchRun { ops: 0, weak: 0, elapsed: 0.0, commit_lat_ns: Vec::new() };
    for h in handles {
        let (o, w, lats) = h.join().expect("client thread");
        run.ops += o;
        run.weak += w;
        run.commit_lat_ns.extend(lats);
    }
    run.elapsed = started.elapsed().as_secs_f64();
    run
}

/// Spawn a self-hosted loopback TCP cluster — `b.replicas` servers, each
/// hosting one replica of every one of `groups` Raft groups over shared
/// per-peer links — and drive it. With `trace_dir`, every replica records
/// probe events (engine lifecycle + transport clock samples) and the per-node
/// traces land in `trace_dir/node{i}.jsonl` for span assembly.
fn bench_net_once(
    b: &BenchNet,
    window: usize,
    groups: u32,
    clients: usize,
    trace_dir: Option<&Path>,
) -> NetBenchRun {
    let mut buffers = Vec::new();
    let (servers, members) =
        NodeServer::<KvStore>::spawn_loopback(&vec![groups; b.replicas], |cfg| {
            cfg.cluster_id = b.cluster_id;
            cfg.cluster.protocol = b.protocol.config(window);
            // Staggered per-node seeds keep cold-start elections one round
            // long; per-group decorrelation is the server's job.
            cfg.cluster.seed = 42 ^ (u64::from(cfg.node_id) << 8);
            if trace_dir.is_some() {
                let (probe, buffer) = EngineProbe::shared();
                cfg.cluster.probe = probe;
                buffers.push(buffer);
            }
            // Half the round trip per hop: leader -> follower -> leader.
            cfg.link_delay = Duration::from_micros(b.rtt_ms * 500);
            cfg.peer_lanes = b.lanes;
            cfg.link_loss_pct = b.loss_pct;
        })
        .expect("spawn node servers");
    // Every group must elect before the drive starts, or the early seconds
    // measure elections rather than steady-state replication.
    nbr_net::await_leaders(&servers, Duration::from_secs(15)).expect("cold start");

    let run = drive_net_clients(b, &members, clients, groups);
    // Dropping the servers stops the replica loops, so the probe buffers
    // are quiescent (and hold the tail Applied events) when we flush them.
    drop(servers);
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(1, format!("cannot create trace dir {}: {e}", dir.display())));
        for (i, buffer) in buffers.iter().enumerate() {
            let path = dir.join(format!("node{i}.jsonl"));
            std::fs::write(&path, nbr_obs::trace::to_jsonl(&buffer.take()))
                .unwrap_or_else(|e| die(1, format!("cannot write trace {}: {e}", path.display())));
        }
    }
    run
}

/// `bench-net`: one run matrix, one table. The runs are `--window` ×
/// `--groups` in the order given, each on a fresh loopback cluster, so the
/// first row is the baseline of the rest on the same server stack. With
/// `--clients-per-group` a groups list is a weak-scaling sweep: the device
/// fleet grows with the shard count, and since a closed-loop client is bound
/// at one op per commit RTT, only added groups can serve it any faster.
pub fn cmd_bench_net(args: &Args) {
    let windows: Vec<usize> = args.list("window", 10_000);
    let groups: Vec<u32> = args.list("groups", 1).into_iter().map(check_groups).collect();
    let per_group: Option<usize> = args.opt("clients-per-group");
    if per_group.is_some() && args.has("clients") {
        die(2, "bench-net: give --clients (total) or --clients-per-group, not both");
    }
    let peers = args.str("peers").map(parse_members);
    let trace_dir = args.str("trace-dir").map(Path::new);
    if peers.is_some() && windows.len() * groups.len() > 1 {
        die(2, "bench-net: --peers drives one running cluster: one --window, one --groups");
    }
    if trace_dir.is_some() && (peers.is_some() || groups.len() > 1) {
        die(2, "bench-net: --trace-dir (DIR/window-W/) takes one --groups value and no --peers");
    }
    // Loopback TCP is in-order and lossless, so followers never block on a
    // log gap and weak acks buy nothing over strong ones. A jittered RTT
    // and a little frame loss reproduce the imperfect network of the
    // paper's IoT setting — the regime the window exists for: a lost entry
    // stalls stock Raft's in-order pipeline for whole heartbeat-repair
    // rounds, while window>=4 keeps weak-accepting around the gap. The
    // default single lane per peer matches the transport default (batched
    // frames make one FIFO connection the right shape; further lanes only
    // take the spill of a backed-up one); pass --rtt-ms 0 --loss-pct 0 for
    // raw loopback numbers.
    let b = BenchNet {
        cluster_id: args.get("cluster-id", 1u64),
        replicas: args.get("replicas", 3usize),
        seconds: args.get("seconds", 3u64),
        payload: args.get("payload", 256usize),
        protocol: args.protocol(),
        rtt_ms: args.get("rtt-ms", 10u64),
        lanes: args.get("lanes", 1usize),
        loss_pct: args.get("loss-pct", 2.0f64),
    };
    let target = match args.str("peers") {
        Some(list) => format!("running cluster {list}"),
        None => format!(
            "{} replicas over loopback TCP ({}ms emulated RTT, {} lanes/peer, {}% loss)",
            b.replicas, b.rtt_ms, b.lanes, b.loss_pct
        ),
    };
    println!("bench-net: {target}, {}s per run, {}B payloads", b.seconds, b.payload);
    println!(
        "{:>7} {:>6} {:>7} {:>10} {:>9} {:>9} {:>8} {:>8} {:>7}",
        "window", "groups", "clients", "ops/s", "ops", "weak", "p50ms", "p99ms", "×first"
    );
    let total = args.get("clients", 16usize);
    let mut first = None;
    for &w in &windows {
        for &g in &groups {
            let clients = per_group.map_or(total, |k| k * g as usize);
            let mut run = match &peers {
                Some(members) => drive_net_clients(&b, members, clients, g),
                None => {
                    let dir = trace_dir.map(|d| d.join(format!("window-{w}")));
                    bench_net_once(&b, w, g, clients, dir.as_deref())
                }
            };
            let tput = run.ops as f64 / run.elapsed.max(1e-9);
            run.commit_lat_ns.sort_unstable();
            let pctl_ms = |p: f64| match run.commit_lat_ns.len() {
                0 => 0.0,
                n => run.commit_lat_ns[((n - 1) as f64 * p).round() as usize] as f64 / 1e6,
            };
            println!(
                "{w:>7} {g:>6} {clients:>7} {tput:>10.0} {:>9} {:>9} {:>8.1} {:>8.1} {:>6.2}×",
                run.ops,
                run.weak,
                pctl_ms(0.50),
                pctl_ms(0.99),
                tput / first.get_or_insert(tput).max(1e-9)
            );
        }
    }
    if let Some(d) = trace_dir {
        let d = d.display();
        println!("wrote per-node traces under {d} (analyze: nbraft-cli trace --critical-path {d})");
    }
}

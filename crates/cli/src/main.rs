//! `nbraft-cli` — command-line front end for the NB-Raft reproduction.
//!
//! ```text
//! nbraft-cli sim   [--protocol P] [--clients N] [--replicas N] [--payload BYTES]
//!              [--dispatchers N] [--window W] [--duration-ms MS] [--seed S]
//!              [--geo] [--cloud] [--cpu-scale F]
//! nbraft-cli petri [--clients N] [--dispatchers N] [--non-blocking]
//!              [--ratis] [--horizon-ms MS] [--dot FILE]
//! nbraft-cli demo  [--protocol P] [--replicas N] [--clients N] [--seconds S]
//! nbraft-cli trace FILE | --compare [--window W] | --critical-path PATH
//! ```

use bytes::Bytes;
use nbr_cluster::{Cluster, ClusterConfig, StorageMode};
use nbr_net::{NetClient, NodeServer, ServeConfig};
use nbr_obs::{analyze, EngineProbe, TraceEvent};
use nbr_petri::{CostProfile, ModelConfig, ReplicationModel};
use nbr_sim::{run, CostModel, GeoMatrix, SimConfig, SimResult};
use nbr_storage::KvStore;
use nbr_types::{ClientId, Protocol, TimeDelta, MAX_GROUPS};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

fn parse_protocol(s: &str) -> Option<Protocol> {
    match s.to_ascii_lowercase().as_str() {
        "raft" => Some(Protocol::Raft),
        "nbraft" | "nb-raft" | "nb" => Some(Protocol::NbRaft),
        "craft" => Some(Protocol::CRaft),
        "nbcraft" | "nb-raft+craft" | "nb+craft" => Some(Protocol::NbCRaft),
        "ecraft" => Some(Protocol::EcRaft),
        "kraft" => Some(Protocol::KRaft),
        "vgraft" => Some(Protocol::VgRaft),
        _ => None,
    }
}

/// Minimal `--key value` / `--flag` parser.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    values.insert(key.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                eprintln!("unexpected argument: {a}");
                std::process::exit(2);
            }
        }
        Args { values, flags }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// `--groups N`: Raft groups per server process (default 1).
    fn groups(&self) -> u32 {
        check_groups(self.get("groups", 1u32))
    }

    fn protocol(&self) -> Protocol {
        match self.values.get("protocol") {
            Some(v) => parse_protocol(v).unwrap_or_else(|| {
                eprintln!(
                    "unknown protocol {v}; one of raft|nbraft|craft|nbcraft|ecraft|kraft|vgraft"
                );
                std::process::exit(2);
            }),
            None => Protocol::NbRaft,
        }
    }
}

/// A group count from the command line must be one the wire can carry.
fn check_groups(groups: u32) -> u32 {
    if !(1..=MAX_GROUPS).contains(&groups) {
        eprintln!("group count {groups} out of range 1..={MAX_GROUPS}");
        std::process::exit(2);
    }
    groups
}

fn cmd_sim(args: &Args) {
    let clients = args.get("clients", 256usize);
    let trace_path = args.values.get("trace").cloned();
    let (probe, buf) = if trace_path.is_some() {
        let (p, b) = EngineProbe::shared();
        (p, Some(b))
    } else {
        (EngineProbe::Off, None)
    };
    let cfg = SimConfig {
        protocol: args.protocol(),
        window: args.get("window", 10_000usize),
        n_replicas: args.get("replicas", 3usize),
        n_clients: clients,
        n_dispatchers: args.get("dispatchers", clients),
        payload: args.get("payload", 4096usize),
        duration: TimeDelta::from_millis(args.get("duration-ms", 1000u64)),
        warmup: TimeDelta::from_millis(args.get("warmup-ms", 300u64)),
        costs: if args.has("cloud") { CostModel::cloud() } else { CostModel::default() },
        geo: args.has("geo").then(GeoMatrix::alibaba_five_cities),
        cpu_scale: args.get("cpu-scale", 1.0f64),
        seed: args.get("seed", 42u64),
        trace: probe,
        ..Default::default()
    };
    println!(
        "simulating {} — {} replicas, {} clients, {}B payloads...",
        cfg.protocol.name(),
        cfg.n_replicas,
        cfg.n_clients,
        cfg.payload
    );
    let r = run(cfg);
    println!("throughput        {:>12.0} ops/s", r.throughput);
    println!("latency mean      {:>12.3} ms", r.latency_mean_ms);
    println!("latency p50/p99   {:>7.3} / {:.3} ms", r.latency_p50_ms, r.latency_p99_ms);
    println!("issued/acked      {:>12} / {}", r.issued, r.acked);
    println!(
        "weak-acked        {:>12} ({:.1}% of acks)",
        r.weak_acked,
        if r.acked == 0 { 0.0 } else { 100.0 * r.weak_acked as f64 / r.acked as f64 }
    );
    println!("t_wait mean       {:>12.3} ms", r.twait_mean_ms);
    println!("entries parked    {:>12}", r.stats.parked);
    println!("window flushes    {:>12}", r.stats.window_flushes);
    println!("elections         {:>12}", r.elections);
    if let (Some(path), Some(buf)) = (trace_path, buf) {
        let events = buf.take();
        if let Err(e) = std::fs::write(&path, nbr_obs::trace::to_jsonl(&events)) {
            eprintln!("failed to write trace {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {} trace events to {path} (analyze: nbraft-cli trace {path})",
            events.len()
        );
    }
}

/// One traced simulation run for `trace --compare`; identical configuration
/// apart from the window size (window 0 == stock Raft on the same engine).
fn traced_sim(args: &Args, window: usize) -> (SimResult, Vec<TraceEvent>) {
    let (probe, buf) = EngineProbe::shared();
    let clients = args.get("clients", 64usize);
    let cfg = SimConfig {
        protocol: args.protocol(),
        window,
        n_replicas: args.get("replicas", 3usize),
        n_clients: clients,
        n_dispatchers: args.get("dispatchers", clients),
        payload: args.get("payload", 1024usize),
        duration: TimeDelta::from_millis(args.get("duration-ms", 400u64)),
        warmup: TimeDelta::from_millis(args.get("warmup-ms", 100u64)),
        costs: if args.has("cloud") { CostModel::cloud() } else { CostModel::default() },
        geo: args.has("geo").then(GeoMatrix::alibaba_five_cities),
        seed: args.get("seed", 42u64),
        trace: probe,
        ..Default::default()
    };
    let r = run(cfg);
    (r, buf.take())
}

/// Read one JSONL trace file, or every `*.jsonl` in a directory merged
/// (per-node traces of one run).
fn load_trace_events(path: &std::path::Path) -> Vec<TraceEvent> {
    let mut files: Vec<std::path::PathBuf> = if path.is_dir() {
        let entries = std::fs::read_dir(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no .jsonl traces in {}", path.display());
        std::process::exit(1);
    }
    let mut events = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", f.display());
            std::process::exit(1);
        });
        events.extend(nbr_obs::trace::from_jsonl(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", f.display());
            std::process::exit(1);
        }));
    }
    events
}

/// Align, assemble and attribute one run's merged trace.
fn critical_report(events: &[TraceEvent]) -> nbr_obs::CriticalPath {
    let align = nbr_obs::ClockAlign::estimate(events);
    let aligned = align.apply(events);
    let spans = nbr_obs::collect(&aligned);
    nbr_obs::critical_path(&spans, &aligned, &align)
}

/// `trace --critical-path PATH`: PATH is a trace file, a directory of
/// per-node traces (one run), or a directory of `window-*` run directories
/// (e.g. from `bench-net --compare --trace-dir`), which also prints the
/// per-phase deltas between the smallest and largest window.
fn cmd_trace_critical(path: &std::path::Path) {
    let mut windows: Vec<(u64, std::path::PathBuf)> = if path.is_dir() {
        std::fs::read_dir(path)
            .unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(1);
            })
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| {
                let w = p.file_name()?.to_str()?.strip_prefix("window-")?.parse().ok()?;
                p.is_dir().then_some((w, p))
            })
            .collect()
    } else {
        Vec::new()
    };
    windows.sort();
    if windows.is_empty() {
        // Single run (file or flat directory of per-node traces).
        let report = critical_report(&load_trace_events(path));
        print!("{}", report.render());
        return;
    }
    let mut reports = Vec::new();
    for (w, dir) in &windows {
        let report = critical_report(&load_trace_events(dir));
        println!("=== window={w} ===");
        print!("{}", report.render());
        reports.push((*w, report));
    }
    if reports.len() >= 2 {
        let (w0, c0) = &reports[0];
        let (wn, cn) = &reports[reports.len() - 1];
        println!("=== phase deltas (window={w0} − window={wn}) ===");
        let mut dsum = 0.0;
        for ((name, h0), (_, hn)) in c0.phases().iter().zip(cn.phases().iter()) {
            let d = (h0.mean() - hn.mean()) / 1e6;
            dsum += d;
            println!("  {name:<28} mean Δ {d:+10.3} ms");
        }
        // Soundness cross-check: the phases are consecutive intervals of
        // the same span, so their mean deltas must sum to the measured
        // end-to-end delta — a decomposition that doesn't add up means
        // clock alignment (or span assembly) is lying.
        let dtotal = (c0.total.mean() - cn.total.mean()) / 1e6;
        let pct = if dtotal.abs() > 1e-12 { 100.0 * dsum / dtotal } else { 100.0 };
        println!(
            "accounting: phase mean Δs sum to {dsum:.3} ms vs total submit -> commit mean \
             Δ {dtotal:.3} ms ({pct:.0}% accounted)"
        );
        // How much of the follower-wait shift rides the critical path: the
        // `window` phase is the quorum-critical follower's t_wait; the
        // all-follower mean also counts stragglers whose waits commit
        // absorbs off-path.
        let dwindow = (c0.window.mean() - cn.window.mean()) / 1e6;
        let dtwait = (c0.twait_all.mean() - cn.twait_all.mean()) / 1e6;
        println!(
            "t_wait(F): mean Δ {dtwait:.3} ms across all followers, of which \
             {dwindow:.3} ms on the quorum-critical follower (the commit-visible part)"
        );
    }
}

fn cmd_trace(file: Option<&str>, args: &Args) {
    if args.has("critical-path") || args.values.contains_key("critical-path") {
        let path = args.values.get("critical-path").map(String::as_str).or(file);
        let Some(path) = path else {
            eprintln!("trace --critical-path: missing PATH (trace file or directory)");
            std::process::exit(2);
        };
        cmd_trace_critical(std::path::Path::new(path));
        return;
    }
    if args.has("compare") {
        let w = args.get("window", 8usize).max(4);
        println!("tracing window=0 (stock Raft) vs window={w} (NB-Raft), same workload/seed...");
        let (r0, e0) = traced_sim(args, 0);
        let (rw, ew) = traced_sim(args, w);
        let rep0 = analyze(&e0);
        let repw = analyze(&ew);
        println!("--- window=0 --- ({:.0} ops/s)", r0.throughput);
        print!("{}", rep0.render());
        println!("--- window={w} --- ({:.0} ops/s)", rw.throughput);
        print!("{}", repw.render());
        let (m0, mw) = (rep0.twait.mean(), repw.twait.mean());
        println!(
            "mean t_wait(F): window=0 {:.3}ms vs window={w} {:.3}ms — {}",
            m0 / 1e6,
            mw / 1e6,
            if m0 > mw {
                "blocking cost confirmed (stock Raft waits strictly longer)"
            } else {
                "NO separation (increase load/jitter or duration)"
            }
        );
        return;
    }
    let Some(path) = file else {
        eprintln!("trace: missing FILE operand (or use --compare to run paired traced sims)");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let events = nbr_obs::trace::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    print!("{}", analyze(&events).render());
}

fn cmd_petri(args: &Args) {
    let cfg = ModelConfig {
        n_clients: args.get("clients", 256usize),
        n_dispatchers: args.get("dispatchers", 64usize),
        non_blocking: args.has("non-blocking"),
        costs: if args.has("ratis") { CostProfile::ratis() } else { CostProfile::iotdb() },
        seed: args.get("seed", 42u64),
        ..Default::default()
    };
    let model = ReplicationModel::build(cfg);
    if let Some(path) = args.values.get("dot") {
        let dot = model.net_ref().to_dot("Raft log replication (paper Fig. 3)");
        std::fs::write(path, dot).expect("write dot file");
        println!("wrote DOT graph to {path} (render: dot -Tsvg {path})");
    }
    let report = model.run(args.get("horizon-ms", 2000u64));
    println!("throughput {:.0} req/s; per-entry phase breakdown:", report.throughput);
    let mut phases = report.phases.clone();
    phases.sort_by(|a, b| b.per_entry_ns.total_cmp(&a.per_entry_ns));
    for p in &phases {
        println!(
            "  {:<14} {:>10.1} µs {:>6.1}%",
            p.name,
            p.per_entry_ns / 1e3,
            100.0 * report.proportion(p.name)
        );
    }
}

fn cmd_demo(args: &Args) {
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

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..clients {
        let mut client = cluster.client();
        let stop = std::sync::Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut ops = 0u64;
            let mut weak = 0u64;
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                if let Ok((_, w)) =
                    client.submit(Bytes::from(format!("t{t}.k{i}=v{i}")), Duration::from_secs(5))
                {
                    ops += 1;
                    if w {
                        weak += 1;
                    }
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
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total = 0;
    let mut weak_total = 0;
    for h in handles {
        let (ops, weak) = h.join().expect("client thread");
        total += ops;
        weak_total += weak;
    }
    println!(
        "done: {total} ops in {seconds}s ({:.0} ops/s), {weak_total} weak-acked early",
        total as f64 / seconds as f64
    );
    let kv = cluster.machine(leader);
    println!("leader state machine holds {} keys", kv.lock().len());
}

/// Parse a `host:port,host:port,...` membership list; node id = position.
fn parse_members(list: &str) -> Vec<(u32, SocketAddr)> {
    list.split(',')
        .enumerate()
        .map(|(i, a)| {
            let addr = a.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid peer address: {a}");
                std::process::exit(2);
            });
            (i as u32, addr)
        })
        .collect()
}

fn cmd_serve(args: &Args) {
    let Some(list) = args.values.get("peers") else {
        eprintln!("serve: --peers host:port,host:port,... is required (node id = position)");
        std::process::exit(2);
    };
    let members = parse_members(list);
    let node_id: u32 = args.get("node-id", 0u32);
    if node_id as usize >= members.len() {
        eprintln!("serve: --node-id {node_id} out of range for {} members", members.len());
        std::process::exit(2);
    }
    let bind = match args.values.get("bind") {
        Some(b) => b.parse().unwrap_or_else(|_| {
            eprintln!("invalid --bind address: {b}");
            std::process::exit(2);
        }),
        None => members[node_id as usize].1,
    };
    let metrics_bind: Option<SocketAddr> = args.values.get("metrics").map(|m| {
        m.parse().unwrap_or_else(|_| {
            eprintln!("invalid --metrics address: {m}");
            std::process::exit(2);
        })
    });
    let mut cluster_cfg = ClusterConfig {
        protocol: args.protocol().config(args.get("window", 10_000usize)),
        seed: args.get("seed", 42u64),
        ..ClusterConfig::default()
    };
    if let Some(dir) = args.values.get("wal") {
        cluster_cfg.storage = StorageMode::Wal(dir.into());
    }
    let groups = args.groups();
    // --trace FILE: buffer probe events (group 0 in this buffer, every other
    // group in one the server makes) and flush the cumulative JSONL
    // periodically, so a kill -9 (the net smoke's crash tier) still leaves
    // a usable trace behind.
    let trace_path = args.values.get("trace").cloned();
    if trace_path.is_some() {
        cluster_cfg.probe = EngineProbe::shared().0;
    }
    let cfg = ServeConfig {
        cluster_id: args.get("cluster-id", 1u64),
        node_id,
        bind,
        peers: members.iter().filter(|&&(id, _)| id != node_id).copied().collect(),
        cluster: cluster_cfg,
        metrics_bind,
        link_delay: Duration::from_micros(args.get("rtt-ms", 0u64) * 500),
        peer_lanes: args.get("lanes", 1usize),
        link_loss_pct: args.get("loss-pct", 0.0f64),
        faults: None,
    };
    let server: NodeServer<KvStore> = NodeServer::spawn(cfg, groups).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    if let Some(path) = trace_path {
        println!("tracing probe events to {path} (flushed every 500ms)");
        let traces = server.traces();
        let mut events: Vec<TraceEvent> = Vec::new();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(500));
            events.extend(traces.take());
            // Write-then-rename: collectors read these files while the
            // server is live, and a plain truncate+write would hand them a
            // half-written (or empty) trace mid-flush.
            let tmp = format!("{path}.tmp");
            if std::fs::write(&tmp, nbr_obs::trace::to_jsonl(&events)).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        });
    }
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
    loop {
        std::thread::sleep(Duration::from_secs(1));
        if quiet {
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

/// Aggregated result of one closed-loop client drive.
struct NetBenchRun {
    ops: u64,
    weak: u64,
    elapsed: f64,
    /// Commit (durable-confirmation) latency samples in nanoseconds:
    /// request issue → cumulative `Confirmed` watermark covering it.
    commit_lat_ns: Vec<u64>,
}

impl NetBenchRun {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.max(1e-9)
    }

    /// Percentile over the commit-latency samples, in milliseconds.
    fn commit_pctl_ms(&mut self, p: f64) -> f64 {
        if self.commit_lat_ns.is_empty() {
            return 0.0;
        }
        self.commit_lat_ns.sort_unstable();
        let idx = ((self.commit_lat_ns.len() - 1) as f64 * p).round() as usize;
        self.commit_lat_ns[idx] as f64 / 1e6
    }
}

/// Drive `clients` closed-loop socket clients against `members` for
/// `seconds`. With `groups > 1` the client pool is split round-robin across
/// the groups (thread `t` drives group `t % groups`), with globally unique
/// client ids — response routing over the shared links is by `ClientId`.
fn drive_net_clients(
    cluster_id: u64,
    members: &[(u32, SocketAddr)],
    clients: usize,
    seconds: u64,
    payload: usize,
    groups: u32,
) -> NetBenchRun {
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let started = std::time::Instant::now();
    let mut handles = Vec::new();
    for t in 0..clients {
        let members = members.to_vec();
        let stop = std::sync::Arc::clone(&stop);
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
            let mut ops = 0u64;
            let mut weak = 0u64;
            let mut i = 0u64;
            // Issue instants of requests not yet covered by a Confirmed
            // watermark. Confirmed{N} is cumulative (everything ≤ N is
            // committed), so each watermark drains a whole prefix.
            let mut pending: std::collections::BTreeMap<u64, std::time::Instant> =
                std::collections::BTreeMap::new();
            let mut lats: Vec<u64> = Vec::new();
            let reap = |client: &mut NetClient,
                        pending: &mut std::collections::BTreeMap<u64, std::time::Instant>,
                        lats: &mut Vec<u64>| {
                for r in client.take_confirmed() {
                    let done = std::time::Instant::now();
                    let covered: Vec<u64> = pending.range(..=r.0).map(|(&k, _)| k).collect();
                    for k in covered {
                        if let Some(at) = pending.remove(&k) {
                            lats.push(done.duration_since(at).as_nanos() as u64);
                        }
                    }
                }
            };
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                let body = format!("t{t}.k{i}=");
                let mut buf = Vec::with_capacity(body.len() + payload);
                buf.extend_from_slice(body.as_bytes());
                buf.resize(body.len() + payload, b'x');
                let issued = std::time::Instant::now();
                if let Ok((id, w)) = client.submit(Bytes::from(buf), Duration::from_secs(5)) {
                    ops += 1;
                    if w {
                        weak += 1;
                    }
                    pending.insert(id.0, issued);
                }
                reap(&mut client, &mut pending, &mut lats);
            }
            client.drain(Duration::from_secs(5));
            reap(&mut client, &mut pending, &mut lats);
            (ops, weak, lats)
        }));
    }
    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
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

/// One self-hosted `bench-net` run's knobs (everything but the window,
/// which `--compare` varies between runs).
#[derive(Clone, Copy)]
struct BenchNet {
    replicas: usize,
    clients: usize,
    seconds: u64,
    payload: usize,
    protocol: Protocol,
    rtt_ms: u64,
    lanes: usize,
    loss_pct: f64,
}

/// Spawn a self-hosted loopback TCP cluster — `b.replicas` servers, each
/// hosting one replica of every one of `groups` Raft groups over shared
/// per-peer links — and drive it with closed-loop socket clients (split
/// across the groups inside `drive_net_clients`). With `trace_dir`, every
/// replica records probe events (engine lifecycle + transport clock samples)
/// and the per-node JSONL traces land in `trace_dir/node{i}.jsonl` for span
/// assembly.
fn bench_net_once(
    b: BenchNet,
    window: usize,
    groups: u32,
    trace_dir: Option<&std::path::Path>,
) -> NetBenchRun {
    const CLUSTER_ID: u64 = 1;
    let (servers, members) =
        NodeServer::<KvStore>::spawn_loopback(&vec![groups; b.replicas], |cfg| {
            cfg.cluster_id = CLUSTER_ID;
            cfg.cluster.protocol = b.protocol.config(window);
            // Staggered per-node seeds keep cold-start elections one round
            // long; per-group decorrelation is the server's job.
            cfg.cluster.seed = 42 ^ (u64::from(cfg.node_id) << 8);
            if trace_dir.is_some() {
                cfg.cluster.probe = EngineProbe::shared().0;
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

    let run = drive_net_clients(CLUSTER_ID, &members, b.clients, b.seconds, b.payload, groups);
    // Dropping the servers stops the replica loops, so the probe buffers
    // are quiescent (and hold the tail Applied events) when we flush them.
    let traces: Vec<_> = servers.iter().map(NodeServer::traces).collect();
    drop(servers);
    if let Some(dir) = trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create trace dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        for (i, t) in traces.iter().enumerate() {
            let path = dir.join(format!("node{i}.jsonl"));
            if let Err(e) = std::fs::write(&path, nbr_obs::trace::to_jsonl(&t.take())) {
                eprintln!("cannot write trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    run
}

fn cmd_bench_net(args: &Args) {
    let replicas = args.get("replicas", 3usize);
    let clients = args.get("clients", 16usize);
    let seconds = args.get("seconds", 3u64);
    let payload = args.get("payload", 256usize);
    let window = args.get("window", 10_000usize);
    // Loopback TCP is in-order and lossless, so followers never block on a
    // log gap and weak acks buy nothing over strong ones. A jittered RTT
    // and a little frame loss reproduce the imperfect network of the
    // paper's IoT setting — the regime the window exists for: a lost entry
    // stalls stock Raft's in-order pipeline for whole heartbeat-repair
    // rounds, while window>=4 keeps weak-accepting around the gap. The
    // default single lane per peer matches the transport default (batched
    // frames make one FIFO connection the right shape); pass --lanes N to
    // add the paper's multi-dispatcher reordering on top, or --rtt-ms 0
    // --loss-pct 0 for raw loopback numbers.
    let rtt_ms = args.get("rtt-ms", 10u64);
    let lanes = args.get("lanes", 1usize);
    let loss_pct = args.get("loss-pct", 2.0f64);
    let protocol = args.protocol();
    if let Some(list) = args.values.get("peers") {
        // External mode: bench an already-running cluster (serve processes).
        let members = parse_members(list);
        let cluster_id = args.get("cluster-id", 1u64);
        let groups = args.groups();
        println!(
            "bench-net: external cluster {list}, {clients} clients, {seconds}s, {payload}B \
             payloads, {groups} groups"
        );
        let mut run = drive_net_clients(cluster_id, &members, clients, seconds, payload, groups);
        print_bench_net_run(&mut run);
        return;
    }
    let trace_dir = args.values.get("trace-dir").map(std::path::PathBuf::from);
    let groups = args.groups();
    if let Some(list) = args.values.get("scale-groups") {
        let counts: Vec<u32> = list
            .split(',')
            .map(|s| {
                check_groups(s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("invalid --scale-groups entry: {s}");
                    std::process::exit(2);
                }))
            })
            .collect();
        let b = BenchNet { replicas, clients, seconds, payload, protocol, rtt_ms, lanes, loss_pct };
        bench_net_scale(args, b, window, &counts);
        return;
    }
    if args.has("compare") {
        println!(
            "bench-net --compare: {replicas} replicas over loopback TCP, {clients} clients, \
             {seconds}s per run, {payload}B payloads, {rtt_ms}ms emulated RTT, {lanes} lanes/peer, \
             {loss_pct}% loss"
        );
        let b = BenchNet { replicas, clients, seconds, payload, protocol, rtt_ms, lanes, loss_pct };
        let d0 = trace_dir.as_ref().map(|d| d.join("window-0"));
        let dw = trace_dir.as_ref().map(|d| d.join(format!("window-{window}")));
        let mut r0 = bench_net_once(b, 0, groups, d0.as_deref());
        let mut rw = bench_net_once(b, window, groups, dw.as_deref());
        let (t0, tw) = (r0.throughput(), rw.throughput());
        let (p50_0, p99_0) = (r0.commit_pctl_ms(0.50), r0.commit_pctl_ms(0.99));
        let (p50_w, p99_w) = (rw.commit_pctl_ms(0.50), rw.commit_pctl_ms(0.99));
        println!(
            "window=0        {t0:>10.0} ops/s   ({} weak-acked)  commit p50 {p50_0:.1}ms p99 {p99_0:.1}ms",
            r0.weak,
        );
        println!(
            "window={window:<7} {tw:>10.0} ops/s   ({} weak-acked)  commit p50 {p50_w:.1}ms p99 {p99_w:.1}ms",
            rw.weak,
        );
        println!(
            "speedup {:.2}x — {}",
            tw / t0.max(1e-9),
            if tw > t0 {
                "non-blocking window confirmed faster over real sockets"
            } else {
                "NO separation (try a larger --rtt-ms or a longer run)"
            }
        );
        if let Some(d) = &trace_dir {
            println!(
                "wrote per-node traces under {} (analyze: nbraft-cli trace --critical-path {})",
                d.display(),
                d.display()
            );
        }
        if let Some(path) = args.values.get("json") {
            let json = bench_net_json(&b, &mut [(0, &mut r0), (window, &mut rw)]);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote machine-readable summary to {path}");
        }
        return;
    }
    println!(
        "bench-net: {replicas} replicas over loopback TCP, {clients} clients, {seconds}s, \
         {payload}B payloads, window={window}, {groups} groups, {rtt_ms}ms emulated RTT, \
         {lanes} lanes/peer, {loss_pct}% loss"
    );
    let b = BenchNet { replicas, clients, seconds, payload, protocol, rtt_ms, lanes, loss_pct };
    let mut run = bench_net_once(b, window, groups, trace_dir.as_deref());
    print_bench_net_run(&mut run);
    if let Some(path) = args.values.get("json") {
        let json = bench_net_json(&b, &mut [(window, &mut run)]);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote machine-readable summary to {path}");
    }
}

/// Hand-rolled JSON perf summary (`--json`): one row per benched window,
/// stable keys, no dependencies — made for CI artifact diffing.
fn bench_net_json(b: &BenchNet, runs: &mut [(usize, &mut NetBenchRun)]) -> String {
    let mut rows = String::new();
    for (i, (w, r)) in runs.iter_mut().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let (p50, p99) = (r.commit_pctl_ms(0.50), r.commit_pctl_ms(0.99));
        rows.push_str(&format!(
            "\n    {{\"window\": {w}, \"ops_per_s\": {:.1}, \"ops\": {}, \"weak_acked\": {}, \
             \"commit_p50_ms\": {p50:.3}, \"commit_p99_ms\": {p99:.3}}}",
            r.throughput(),
            r.ops,
            r.weak
        ));
    }
    format!(
        "{{\n  \"bench\": \"bench-net\",\n  \"replicas\": {},\n  \"clients\": {},\n  \
         \"seconds\": {},\n  \"payload_b\": {},\n  \"rtt_ms\": {},\n  \"lanes\": {},\n  \
         \"loss_pct\": {},\n  \"windows\": [{rows}\n  ]\n}}\n",
        b.replicas, b.clients, b.seconds, b.payload, b.rtt_ms, b.lanes, b.loss_pct
    )
}

/// `bench-net --scale-groups 1,2,4,8`: the sharding scaling sweep. Each
/// count is one fresh self-hosted run at the same *per-group* window, on
/// the same server stack, so the 1-group row is the baseline of the rest.
///
/// With `--clients-per-group K` this is a weak-scaling sweep — the device
/// fleet grows with the shard count (K closed-loop clients per group, the
/// shape a per-device IoT workload actually has) and aggregate throughput
/// should grow near-linearly while per-op commit latency stays flat. Each
/// closed-loop client is latency-bound at roughly one op per commit RTT,
/// so a single group cannot serve a growing fleet any faster — added
/// groups add exactly the parallel commit capacity the fleet needs.
/// Without it, `--clients` is a fixed total split across the groups.
fn bench_net_scale(args: &Args, b: BenchNet, window: usize, counts: &[u32]) {
    let per_group: Option<usize> = args.values.get("clients-per-group").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --clients-per-group: {v}");
            std::process::exit(2);
        })
    });
    let load = match per_group {
        Some(k) => format!("{k} closed-loop clients per group (weak scaling)"),
        None => format!("{} clients total", b.clients),
    };
    println!(
        "bench-net --scale-groups: {} replicas over loopback TCP, {load}, {}s per run, \
         {}B payloads, window={window} per group, {}ms emulated RTT, {} lanes/peer, {}% loss",
        b.replicas, b.seconds, b.payload, b.rtt_ms, b.lanes, b.loss_pct
    );
    struct Row {
        groups: u32,
        clients: usize,
        tput: f64,
        ops: u64,
        weak: u64,
        p50: f64,
        p99: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for &g in counts {
        let clients = per_group.map_or(b.clients, |k| k * g as usize);
        let bg = BenchNet { clients, ..b };
        let mut run = bench_net_once(bg, window, g, None);
        rows.push(Row {
            groups: g,
            clients,
            tput: run.throughput(),
            ops: run.ops,
            weak: run.weak,
            p50: run.commit_pctl_ms(0.50),
            p99: run.commit_pctl_ms(0.99),
        });
    }
    let base = rows.first().map_or(0.0, |r| r.tput).max(1e-9);
    println!(
        "{:>7} {:>8} {:>12} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "groups", "clients", "ops/s", "ops", "weak", "p50 ms", "p99 ms", "speedup"
    );
    for r in &rows {
        println!(
            "{:>7} {:>8} {:>12.0} {:>10} {:>10} {:>9.1} {:>9.1} {:>7.2}x",
            r.groups,
            r.clients,
            r.tput,
            r.ops,
            r.weak,
            r.p50,
            r.p99,
            r.tput / base
        );
    }
    if let Some(path) = args.values.get("json") {
        let mut items = String::new();
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                items.push(',');
            }
            items.push_str(&format!(
                "\n    {{\"groups\": {}, \"clients\": {}, \"ops_per_s\": {:.1}, \"ops\": {}, \
                 \"weak_acked\": {}, \"commit_p50_ms\": {:.3}, \"commit_p99_ms\": {:.3}, \
                 \"speedup_vs_1\": {:.3}}}",
                r.groups,
                r.clients,
                r.tput,
                r.ops,
                r.weak,
                r.p50,
                r.p99,
                r.tput / base
            ));
        }
        let scaling = match per_group {
            Some(k) => format!("\"scaling\": \"weak\",\n  \"clients_per_group\": {k}"),
            None => format!("\"scaling\": \"fixed-total\",\n  \"clients_total\": {}", b.clients),
        };
        let json = format!(
            "{{\n  \"bench\": \"bench-net-shard\",\n  \"replicas\": {},\n  {scaling},\n  \
             \"seconds\": {},\n  \"payload_b\": {},\n  \"window\": {window},\n  \"rtt_ms\": {},\n  \
             \"lanes\": {},\n  \"loss_pct\": {},\n  \"groups\": [{items}\n  ]\n}}\n",
            b.replicas, b.seconds, b.payload, b.rtt_ms, b.lanes, b.loss_pct
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote machine-readable summary to {path}");
    }
    if let Some(path) = args.values.get("csv") {
        let mut csv = String::from(
            "groups,clients,ops_per_s,weak_acked,commit_p50_ms,commit_p99_ms,speedup\n",
        );
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{:.1},{},{:.3},{:.3},{:.3}\n",
                r.groups,
                r.clients,
                r.tput,
                r.weak,
                r.p50,
                r.p99,
                r.tput / base
            ));
        }
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote scaling figure CSV to {path}");
    }
}

fn chaos_scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nbr-chaos-{}-{name}", std::process::id()))
}

/// `chaos list|run|sweep`: the deterministic fault-schedule harness.
fn cmd_chaos(verb: Option<&str>, args: &Args) {
    use nbr_chaos::{corpus, find, run_scenario_net, run_scenario_sim, write_jsonl, Scenario};

    let scenarios: Vec<Scenario> = match args.values.get("scenario") {
        Some(name) => vec![find(name).unwrap_or_else(|| {
            eprintln!("unknown scenario {name}; see `nbraft-cli chaos list`");
            std::process::exit(2);
        })],
        None => corpus(),
    };

    match verb {
        Some("list") => {
            println!("{:<24} {:>5} {:>6} {:>5}  about", "scenario", "nodes", "len", "net");
            for s in &scenarios {
                println!(
                    "{:<24} {:>5} {:>4}ms {:>5}  {}",
                    s.name,
                    s.nodes,
                    s.duration_ms,
                    if !s.net_capable() {
                        "-"
                    } else if s.net_smoke {
                        "smoke"
                    } else {
                        "yes"
                    },
                    s.about
                );
            }
        }
        Some("run") => {
            let seed = args.get("seed", 7u64);
            let backend = args.values.get("backend").map(String::as_str).unwrap_or("sim");
            if !matches!(backend, "sim" | "net" | "both") {
                eprintln!("--backend must be sim, net, or both");
                std::process::exit(2);
            }
            // --smoke: restrict the (slow, wall-clock) net backend to the
            // scenarios tagged for the CI smoke tier.
            let smoke = args.has("smoke");
            // Failed net verdicts also drop a span-tree artifact next to the
            // verdict file, so the violating run's timeline survives CI.
            let span_dir: Option<std::path::PathBuf> =
                args.values.get("out").map(|o| match std::path::Path::new(o).parent() {
                    Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
                    _ => std::path::PathBuf::from("."),
                });
            let mut verdicts = Vec::new();
            for s in &scenarios {
                if backend == "sim" || backend == "both" {
                    let v = run_scenario_sim(s, seed);
                    println!("{}", v.summary());
                    verdicts.push(v);
                }
                if (backend == "net" || backend == "both")
                    && s.net_capable()
                    && (!smoke || s.net_smoke)
                {
                    let v = run_scenario_net(s, seed, &chaos_scratch(s.name), span_dir.as_deref());
                    println!("{}", v.summary());
                    if !v.pass() {
                        for c in &v.checks {
                            println!(
                                "      {} {:<20} {}",
                                if c.pass { "ok  " } else { "FAIL" },
                                c.name,
                                c.detail
                            );
                        }
                    }
                    verdicts.push(v);
                }
            }
            finish_chaos(&verdicts, args.values.get("out"), write_jsonl);
        }
        Some("sweep") => {
            // Seed sweep on the sim backend only: bit-deterministic, so K
            // seeds explore K genuinely distinct interleavings.
            let seeds = args.get("seeds", 5u64);
            let mut verdicts = Vec::new();
            for s in &scenarios {
                for seed in 0..seeds {
                    let v = run_scenario_sim(s, seed);
                    if !v.pass() {
                        println!("{}", v.summary());
                    }
                    verdicts.push(v);
                }
            }
            finish_chaos(&verdicts, args.values.get("out"), write_jsonl);
        }
        _ => usage(),
    }
}

/// Write the verdict artifact, print the tally, and exit nonzero on any
/// failed scenario run.
fn finish_chaos(
    verdicts: &[nbr_chaos::Verdict],
    out: Option<&String>,
    write: fn(&std::path::Path, &[nbr_chaos::Verdict]) -> std::io::Result<()>,
) {
    if let Some(path) = out {
        if let Err(e) = write(std::path::Path::new(path), verdicts) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    let failed = verdicts.iter().filter(|v| !v.pass()).count();
    println!("chaos: {}/{} runs passed", verdicts.len() - failed, verdicts.len());
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Shared result block for the self-host and `--peers` bench-net modes.
fn print_bench_net_run(run: &mut NetBenchRun) {
    println!("throughput    {:>12.0} ops/s", run.throughput());
    println!("ops           {:>12}", run.ops);
    println!(
        "weak-acked    {:>12} ({:.1}% of acks)",
        run.weak,
        if run.ops == 0 { 0.0 } else { 100.0 * run.weak as f64 / run.ops as f64 }
    );
    println!(
        "commit p50    {:>12.1} ms\ncommit p99    {:>12.1} ms",
        run.commit_pctl_ms(0.50),
        run.commit_pctl_ms(0.99)
    );
}

fn usage() -> ! {
    eprintln!(
        "nbraft-cli — Non-Blocking Raft reproduction CLI\n\n\
         USAGE:\n  nbraft-cli sim   [--protocol P] [--clients N] [--replicas N] [--payload B]\n               [--dispatchers N] [--window W] [--duration-ms MS] [--seed S]\n               [--geo] [--cloud] [--cpu-scale F] [--trace FILE]\n  nbraft-cli petri [--clients N] [--dispatchers N] [--non-blocking] [--ratis]\n               [--horizon-ms MS] [--dot FILE]\n  nbraft-cli demo  [--protocol P] [--replicas N] [--clients N] [--seconds S]\n  nbraft-cli trace FILE            analyze a JSONL trace (entry lifecycles,\n               t_wait(F), window occupancy)\n  nbraft-cli trace --compare [--window W] [sim opts]   paired traced sims:\n               window=0 (stock Raft) vs window=W\n  nbraft-cli trace --critical-path PATH   cross-node span assembly: per-op\n               phase attribution (queue/link/window/weak/commit/apply) with\n               p50/p99; PATH = trace file, dir of per-node traces, or dir of\n               window-* run dirs (prints phase deltas between windows)\n  nbraft-cli serve --node-id N --peers host:port,host:port,...\n               [--bind ADDR] [--cluster-id ID] [--metrics ADDR] [--wal DIR]\n               [--protocol P] [--window W] [--groups N] [--rtt-ms MS]\n               [--lanes N] [--loss-pct F] [--trace FILE] [--quiet]\n               one replica (of every group with --groups N>1), real TCP\n  nbraft-cli bench-net [--replicas N] [--clients N] [--seconds S] [--payload B]\n               [--window W] [--groups N] [--rtt-ms MS] [--lanes N]\n               [--loss-pct F] [--trace-dir DIR] [--json FILE]\n               [--compare | --scale-groups 1,2,4,8 [--clients-per-group K]\n                [--csv FILE] | --peers host:port,...]\n               loopback-TCP throughput bench (or bench a running cluster);\n               --scale-groups sweeps sharding at a fixed per-group window\n               and reports speedup over the 1-group baseline\n               (--clients-per-group grows the fleet with the shard count)\n  nbraft-cli chaos list            the fault-scenario corpus\n  nbraft-cli chaos run   [--scenario NAME] [--backend sim|net|both] [--seed S]\n               [--smoke] [--out FILE.jsonl]   run scenarios, check invariants\n  nbraft-cli chaos sweep [--scenario NAME] [--seeds K] [--out FILE.jsonl]\n               deterministic sim seed sweep\n\n\
         protocols: raft nbraft craft nbcraft ecraft kraft vgraft"
    );
    std::process::exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else { usage() };
    let mut rest = &raw[1..];
    // `trace` takes one positional FILE operand; peel it before the
    // `--key value` parser (which rejects positionals).
    let mut file = None;
    if cmd == "trace" || cmd == "chaos" {
        if let Some(f) = rest.first().filter(|f| !f.starts_with("--")) {
            file = Some(f.as_str());
            rest = &rest[1..];
        }
    }
    let args = Args::parse(rest);
    match cmd.as_str() {
        "sim" => cmd_sim(&args),
        "petri" => cmd_petri(&args),
        "demo" => cmd_demo(&args),
        "trace" => cmd_trace(file, &args),
        "serve" => cmd_serve(&args),
        "bench-net" => cmd_bench_net(&args),
        "chaos" => cmd_chaos(file, &args),
        _ => usage(),
    }
}

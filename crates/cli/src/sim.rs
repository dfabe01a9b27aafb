//! `sim`, `trace` and `petri`: the discrete-event simulator, the trace
//! analyzers, and the Petri-net replication model.

use crate::{die, Args};
use nbr_obs::{analyze, EngineProbe, TraceEvent};
use nbr_petri::{CostProfile, ModelConfig, ReplicationModel};
use nbr_sim::{run, CostModel, GeoMatrix, SimConfig};
use nbr_types::TimeDelta;
use std::path::{Path, PathBuf};

/// What `sim` and `trace --compare` read to build their `SimConfig`.
pub const SIM_OPTS: &str = "protocol clients replicas payload dispatchers window duration-ms \
                            warmup-ms seed geo cloud cpu-scale";
pub const PETRI_OPTS: &str = "clients dispatchers non-blocking ratis seed horizon-ms dot";

/// Defaults of `[clients, payload, duration-ms, warmup-ms]`, all `sim` (one
/// full run) and `trace --compare` (two short traced ones) differ in.
const SIM_RUN: [u64; 4] = [256, 4096, 1000, 300];
const TRACE_PAIR: [u64; 4] = [64, 1024, 400, 100];

fn sim_config(
    args: &Args,
    [clients, payload, duration_ms, warmup_ms]: [u64; 4],
    window: usize,
    trace: EngineProbe,
) -> SimConfig {
    let clients = args.get("clients", clients as usize);
    SimConfig {
        protocol: args.protocol(),
        window,
        n_replicas: args.get("replicas", 3usize),
        n_clients: clients,
        n_dispatchers: args.get("dispatchers", clients),
        payload: args.get("payload", payload as usize),
        duration: TimeDelta::from_millis(args.get("duration-ms", duration_ms)),
        warmup: TimeDelta::from_millis(args.get("warmup-ms", warmup_ms)),
        costs: if args.has("cloud") { CostModel::cloud() } else { CostModel::default() },
        geo: args.has("geo").then(GeoMatrix::alibaba_five_cities),
        cpu_scale: args.get("cpu-scale", 1.0f64),
        seed: args.get("seed", 42u64),
        trace,
        ..Default::default()
    }
}

pub fn cmd_sim(args: &Args) {
    let trace = args.str("trace").map(|path| (path, EngineProbe::shared()));
    let probe = trace.as_ref().map_or(EngineProbe::Off, |(_, (probe, _))| probe.clone());
    let cfg = sim_config(args, SIM_RUN, args.get("window", 10_000usize), probe);
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
    if let Some((path, (_, buf))) = trace {
        let events = buf.take();
        std::fs::write(path, nbr_obs::trace::to_jsonl(&events))
            .unwrap_or_else(|e| die(1, format!("failed to write trace {path}: {e}")));
        println!(
            "wrote {} trace events to {path} (analyze: nbraft-cli trace {path})",
            events.len()
        );
    }
}

/// The entries of a directory, sorted.
fn dir_entries(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| die(1, format!("cannot read {}: {e}", dir.display())));
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    paths
}

/// Read one JSONL trace file, or every `*.jsonl` in a directory merged
/// (per-node traces of one run).
fn load_trace_events(path: &Path) -> Vec<TraceEvent> {
    let mut files = vec![path.to_path_buf()];
    if path.is_dir() {
        files = dir_entries(path);
        files.retain(|p| p.extension().is_some_and(|x| x == "jsonl"));
        if files.is_empty() {
            die(1, format!("no .jsonl traces in {}", path.display()));
        }
    }
    let mut events = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f)
            .unwrap_or_else(|e| die(1, format!("cannot read {}: {e}", f.display())));
        events.extend(
            nbr_obs::trace::from_jsonl(&text)
                .unwrap_or_else(|e| die(1, format!("cannot parse {}: {e}", f.display()))),
        );
    }
    events
}

/// Align, assemble and attribute one run's merged trace.
fn critical_report(path: &Path) -> nbr_obs::CriticalPath {
    let events = load_trace_events(path);
    let align = nbr_obs::ClockAlign::estimate(&events);
    let aligned = align.apply(&events);
    let spans = nbr_obs::collect(&aligned);
    nbr_obs::critical_path(&spans, &aligned, &align)
}

/// `trace --critical-path PATH`: PATH is a trace file, a directory of
/// per-node traces (one run), or a directory of `window-*` run directories
/// (from `bench-net --trace-dir`), which also prints the per-phase deltas
/// between the smallest and largest window.
fn trace_critical(path: &Path) {
    let mut windows: Vec<(u64, PathBuf)> = Vec::new();
    if path.is_dir() {
        windows.extend(dir_entries(path).into_iter().filter_map(|p| {
            let w = p.file_name()?.to_str()?.strip_prefix("window-")?.parse().ok()?;
            p.is_dir().then_some((w, p))
        }));
        windows.sort();
    }
    if windows.is_empty() {
        // Single run (file or flat directory of per-node traces).
        print!("{}", critical_report(path).render());
        return;
    }
    let mut reports = Vec::new();
    for (w, dir) in &windows {
        let report = critical_report(dir);
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

/// `trace --compare`: two traced sims identical apart from the window size
/// (window 0 == stock Raft on the same engine).
fn trace_compare(args: &Args) {
    let w = args.get("window", 8usize).max(4);
    println!("tracing window=0 (stock Raft) vs window={w} (NB-Raft), same workload/seed...");
    let [(r0, rep0), (rw, repw)] = [0, w].map(|window| {
        let (probe, buf) = EngineProbe::shared();
        let r = run(sim_config(args, TRACE_PAIR, window, probe));
        (r, analyze(&buf.take()))
    });
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
}

pub fn cmd_trace(args: &Args) {
    let path = args.operand.as_deref();
    if args.has("critical-path") {
        let path = args.str("critical-path").or(path).unwrap_or_else(|| {
            die(2, "trace --critical-path: missing PATH (trace file or directory)")
        });
        return trace_critical(Path::new(path));
    }
    if args.has("compare") {
        return trace_compare(args);
    }
    let path = path.unwrap_or_else(|| {
        die(2, "trace: missing PATH operand (or use --compare to run paired traced sims)")
    });
    print!("{}", analyze(&load_trace_events(Path::new(path))).render());
}

pub fn cmd_petri(args: &Args) {
    let cfg = ModelConfig {
        n_clients: args.get("clients", 256usize),
        n_dispatchers: args.get("dispatchers", 64usize),
        non_blocking: args.has("non-blocking"),
        costs: if args.has("ratis") { CostProfile::ratis() } else { CostProfile::iotdb() },
        seed: args.get("seed", 42u64),
        ..Default::default()
    };
    let model = ReplicationModel::build(cfg);
    if let Some(path) = args.str("dot") {
        let dot = model.net_ref().to_dot("Raft log replication (paper Fig. 3)");
        std::fs::write(path, dot).unwrap_or_else(|e| die(1, format!("cannot write {path}: {e}")));
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

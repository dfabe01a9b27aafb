//! Sim backend: hand a scenario's schedule to the discrete-event simulator
//! as it stands (`SimConfig::chaos` takes `(Time, Fault)` pairs), run it,
//! and judge the result.
//!
//! Runs here are bit-deterministic: the same scenario + seed always yields
//! the same verdict JSON, so failures replay exactly from `--seed`.

use crate::corpus::Scenario;
use crate::oracle::{end_state, min_live_commit, Check, Verdict};
use nbr_obs::EngineProbe;
use nbr_sim::{SimConfig, SimResult};
use nbr_types::{Protocol, Time, TimeDelta};
use std::collections::BTreeSet;

/// One deterministic sim run of a scenario at the given window size.
fn run_once(s: &Scenario, seed: u64, window: usize) -> (SimResult, Vec<nbr_obs::TraceEvent>) {
    let (probe, buf) = EngineProbe::shared();
    let warmup = TimeDelta::from_millis(150);
    let cfg = SimConfig {
        protocol: Protocol::NbRaft,
        window,
        n_replicas: s.nodes as usize,
        n_clients: s.clients,
        n_dispatchers: s.clients,
        payload: 512,
        warmup,
        duration: TimeDelta(TimeDelta::from_millis(s.duration_ms).0 - warmup.0),
        // The live cluster's real-time-scale timeouts, so one schedule's
        // fault windows mean the same thing on both backends.
        timeouts: nbr_cluster::ClusterConfig::default().protocol.timeouts,
        chaos: s.parsed().events.into_iter().map(|e| (Time::ZERO + e.at, e.fault)).collect(),
        seed,
        trace: probe,
        ..SimConfig::default()
    };
    let r = nbr_sim::run(cfg);
    (r, buf.take())
}

/// Run a scenario on the sim backend and judge it.
pub fn run_scenario_sim(s: &Scenario, seed: u64) -> Verdict {
    let (r, events) = run_once(s, seed, s.window);
    let mut v = Verdict::new(s.name, "sim", seed);

    let rows = &r.final_status;
    let min_commit = min_live_commit(rows);
    let hashes: BTreeSet<u64> = r.prefix_hash.iter().flatten().copied().collect();
    let convergence = Check {
        name: "log-convergence".into(),
        pass: hashes.len() <= 1,
        detail: format!("{} distinct prefix hashes at commit {min_commit}", hashes.len()),
    };
    end_state(&mut v, &events, rows, convergence, s.expect_progress.then_some(r.confirmed));

    // What the clients were told against what the replicas apply.
    let violations = &r.exactly_once_violations;
    let first = violations.first().map_or(String::new(), |f| format!(", first: {f}"));
    v.check(
        "exactly-once",
        violations.is_empty(),
        format!("{} violations{first}", violations.len()),
    );

    if s.expect_gap_hints {
        v.check(
            "gap-hint-repair",
            r.stats.gap_hints > 0,
            format!(
                "gap_hints={} (window-gap repair must fire under a gray link)",
                r.stats.gap_hints
            ),
        );
    }

    if s.check_twait {
        // Paired blocking run: same schedule, same seed, window 0 (stock
        // Raft semantics on the same engine). The non-blocking window must
        // not wait longer than blocking under identical chaos.
        let (r0, _) = run_once(s, seed, 0);
        v.metric("twait0_ms", r0.twait_mean_ms);
        v.check(
            "twait-separation",
            r0.twait_mean_ms > 0.0 && r0.twait_mean_ms >= r.twait_mean_ms,
            format!(
                "window=0 t_wait {:.3}ms vs window={} {:.3}ms",
                r0.twait_mean_ms, s.window, r.twait_mean_ms
            ),
        );
    }

    v.metric("throughput_ops", r.throughput);
    v.metric("confirmed", r.confirmed as f64);
    v.metric("weak_acked", r.weak_acked as f64);
    v.metric("elections", r.elections as f64);
    v.metric("chaos_dropped", r.chaos_dropped as f64);
    v.metric("recoveries", r.recoveries as f64);
    v.metric("gap_hints", r.stats.gap_hints as f64);
    v.metric("twait_ms", r.twait_mean_ms);
    v.metric("min_commit", min_commit as f64);
    v
}

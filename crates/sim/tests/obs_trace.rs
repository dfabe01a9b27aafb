//! Integration tests for the observability pipeline under the simulator:
//! probe event ordering per entry, trace determinism, JSONL round-trips and
//! registry/exporter determinism all exercised end-to-end against real
//! protocol traffic rather than hand-built traces.

use nbr_obs::{analyze, timelines, EngineProbe, Registry, TraceEvent};
use nbr_sim::{run, SimConfig, SimResult};
use nbr_types::{Protocol, TimeDelta};

fn traced_run(window: usize, seed: u64) -> (SimResult, Vec<TraceEvent>) {
    let (probe, buf) = EngineProbe::shared();
    let cfg = SimConfig {
        protocol: Protocol::NbRaft,
        window,
        n_replicas: 3,
        n_clients: 32,
        n_dispatchers: 32,
        payload: 512,
        warmup: TimeDelta::from_millis(50),
        duration: TimeDelta::from_millis(200),
        seed,
        trace: probe,
        ..Default::default()
    };
    let r = run(cfg);
    (r, buf.take())
}

#[test]
fn probe_events_per_entry_are_ordered() {
    let (_, events) = traced_run(8, 7);
    assert!(!events.is_empty(), "traced sim produced no events");
    let tl = timelines(&events);
    assert!(!tl.is_empty(), "no per-entry lifecycles rebuilt");
    for ((node, index), lc) in &tl {
        let ctx = format!("node {node:?} index {index:?}: {lc:?}");
        if let (Some(r), Some(a)) = (lc.received, lc.appended) {
            assert!(r <= a, "received after appended: {ctx}");
        }
        if let (Some(a), Some(c)) = (lc.appended, lc.committed) {
            assert!(a <= c, "appended after committed: {ctx}");
        }
        if let (Some(c), Some(ap)) = (lc.committed, lc.applied) {
            assert!(c <= ap, "committed after applied: {ctx}");
        }
        if let (Some(r), Some(c)) = (lc.received, lc.cached) {
            assert!(r <= c, "received after cached: {ctx}");
        }
        if let (Some(r), Some(p)) = (lc.received, lc.parked) {
            assert!(r <= p, "received after parked: {ctx}");
        }
    }
}

#[test]
fn identical_runs_produce_identical_traces() {
    let (_, a) = traced_run(8, 42);
    let (_, b) = traced_run(8, 42);
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b, "same seed must reproduce the exact event sequence");
    // ... and a different seed a different one.
    let (_, c) = traced_run(8, 43);
    assert_ne!(a, c);
}

#[test]
fn trace_jsonl_roundtrips_through_files() {
    let (_, events) = traced_run(4, 11);
    let text = nbr_obs::trace::to_jsonl(&events);
    let parsed = nbr_obs::trace::from_jsonl(&text).expect("trace parses back");
    assert_eq!(events, parsed);
    // The analyzer sees the same picture through the serialized form.
    let (direct, reparsed) = (analyze(&events), analyze(&parsed));
    assert_eq!(direct.events, reparsed.events);
    assert_eq!(direct.by_kind, reparsed.by_kind);
    assert_eq!(direct.blocked, reparsed.blocked);
}

#[test]
fn window_zero_blocks_strictly_longer() {
    // The paper's central claim, measured from the trace: with reordering,
    // stock Raft (window = 0) waits strictly longer on average than NB-Raft
    // with a modest window.
    let (_, raft) = traced_run(0, 42);
    let (_, nb) = traced_run(8, 42);
    let (r, n) = (analyze(&raft), analyze(&nb));
    assert!(r.twait.count() > 0 && n.twait.count() > 0, "vacuous traces");
    assert!(
        r.twait.mean() > n.twait.mean(),
        "expected window=0 mean t_wait {} > window=8 mean t_wait {}",
        r.twait.mean(),
        n.twait.mean()
    );
    // Structure matches: the window absorbs entries that would have parked.
    assert_eq!(r.absorbed, 0, "window=0 cannot cache out-of-order entries");
    assert!(n.absorbed > 0, "window=8 should absorb some reordered entries");
    assert!(r.blocked > n.blocked);
}

/// Mirror a run's summed stats into a registry the way the cluster runtime
/// does, and require byte-identical exports for identical runs.
fn registry_of(label: &str, r: &SimResult) -> Registry {
    let reg = Registry::new(label);
    reg.counter("appends").set(r.stats.appends);
    reg.counter("weak_accepts").set(r.stats.weak_accepts);
    reg.counter("parked").set(r.stats.parked);
    reg.counter("window_flushes").set(r.stats.window_flushes);
    reg.gauge("elections").set(r.elections as i64);
    reg.timer("twait").record((r.twait_mean_ms * 1e6) as u64);
    reg
}

#[test]
fn registry_snapshots_are_deterministic_under_the_sim() {
    let (ra, _) = traced_run(8, 5);
    let (rb, _) = traced_run(8, 5);
    let (rega, regb) = (registry_of("0", &ra), registry_of("0", &rb));
    let (sa, sb) = (rega.snapshot(), regb.snapshot());
    assert_eq!(sa.counters, sb.counters);
    assert_eq!(sa.gauges, sb.gauges);
    let (sa, sb) = (std::slice::from_ref(&sa), std::slice::from_ref(&sb));
    assert_eq!(nbr_obs::export::prometheus(sa), nbr_obs::export::prometheus(sb));
}

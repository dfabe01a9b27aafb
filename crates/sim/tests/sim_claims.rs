//! Simulation-level tests for the paper's headline claims, on reduced-scale
//! configurations so the suite stays fast. The full-scale sweeps live in the
//! `nbr-bench` figure harness.

use nbr_sim::{run, SimConfig};
use nbr_types::{Fault, Protocol, Target, Time, TimeDelta, TimeoutConfig};

fn quick(protocol: Protocol, n_clients: usize) -> SimConfig {
    SimConfig {
        protocol,
        n_clients,
        n_dispatchers: n_clients,
        warmup: TimeDelta::from_millis(300),
        duration: TimeDelta::from_millis(700),
        ..Default::default()
    }
}

/// Section V-G's failure: the leader and every client crash at `at`.
fn leader_and_clients_crash(at: Time) -> Vec<(Time, Fault)> {
    vec![
        (at, Fault::Crash { target: Target::Leader }),
        (at, Fault::Crash { target: Target::Clients }),
    ]
}

#[test]
fn nbraft_beats_raft_at_high_concurrency() {
    // The headline: ~30% more throughput at high concurrency (we accept
    // anything clearly above 15% at this reduced scale).
    let raft = run(quick(Protocol::Raft, 512));
    let nb = run(quick(Protocol::NbRaft, 512));
    let gain = nb.throughput / raft.throughput - 1.0;
    assert!(gain > 0.15, "NB gain at 512 clients = {:.1}%", gain * 100.0);
    // And the win comes with lower latency (Section V-F).
    assert!(nb.latency_mean_ms < raft.latency_mean_ms);
    // Mechanism check: Raft parked (blocked) entries, NB weak-accepted them.
    assert!(raft.stats.parked > 0, "Raft must block out-of-order entries");
    assert!(nb.weak_acked > 0, "NB must early-return");
    assert_eq!(raft.weak_acked, 0);
}

#[test]
fn throughput_rolls_over_at_extreme_concurrency() {
    // Figure 14: the dome — throughput rises, peaks, then declines.
    let lo = run(quick(Protocol::Raft, 16));
    let mid = run(quick(Protocol::Raft, 256));
    let hi = run(quick(Protocol::Raft, 1024));
    assert!(mid.throughput > lo.throughput, "rising region");
    assert!(mid.throughput > hi.throughput, "declining region");
}

#[test]
fn twait_grows_with_concurrency() {
    // Section II: the bottleneck t_wait(F) is driven by concurrency-induced
    // disorder.
    let lo = run(quick(Protocol::Raft, 4));
    let hi = run(quick(Protocol::Raft, 512));
    assert!(
        hi.twait_mean_ms > 3.0 * lo.twait_mean_ms.max(0.001),
        "t_wait: {} -> {}",
        lo.twait_mean_ms,
        hi.twait_mean_ms
    );
}

#[test]
fn craft_wins_at_large_payloads_only() {
    // Figure 16's crossover.
    let mut small_nb = quick(Protocol::NbRaft, 256);
    small_nb.payload = 4096;
    let mut small_craft = quick(Protocol::CRaft, 256);
    small_craft.payload = 4096;
    let mut big_nb = quick(Protocol::NbRaft, 256);
    big_nb.payload = 128 * 1024;
    let mut big_craft = quick(Protocol::CRaft, 256);
    big_craft.payload = 128 * 1024;

    let (sn, sc) = (run(small_nb).throughput, run(small_craft).throughput);
    let (bn, bc) = (run(big_nb).throughput, run(big_craft).throughput);
    assert!(sn > sc, "4KB: NB-Raft {sn:.0} should beat CRaft {sc:.0}");
    assert!(bc > bn, "128KB: CRaft {bc:.0} should beat NB-Raft {bn:.0}");
}

#[test]
fn vgraft_is_slowest() {
    let raft = run(quick(Protocol::Raft, 256));
    let vg = run(quick(Protocol::VgRaft, 256));
    assert!(
        vg.throughput < raft.throughput * 0.9,
        "VGRaft {:.0} vs Raft {:.0}",
        vg.throughput,
        raft.throughput
    );
}

#[test]
fn kraft_is_no_better_than_raft() {
    let raft = run(quick(Protocol::Raft, 256));
    let mut cfg = quick(Protocol::KRaft, 256);
    cfg.n_replicas = 5;
    let kraft = run(cfg);
    let mut raft5 = quick(Protocol::Raft, 256);
    raft5.n_replicas = 5;
    let raft5 = run(raft5);
    assert!(
        kraft.throughput <= raft5.throughput * 1.05,
        "KRaft {:.0} vs Raft(5) {:.0}",
        kraft.throughput,
        raft5.throughput
    );
    let _ = raft;
}

#[test]
fn loss_on_leader_failure_is_tiny_and_nb_loses_more() {
    // Section V-G: killing leader + clients loses in-flight entries only;
    // NB-Raft's extra in-flight (window) loses more than Raft, both tiny.
    let loss_run = |protocol: Protocol, seed: u64| {
        let mut cfg = quick(protocol, 64);
        cfg.warmup = TimeDelta::from_millis(200);
        // Runs 3 s past the crash: warmup + duration = 1.5 s + 3 s.
        cfg.duration = TimeDelta::from_millis(4300);
        cfg.seed = seed;
        cfg.chaos = leader_and_clients_crash(Time::from_millis(1500));
        run(cfg)
    };
    // A single kill loses only a handful of entries, so compare seed
    // averages (the paper's 0.000015% vs 0.00003% are averages too).
    let seeds = [1u64, 2, 3, 4, 5];
    let mut raft_loss = 0.0;
    let mut nb_loss = 0.0;
    for &s in &seeds {
        let raft = loss_run(Protocol::Raft, s);
        let nb = loss_run(Protocol::NbRaft, s);
        assert!(raft.loss_fraction < 0.01, "Raft loss {}", raft.loss_fraction);
        assert!(nb.loss_fraction < 0.01, "NB loss {}", nb.loss_fraction);
        assert!(raft.issued > 1000 && nb.issued > 1000, "enough load before kill");
        assert!(nb.elections >= 2, "an election happened after the kill");
        raft_loss += raft.loss_fraction;
        nb_loss += nb.loss_fraction;
    }
    // NB's loss should be >= Raft's on average (more in-flight); allow a
    // small tolerance since both are a handful of entries.
    assert!(nb_loss >= raft_loss * 0.7, "NB {} vs Raft {} (seed sums)", nb_loss, raft_loss);
}

#[test]
fn longer_follower_timeout_reduces_loss() {
    // Figure 19b: loss decreases as the follower timeout grows.
    let loss_with_timeout = |ms: u64| {
        let mut cfg = quick(Protocol::NbRaft, 64);
        // Runs 8 s past the crash: warmup + duration = 1.5 s + 8 s.
        cfg.duration = TimeDelta::from_millis(9200);
        cfg.timeouts = TimeoutConfig {
            election_min: TimeDelta::from_millis(ms),
            election_max: TimeDelta::from_millis(ms + ms / 2),
            ..TimeoutConfig::default()
        };
        cfg.chaos = leader_and_clients_crash(Time::from_millis(1500));
        run(cfg)
    };
    let short = loss_with_timeout(300);
    let long = loss_with_timeout(2000);
    assert!(
        long.loss_fraction <= short.loss_fraction,
        "longer timeout must not lose more: {} vs {}",
        long.loss_fraction,
        short.loss_fraction
    );
}

#[test]
fn geo_distribution_costs_an_order_of_magnitude() {
    // Figure 20: geo-distributed throughput is far below the LAN deployment.
    let mut lan = quick(Protocol::NbRaft, 64);
    lan.n_replicas = 5;
    lan.payload = 1024;
    lan.costs = nbr_sim::CostModel::cloud();
    let mut geo = lan.clone();
    geo.geo = Some(nbr_sim::GeoMatrix::alibaba_five_cities());
    geo.duration = TimeDelta::from_secs(2);
    let lan = run(lan);
    let geo = run(geo);
    assert!(
        geo.throughput < lan.throughput / 5.0,
        "geo {:.0} vs lan {:.0}",
        geo.throughput,
        lan.throughput
    );
    assert!(geo.throughput > 0.0, "geo cluster still makes progress");
}

#[test]
fn failing_replicas_favor_ecraft_over_craft() {
    // Figure 21: with failing replicas in a 5-group, ECRaft keeps coding
    // while CRaft falls back to full copies.
    let with_dead = |protocol: Protocol| {
        let mut cfg = quick(protocol, 256);
        cfg.n_replicas = 5;
        cfg.chaos = vec![(Time::ZERO, Fault::Crash { target: Target::Node(4) })];
        run(cfg)
    };
    let craft = with_dead(Protocol::CRaft);
    let ecraft = with_dead(Protocol::EcRaft);
    assert!(craft.throughput > 0.0 && ecraft.throughput > 0.0);
    assert!(
        ecraft.throughput >= craft.throughput * 0.95,
        "ECRaft {:.0} vs CRaft {:.0}",
        ecraft.throughput,
        craft.throughput
    );
}

#[test]
fn runs_are_deterministic() {
    let a = run(quick(Protocol::NbRaft, 128));
    let b = run(quick(Protocol::NbRaft, 128));
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.issued, b.issued);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.stats.parked, b.stats.parked);
    // Different seed ⇒ (almost surely) different microstate.
    let mut c = quick(Protocol::NbRaft, 128);
    c.seed = 77;
    let c = run(c);
    assert_ne!(a.issued, c.issued);
}

#[test]
fn cpu_scale_lowers_throughput_and_hurts_craft_more() {
    // Figure 23: disabling CPU-Turbo lowers everything; CRaft suffers more
    // (parity computation).
    let with_scale = |protocol: Protocol, scale: f64| {
        let mut cfg = quick(protocol, 256);
        cfg.cpu_scale = scale;
        cfg.costs = nbr_sim::CostModel::cloud();
        cfg.payload = 1024;
        run(cfg).throughput
    };
    let raft_fast = with_scale(Protocol::Raft, 1.0);
    let raft_slow = with_scale(Protocol::Raft, 1.8);
    let craft_fast = with_scale(Protocol::CRaft, 1.0);
    let craft_slow = with_scale(Protocol::CRaft, 1.8);
    assert!(raft_slow < raft_fast * 0.8, "less CPU lowers Raft: {raft_slow} vs {raft_fast}");
    assert!(craft_slow < craft_fast * 0.8, "less CPU lowers CRaft: {craft_slow} vs {craft_fast}");
    // The paper's point — "computing parity introduces a new bottleneck"
    // with limited CPU: CRaft sits far below Raft on the weak-CPU cloud
    // profile at either Turbo setting.
    assert!(
        craft_fast < raft_fast * 0.7 && craft_slow < raft_slow * 0.7,
        "CRaft is CPU-bottlenecked on weak cores: {craft_fast}/{raft_fast}, {craft_slow}/{raft_slow}"
    );
}

//! Integration tests: sim-backend determinism, corpus health, the
//! gap-hint regression canary, and one real-TCP scenario.

use nbr_chaos::{corpus, find, run_scenario_net, run_scenario_sim};

const SEED: u64 = 7;

/// Same scenario + seed must yield the byte-identical verdict record.
#[test]
fn sim_runs_are_deterministic() {
    let s = find("follower-isolated").expect("scenario exists");
    let a = run_scenario_sim(&s, SEED).to_json();
    let b = run_scenario_sim(&s, SEED).to_json();
    assert_eq!(a, b, "replay from the same seed diverged");
}

/// The whole corpus passes on the sim backend at the default seed, and its
/// verdict records equal the committed golden byte for byte: sim verdicts
/// are bit-reproducible, so any change to what the DES does under a fault
/// schedule (event order, rng draws, fault-table semantics) shows here. This
/// is the same set `nbraft-cli chaos run --backend sim` covers in CI.
#[test]
fn corpus_passes_on_sim() {
    let mut failures = Vec::new();
    let mut jsonl = String::new();
    for s in corpus() {
        let v = run_scenario_sim(&s, SEED);
        println!("{}", v.summary());
        if !v.pass() {
            failures.push(format!("{}: {:?}", s.name, v.failed()));
        }
        jsonl.push_str(&v.to_json());
        jsonl.push('\n');
    }
    assert!(failures.is_empty(), "failing scenarios: {failures:?}");
    let golden = include_str!("golden/sim-seed7.jsonl");
    for (got, want) in jsonl.lines().zip(golden.lines()) {
        assert_eq!(got, want, "sim verdict differs from the golden; {REGENERATE}");
    }
    assert_eq!(jsonl.len(), golden.len(), "{REGENERATE}");
}

const REGENERATE: &str = "if the simulator was meant to change, regenerate with \
    `rm crates/chaos/tests/golden/sim-seed7.jsonl && cargo run --release -p nbr-cli -- \
    chaos run --backend sim --seed 7 --out crates/chaos/tests/golden/sim-seed7.jsonl` \
    and say why in the commit";

/// Regression canary: the gray-link scenario must exercise the window-gap
/// repair path (gap hints). If the gap-hint fix regresses, this check (and
/// the corpus run above) turns red.
#[test]
fn gray_link_fires_gap_hint_repair() {
    let s = find("gray-link-leader").expect("scenario exists");
    let v = run_scenario_sim(&s, SEED);
    let gap = v
        .checks
        .iter()
        .find(|c| c.name == "gap-hint-repair")
        .expect("scenario declares the gap-hint oracle");
    assert!(gap.pass, "gap-hint repair did not fire under a 25% gray link: {}", gap.detail);
}

/// One end-to-end run on the real TCP backend with WAL-backed replicas:
/// crash a follower mid-traffic, recover it from its WAL, and require full
/// convergence within the bounded recovery window.
#[test]
fn net_backend_crash_recover() {
    let s = find("crash-recover-follower").expect("scenario exists");
    let dir = std::env::temp_dir().join(format!("nbr-chaos-test-{}", std::process::id()));
    let v = run_scenario_net(&s, SEED, &dir, None);
    println!("{}", v.summary());
    for c in &v.checks {
        println!("  {:<20} {} {}", c.name, if c.pass { "ok " } else { "FAIL" }, c.detail);
    }
    assert!(v.pass(), "failed checks: {:?}", v.failed());
}

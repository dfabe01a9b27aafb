//! Self-test of the benchmark: the declarations obey the acceptance
//! contract, `BENCHMARK.json` is what the declarations generate, and a short
//! run of every workload in both modes prints every declared metric once.

use benchmark::decl::{Decl, END_TO_END, PER_LAYER, RUN_SECONDS};
use benchmark::workload::WORKLOADS;
use benchmark::{render, run_e2e, run_layers};
use std::collections::HashSet;
use std::process::Command;

fn name_ok(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn unit_ok(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn declarations_obey_the_contract() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut seen = HashSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(d.name), "{}", d.name);
        assert!(unit_ok(d.unit), "{}: unit {}", d.name, d.unit);
        assert!(d.better == "higher" || d.better == "lower", "{}", d.name);
        assert!(seen.insert(d.name), "{} is declared twice", d.name);
    }
    for w in &WORKLOADS {
        assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'), "{}", w.name);
    }
    for d in &END_TO_END {
        assert!(d.bound > 0.0 && d.bound <= 0.25, "{}: bound {}", d.name, d.bound);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    // The driver makes 4 + 22 × workloads runs inside 3420 s, builds included;
    // a run costs its measured seconds plus about 6 s of laps' set-up,
    // warm-up, verification and teardown.
    let runs = 4 + 22 * WORKLOADS.len() as u64;
    assert!(runs * (RUN_SECONDS + 7) + 120 <= 3420, "{runs} runs do not fit the driver's time cap");
}

#[test]
fn benchmark_json_is_generated_from_the_declarations() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    let out = Command::new(exe).arg("manifest").output().expect("run benchmark manifest");
    assert!(out.status.success());
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        committed,
        "regenerate with `benchmark manifest`"
    );
}

#[test]
fn bad_arguments_exit_non_zero_and_print_no_result() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    for args in
        [&["--workload", "nope", "--seed", "1", "--seconds", "3", "--trace", "0"][..], &[][..]]
    {
        let out = Command::new(exe).args(args).output().expect("run benchmark");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}

/// The result line holds exactly the four keys and every declared metric
/// once, with its unit and a finite value.
fn check_line(line: &str, decls: &[Decl]) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
    assert_eq!(line.matches("\"unit\"").count(), decls.len(), "{line}");
    for d in decls {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        assert_eq!(line.matches(&key).count(), 1, "{} in {line}", d.name);
        let rest = &line[line.find(&key).expect("key present") + key.len()..];
        let (value, rest) = rest.split_once(", \"unit\": \"").expect("unit follows value");
        assert!(value.parse::<f64>().expect("value is a number").is_finite(), "{}", d.name);
        assert!(rest.starts_with(&format!("{}\"}}", d.unit)), "{}: {rest}", d.name);
    }
}

// One test, so the runs do not compete with each other for the processor.
#[test]
fn every_workload_prints_every_declared_metric() {
    let scratch = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/selftest_tmp");
    for w in &WORKLOADS {
        let r = run_e2e(w, 1, 3.0).expect("correctness gate");
        assert_eq!(r.failed, 0, "{}", w.name);
        check_line(
            &render(&r, &END_TO_END).expect("every end-to-end metric measured"),
            &END_TO_END,
        );
        // Steady-state guard: bounded fleet + compaction keep memory flat.
        assert!(
            r.values["proc.rss_mb_end"] < 1024.0,
            "{}: {} MB",
            w.name,
            r.values["proc.rss_mb_end"]
        );
        if w.pace.is_some() {
            let rate = r.values["ops_per_s"];
            assert!((rate - 4000.0).abs() < 80.0, "paced generator achieved {rate} ops/s");
        }
        let r = run_layers(w, 1, 3.0, &scratch).expect("correctness gate");
        assert_eq!(r.failed, 0, "{}", w.name);
        check_line(&render(&r, &PER_LAYER).expect("every layer metric measured"), &PER_LAYER);
    }
}

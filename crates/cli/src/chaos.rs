//! `chaos list|run|sweep`: the deterministic fault-schedule harness.

use crate::{die, Args};
use nbr_chaos::{corpus, find, run_scenario_net, run_scenario_sim, write_jsonl, Scenario, Verdict};
use std::path::{Path, PathBuf};

pub const OPTS: &str = "scenario backend seed smoke out seeds";

pub fn cmd_chaos(args: &Args) {
    let verb = args.operand.as_deref().unwrap_or("");
    let scenarios: Vec<Scenario> = match args.str("scenario") {
        Some(name) => vec![find(name).unwrap_or_else(|| {
            die(2, format!("unknown scenario {name}; see `nbraft-cli chaos list`"))
        })],
        None => corpus(),
    };
    let mut verdicts = Vec::new();
    match verb {
        "list" => {
            println!("{:<24} {:>5} {:>6} {:>5}  about", "scenario", "nodes", "len", "net");
            for s in &scenarios {
                println!(
                    "{:<24} {:>5} {:>4}ms {:>5}  {}",
                    s.name,
                    s.nodes,
                    s.duration_ms,
                    match (s.net_capable(), s.net_smoke) {
                        (false, _) => "-",
                        (true, true) => "smoke",
                        (true, false) => "yes",
                    },
                    s.about
                );
            }
            return;
        }
        "run" => {
            let seed = args.get("seed", 7u64);
            let backend = args.str("backend").unwrap_or("sim");
            if !matches!(backend, "sim" | "net" | "both") {
                die(2, "--backend must be sim, net, or both");
            }
            // --smoke: restrict the (slow, wall-clock) net backend to the
            // scenarios tagged for the CI smoke tier.
            let smoke = args.has("smoke");
            // Failed net verdicts also drop a span-tree artifact next to the
            // verdict file, so the violating run's timeline survives CI.
            let span_dir: Option<PathBuf> = args.str("out").map(|o| match Path::new(o).parent() {
                Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
                _ => PathBuf::from("."),
            });
            for s in &scenarios {
                if backend != "net" {
                    let v = run_scenario_sim(s, seed);
                    println!("{}", v.summary());
                    verdicts.push(v);
                }
                if backend != "sim" && s.net_capable() && (!smoke || s.net_smoke) {
                    let scratch = std::env::temp_dir().join(format!(
                        "nbr-chaos-{}-{}",
                        std::process::id(),
                        s.name
                    ));
                    let v = run_scenario_net(s, seed, &scratch, span_dir.as_deref());
                    println!("{}", v.summary());
                    if !v.pass() {
                        for c in &v.checks {
                            let mark = if c.pass { "ok  " } else { "FAIL" };
                            println!("      {mark} {:<20} {}", c.name, c.detail);
                        }
                    }
                    verdicts.push(v);
                }
            }
        }
        "sweep" => {
            // Seed sweep on the sim backend only: bit-deterministic, so K
            // seeds explore K genuinely distinct interleavings.
            for s in &scenarios {
                for seed in 0..args.get("seeds", 5u64) {
                    let v = run_scenario_sim(s, seed);
                    if !v.pass() {
                        println!("{}", v.summary());
                    }
                    verdicts.push(v);
                }
            }
        }
        _ => die(2, format!("chaos: verb `{verb}` is none of list, run, sweep")),
    }
    finish(&verdicts, args.str("out"));
}

/// Write the verdict artifact, print the tally, and exit nonzero on any
/// failed scenario run.
fn finish(verdicts: &[Verdict], out: Option<&str>) {
    if let Some(path) = out {
        write_jsonl(Path::new(path), verdicts)
            .unwrap_or_else(|e| die(1, format!("cannot write {path}: {e}")));
    }
    let failed = verdicts.iter().filter(|v| !v.pass()).count();
    println!("chaos: {}/{} runs passed", verdicts.len() - failed, verdicts.len());
    if failed > 0 {
        die(1, format!("chaos: {failed} runs failed"));
    }
}

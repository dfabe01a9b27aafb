//! `nbr-check` — protocol lint pass and exhaustive-state safety checker.
//!
//! Two subcommands, both wired into `scripts/ci.sh`:
//!
//! ```text
//! nbr-check lint  [--root DIR]
//! nbr-check model [--quick] [--nodes N] [--windows 0,1,2] [--batches 1,2]
//!                 [--max-states N] [--min-states N] [--depth D] [--liveness]
//!                 [--no-reduce] [--compare-reduction] [--min-reduction X]
//!                 [--stats-out PATH] [--verbose]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage error.

mod lint;
mod model;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
nbr-check — protocol lint + bounded model checker for NB-Raft

USAGE:
    nbr-check lint  [--root DIR]
    nbr-check model [--quick] [--nodes N] [--windows W,W,...] [--batches B,B,...]
                    [--max-states N] [--min-states N] [--depth D] [--phase NAME]
                    [--liveness] [--no-reduce] [--compare-reduction]
                    [--min-reduction X] [--stats-out PATH] [--verbose]

LINT RULES (suppress per line with `// check:allow(Lx): justification`):
    L1  no unwrap()/expect()/panic! in core, cluster, storage
    L2  no wildcard `_ =>` match arms in core, cluster, storage
    L3  no Instant::now/SystemTime::now/thread::sleep in core, sim, types
    L4  no raw +/- on LogIndex/Term `.0` in core, cluster, storage
    L5  no transport/socket write while holding a `.lock()` guard in
        cluster, net (no thread waits behind another thread's write)
    L6  no lock-order cycles across `.lock()` acquisition sites in
        cluster, net (deadlock freedom by global lock ordering)

MODEL: explores N-node clusters (default 3, 4+ adds a double-crash
phase) + 1 client over window sizes 0..=3 (0 = stock Raft) and
append-batch caps (1 = unbatched) under bounded reorder, duplication,
loss and leader crashes, asserting ElectionSafety, LogMatching,
LeaderCompleteness, StateMachineSafety and the NB-1/NB-2/NB-3 window
invariants. States are canonicalized under node-id rotation with
channel-grouped wires and now-relative times, and commuting deliveries
are pruned by a sleep-set partial-order reduction (`--no-reduce`
restores the raw enumeration; `--compare-reduction` runs both and
enforces `--min-reduction`; pair with `--depth D` so both sides
exhaust the same min-depth ball and the ratio is exact). `--liveness`
instead checks that every issued op is eventually Confirmed under
fairness (POR off; truncated graphs stay sound via frontier
censoring). `--stats-out` writes a machine-readable JSON summary.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("model") => run_model(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory"),
            },
            other => return usage_error(&format!("unknown lint option {other}")),
        }
    }
    // Allow running from the workspace root or any subdirectory that still
    // sees `crates/` (e.g. via `cargo run -p nbr-check`).
    if !root.join("crates").is_dir() {
        if let Some(parent) = find_workspace_root(&root) {
            root = parent;
        }
    }
    match lint::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("nbr-check lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("nbr-check lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("nbr-check lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn find_workspace_root(start: &PathBuf) -> Option<PathBuf> {
    let mut dir = std::fs::canonicalize(start).ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_model(args: &[String]) -> ExitCode {
    let mut cfg = model::ModelConfig::full();
    let mut min_reduction: Option<f64> = None;
    let mut stats_out: Option<PathBuf> = None;
    let mut quick = false;
    let mut max_states_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--verbose" => cfg.verbose = true,
            "--liveness" => cfg.liveness = true,
            "--no-reduce" => cfg.reduce = false,
            "--compare-reduction" => cfg.compare_reduction = true,
            "--nodes" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if (2..=8).contains(&n) => cfg.nodes = n,
                _ => return usage_error("--nodes needs a number in 2..=8"),
            },
            "--min-reduction" => match it.next().and_then(|s| s.parse().ok()) {
                Some(x) => min_reduction = Some(x),
                None => return usage_error("--min-reduction needs a number like 5.0"),
            },
            "--stats-out" => match it.next() {
                Some(p) => stats_out = Some(PathBuf::from(p)),
                None => return usage_error("--stats-out needs a path"),
            },
            "--windows" => match it.next().map(|s| parse_list(s)) {
                Some(Ok(ws)) => cfg.windows = ws,
                _ => return usage_error("--windows needs a comma-separated list like 0,1,2"),
            },
            "--batches" => match it.next().map(|s| parse_list(s)) {
                Some(Ok(bs)) if bs.iter().all(|&b| b >= 1) => cfg.batches = bs,
                _ => return usage_error("--batches needs a comma-separated list like 1,2"),
            },
            "--max-states" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => {
                    cfg.max_states_per_run = n;
                    max_states_set = true;
                }
                None => return usage_error("--max-states needs a number"),
            },
            "--min-states" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.min_states_total = n,
                None => return usage_error("--min-states needs a number"),
            },
            "--depth" => match it.next().and_then(|s| s.parse().ok()) {
                Some(d) if d >= 1 => cfg.depth_limit = Some(d),
                _ => return usage_error("--depth needs a number >= 1"),
            },
            "--phase" => match it.next() {
                Some(name) => cfg.phase_filter = Some(name.clone()),
                None => return usage_error("--phase needs a phase name"),
            },
            other => return usage_error(&format!("unknown model option {other}")),
        }
    }
    if quick && !max_states_set {
        cfg = model::ModelConfig { max_states_per_run: 6_000, ..cfg };
    }
    if min_reduction.is_some() && !cfg.compare_reduction {
        return usage_error("--min-reduction requires --compare-reduction");
    }
    match model::run(&cfg) {
        Ok(report) => {
            let code = report_outcome(&cfg, &report, min_reduction);
            if let Some(path) = &stats_out {
                let json = model::stats_json(&report, &cfg);
                if let Err(e) = write_stats(path, &json) {
                    eprintln!("nbr-check model: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("stats written to {}", path.display());
            }
            code
        }
        Err(v) => {
            println!("nbr-check model: VIOLATION [{}] {}", v.setting, v.invariant);
            println!("trace ({} steps):", v.trace.len());
            for (i, step) in v.trace.iter().enumerate() {
                println!("  {:>3}. {step}", i + 1);
            }
            ExitCode::FAILURE
        }
    }
}

fn report_outcome(
    cfg: &model::ModelConfig,
    report: &model::ModelReport,
    min_reduction: Option<f64>,
) -> ExitCode {
    println!(
        "nbr-check model: {} distinct states, {} transitions, depth <= {}, {} run(s) capped",
        report.distinct_states, report.transitions, report.max_depth, report.truncated_runs
    );
    for r in &report.runs {
        let mut extra = String::new();
        if r.canonicalized > 0 {
            extra.push_str(&format!(" canon={}", r.canonicalized));
        }
        if r.por_skipped > 0 {
            extra.push_str(&format!(" por_skipped={}", r.por_skipped));
        }
        if let Some(u) = r.unreduced_states {
            extra.push_str(&format!(" unreduced={u}"));
        }
        if let Some(l) = &r.liveness {
            extra.push_str(&format!(
                " graph={} pending={} targets={} frontier={} censored={} excused={} sccs={}",
                l.graph_states,
                l.pending,
                l.targets,
                l.frontier,
                l.censored,
                l.excused_wedges,
                l.pending_sccs
            ));
        }
        println!(
            "  window={} batch={} phase={:<13} states={}{}{}",
            r.window,
            r.batch,
            r.phase,
            r.states,
            extra,
            if r.exhausted { " (exhausted)" } else { " (capped)" }
        );
    }
    let cov = report.coverage;
    if !cfg.liveness {
        println!(
            "coverage: elections<={} commits<={} applies<={} weak_accepts<={} crashes={} \
             append_batch<={} gap_hints<={}",
            cov.elections,
            cov.commits,
            cov.applies,
            cov.weak_accepts,
            cov.crashes,
            cov.append_batch,
            cov.gap_hints
        );
        println!(
            "reduction: {} raw states collapsed onto seen canonical classes, {} deliveries \
             sleep-set pruned",
            report.states_canonicalized, report.por_skipped
        );
    }
    if let Some(ratio) = report.reduction_ratio() {
        let (reduced, unreduced) = report.reduction.unwrap_or((0, 0));
        println!(
            "reduction ratio: {ratio:.2}x ({unreduced} unreduced vs {reduced} reduced states{})",
            if report.truncated_runs > 0 { ", lower bound: some runs capped" } else { "" }
        );
        if let Some(min) = min_reduction {
            if ratio < min {
                println!("nbr-check model: FAILED reduction floor: {ratio:.2}x < {min:.2}x");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.distinct_states < cfg.min_states_total {
        println!(
            "nbr-check model: FAILED coverage floor: {} < {} distinct states",
            report.distinct_states, cfg.min_states_total
        );
        return ExitCode::FAILURE;
    }
    if cfg.liveness {
        let targets: usize =
            report.runs.iter().filter_map(|r| r.liveness.as_ref()).map(|l| l.targets).sum();
        if targets == 0 {
            println!(
                "nbr-check model: FAILED vacuity check: liveness runs never reached a \
                 confirming state"
            );
            return ExitCode::FAILURE;
        }
        println!("nbr-check model: liveness holds under fairness");
        return ExitCode::SUCCESS;
    }
    let windowed = cfg.windows.iter().any(|&w| w > 0);
    if cov.commits == 0 || (windowed && cov.weak_accepts == 0) {
        println!(
            "nbr-check model: FAILED vacuity check: no {} observed",
            if cov.commits == 0 { "commit" } else { "WEAK_ACCEPT" }
        );
        return ExitCode::FAILURE;
    }
    if cfg.batches.iter().any(|&b| b > 1) && cov.append_batch < 2 {
        println!(
            "nbr-check model: FAILED vacuity check: batched runs never \
             delivered a multi-entry AppendEntry"
        );
        return ExitCode::FAILURE;
    }
    println!("nbr-check model: all invariants hold");
    ExitCode::SUCCESS
}

fn write_stats(path: &PathBuf, json: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, json)
}

fn parse_list(s: &str) -> Result<Vec<usize>, ()> {
    let ws: Result<Vec<usize>, _> = s.split(',').map(|p| p.trim().parse()).collect();
    match ws {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(()),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("nbr-check: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

//! `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints the result line; `benchmark aa` is the A/A
//! self-check; `benchmark manifest` prints `BENCHMARK.json`.

use benchmark::decl::{Decl, END_TO_END, PER_LAYER, RUN_SECONDS};
use benchmark::meta::Meta;
use benchmark::stats::{iqr_share, median};
use benchmark::workload::{by_name, WORKLOADS};
use benchmark::{render, render_values, run_e2e, run_layers};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       benchmark aa [--runs <n per set>] [--seconds <s>]
       benchmark manifest";

/// Value of `--name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("{name}: cannot parse {value:?}"))
}

fn require<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.ok_or_else(|| format!("{name} is required\n{USAGE}"))
}

fn run_one(args: &[String]) -> Result<(), String> {
    let name: String = require(args, "--workload")?;
    let w = by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = require(args, "--seed")?;
    let seconds: f64 = require(args, "--seconds")?;
    let trace: u8 = require(args, "--trace")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    let meta = Meta::begin();
    let (report, decls): (_, &[Decl]) = match trace {
        0 => (run_e2e(w, seed, seconds)?, &END_TO_END),
        1 => {
            // The WAL probes need a directory inside the checkout.
            let scratch = std::env::current_dir()
                .map_err(|e| format!("current directory: {e}"))?
                .join(format!(".bench_tmp_{}", std::process::id()));
            (run_layers(w, seed, seconds, &scratch)?, &PER_LAYER)
        }
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let result = render(&report, decls)?;
    println!(
        "{{\"workload\": \"{name}\", \"meta\": {}, \"values\": {}}}",
        meta.finish(seed),
        render_values(&report.values)
    );
    println!("{result}");
    Ok(())
}

/// Is `b` worse than `a` by more than `d.bound` of `a`?
fn worse(d: &Decl, a: f64, b: f64) -> bool {
    let gap = if d.better == "higher" { (a - b) / a } else { (b - a) / a };
    gap > d.bound
}

/// One end-to-end run in a process of its own, exactly as the acceptance
/// driver starts it: the value of every end-to-end metric on its result line.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success()
        || !line.starts_with("{\"correct\": true, ")
        || !line.contains("\"failed\": 0,")
    {
        return Err(format!("{workload} seed {seed}: run failed: {line}"));
    }
    END_TO_END
        .iter()
        .map(|d| {
            let key = format!("\"{}\": {{\"value\": ", d.name);
            let rest =
                line.split_once(&key).ok_or_else(|| format!("{} missing in {line}", d.name))?.1;
            let value = rest.split(',').next().unwrap_or("");
            value.parse().map_err(|_| format!("{}: cannot parse {value:?}", d.name))
        })
        .collect()
}

/// A/A self-check: `2 x runs` end-to-end runs of every workload, the
/// workloads interleaved and the runs dealt alternately to sets A and B, each
/// with its own seed. Prints, per workload and metric, both sets' values,
/// medians and quartile spreads; fails if either set's median is worse than
/// the other's by more than the metric's bound, or the spread of all the
/// values exceeds it (`setup_s` excepted, as in the driver's rule).
fn aa(args: &[String]) -> Result<(), String> {
    let runs: usize = flag(args, "--runs")?.unwrap_or(5);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let meta = Meta::begin();
    // (workload, metric) → the two sets' values.
    let mut sets: BTreeMap<(&str, &str), [Vec<f64>; 2]> = BTreeMap::new();
    for run in 0..2 * runs {
        for w in &WORKLOADS {
            let values = child_run(w.name, 1000 + run as u64, seconds)?;
            eprintln!("aa run {run} {}: {values:?}", w.name);
            for (d, value) in END_TO_END.iter().zip(values) {
                sets.entry((w.name, d.name)).or_default()[run % 2].push(value);
            }
        }
    }
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for ((workload, metric), [a, b]) in &mut sets {
        let d = END_TO_END.iter().find(|d| d.name == *metric).expect("declared metric");
        let (ma, mb) = (median(a), median(b));
        let mut all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let spread = iqr_share(&mut all);
        if worse(d, ma, mb) || worse(d, mb, ma) || (spread > d.bound && d.name != "setup_s") {
            failures.push(format!("{workload}/{metric}"));
        }
        rows.push(format!(
            "    {{\"workload\": \"{workload}\", \"metric\": \"{metric}\", \"bound\": {}, \
             \"median_a\": {ma}, \"median_b\": {mb}, \"gap\": {}, \"spread_a\": {}, \
             \"spread_b\": {}, \"spread_all\": {spread}, \"a\": {a:?}, \"b\": {b:?}}}",
            d.bound,
            (ma - mb).abs() / ma,
            iqr_share(a),
            iqr_share(b),
        ));
    }
    println!(
        "{{\n  \"runs_per_set\": {runs},\n  \"seconds\": {seconds},\n  \"meta\": {},\n  \"rows\": [\n{}\n  ]\n}}",
        meta.finish(1000),
        rows.join(",\n")
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("outside their bounds: {}", failures.join(", ")))
    }
}

/// `BENCHMARK.json`, generated from the declaration tables.
fn manifest() -> String {
    let metrics = |decls: &[Decl], bounded: bool| {
        let rows: Vec<String> = decls
            .iter()
            .map(|d| {
                let bound =
                    if bounded { format!(", \"bound\": {}", d.bound) } else { String::new() };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name, d.unit, d.better
                )
            })
            .collect();
        rows.join(",\n")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics(&END_TO_END, true),
        metrics(&PER_LAYER, false)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("aa") => aa(&args),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(())
        }
        _ => run_one(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

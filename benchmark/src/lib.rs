//! The repository benchmark. See `README.md` beside this crate for the
//! command, the metric glossary and how the layer metrics are expected to
//! move the end-to-end ones.

pub mod decl;
pub mod lap;
pub mod layers;
pub mod meta;
pub mod stats;
pub mod summary;
pub mod trace;
pub mod workload;

use decl::Decl;
use lap::{run_lap, Lap, LapOpts};
use std::fmt::Write as _;
use std::time::Duration;
use summary::{summarize, Values};
use workload::Workload;

/// Fresh clusters per run. A run's numbers pool the laps, so a cluster that
/// came up unluckily (thread placement, batching rhythm) is one of four.
pub const LAPS: usize = 4;
/// Discarded start of every lap: connections, allocator and caches settle.
pub const WARMUP: Duration = Duration::from_millis(500);

const MAX_RERUNS: usize = 2;

pub struct Report {
    /// Every lap passed the correctness gate.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// `n` laps of `w`. A lap that saw a second election or shed frames did not
/// measure steady state (on this box: the host froze the guest for longer
/// than an election timeout): it is run again, at most `MAX_RERUNS` times,
/// and counted. `Err` when the lap that is kept fails the correctness gate.
fn laps(
    w: &Workload,
    seed: u64,
    n: usize,
    measure: Duration,
    traced: bool,
) -> Result<(Vec<Lap>, u64), String> {
    let mut retried = 0;
    let mut out = Vec::new();
    for i in 0..n as u64 {
        let o = LapOpts {
            seed: seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)),
            replicas: 3,
            warmup: WARMUP,
            measure,
            traced,
        };
        let mut lap = run_lap(w, &o)?;
        for _ in 0..MAX_RERUNS {
            if lap.steady {
                break;
            }
            eprintln!(
                "benchmark: {} lap {i} run again: {} elections, {} frames shed, gate {:?}",
                w.name,
                lap.elections,
                lap.shed(),
                lap.gate
            );
            retried += 1;
            lap = run_lap(w, &o)?;
        }
        lap.gate.clone()?;
        out.push(lap);
    }
    Ok((out, retried))
}

fn report(laps: &[Lap], values: Values) -> Report {
    Report {
        correct: true,
        attempted: laps.iter().map(|l| l.attempted).sum(),
        failed: laps.iter().map(|l| l.failed).sum(),
        values,
    }
}

/// The end-to-end run: `LAPS` untraced laps sharing `seconds` of measured
/// time. `Err` means a lap failed the correctness gate.
pub fn run_e2e(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let (laps, retried) =
        laps(w, seed, LAPS, Duration::from_secs_f64(seconds / LAPS as f64), false)?;
    let values = summarize(w, &laps, retried);
    Ok(report(&laps, values))
}

/// The per-layer run: one untraced lap for the counter-derived metrics, one
/// traced lap for the phase medians (their throughput gap is the tracing
/// overhead), and the layer probes; a quarter, a quarter and half of
/// `seconds`.
pub fn run_layers(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &std::path::Path,
) -> Result<Report, String> {
    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let (mut all, retried) = laps(w, seed, 1, quarter, false)?;
    let (traced, retried_traced) = laps(w, seed, 1, quarter, true)?;
    let mut values = summarize(w, &all, retried + retried_traced);
    let traced_rate = summarize(w, &traced, 0)["ops_per_s"];
    values.insert(
        "trace.overhead_pct",
        100.0 * (values["ops_per_s"] - traced_rate) / values["ops_per_s"],
    );
    values.extend(trace::phases(&traced[0]));
    values.extend(layers::run(Duration::from_secs_f64(seconds / 2.0), scratch)?);
    all.extend(traced);
    Ok(report(&all, values))
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// the metrics being every declared one, each once.
pub fn render(r: &Report, decls: &[Decl]) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, d) in decls.iter().enumerate() {
        let value = *r.values.get(d.name).ok_or_else(|| format!("{} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("{} is {value}", d.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit);
    }
    s.push_str("}}");
    Ok(s)
}

/// Everything measured, declared or not, as a JSON object — the diagnostics
/// line: sample counts (`n.*`) and the metrics of the other mode's table
/// that this run happened to measure.
pub fn render_values(v: &Values) -> String {
    let field = |(k, x): (&&str, &f64)| match x.is_finite() {
        true => format!("\"{k}\": {x}"),
        false => format!("\"{k}\": null"),
    };
    format!("{{{}}}", v.iter().map(field).collect::<Vec<_>>().join(", "))
}

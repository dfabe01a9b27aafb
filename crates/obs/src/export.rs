//! The snapshot exporter: Prometheus text exposition.
//!
//! It takes a slice of [`Snapshot`]s (one per node) and returns a `String`;
//! callers decide where it goes (HTTP response, file, stdout). Output is
//! deterministic: snapshots are emitted in slice order and metrics in name
//! order (the snapshot maps are sorted).

use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Prefix applied to every exported metric name.
const NAMESPACE: &str = "nbr";

fn fmt_f64(v: f64) -> String {
    // Prometheus requires a decimal point or exponent for float samples;
    // {:?} gives shortest-roundtrip which always includes one.
    format!("{v:?}")
}

/// Render snapshots in the Prometheus text exposition format (version 0.0.4).
/// Counters and gauges become one sample each with a `node` label; timers
/// become a summary (`_count`, `_sum` approximated as `count * mean`, and
/// `quantile` samples for p50/p99).
pub fn prometheus(snaps: &[Snapshot]) -> String {
    let mut out = String::new();
    let mut typed: Vec<(String, &str)> = Vec::new();
    let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
        if !typed.iter().any(|(n, _)| n == name) {
            typed.push((name.to_string(), kind));
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
    };
    for s in snaps {
        let node = &s.label;
        for (name, v) in &s.counters {
            let full = format!("{NAMESPACE}_{name}");
            type_line(&mut out, &full, "counter");
            let _ = writeln!(out, "{full}{{node=\"{node}\"}} {v}");
        }
        for (name, v) in &s.gauges {
            let full = format!("{NAMESPACE}_{name}");
            type_line(&mut out, &full, "gauge");
            let _ = writeln!(out, "{full}{{node=\"{node}\"}} {v}");
        }
        for (name, t) in &s.timers {
            let full = format!("{NAMESPACE}_{name}");
            type_line(&mut out, &full, "summary");
            let _ = writeln!(out, "{full}{{node=\"{node}\",quantile=\"0.5\"}} {}", t.p50_ns);
            let _ = writeln!(out, "{full}{{node=\"{node}\",quantile=\"0.99\"}} {}", t.p99_ns);
            let sum = t.mean_ns * t.count as f64;
            let _ = writeln!(out, "{full}_sum{{node=\"{node}\"}} {}", fmt_f64(sum));
            let _ = writeln!(out, "{full}_count{{node=\"{node}\"}} {}", t.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Vec<Snapshot> {
        let r0 = Registry::new("node0");
        r0.counter("entries_appended").add(42);
        r0.gauge("commit_index").set(40);
        let t = r0.timer("t_wait_ns");
        t.record(1000);
        t.record(3000);
        let r1 = Registry::new("node1");
        r1.counter("entries_appended").add(17);
        vec![r0.snapshot(), r1.snapshot()]
    }

    #[test]
    fn prometheus_golden() {
        let got = prometheus(&sample());
        let want = "\
# TYPE nbr_entries_appended counter
nbr_entries_appended{node=\"node0\"} 42
# TYPE nbr_commit_index gauge
nbr_commit_index{node=\"node0\"} 40
# TYPE nbr_t_wait_ns summary
nbr_t_wait_ns{node=\"node0\",quantile=\"0.5\"} 1000
nbr_t_wait_ns{node=\"node0\",quantile=\"0.99\"} 2944
nbr_t_wait_ns_sum{node=\"node0\"} 4000.0
nbr_t_wait_ns_count{node=\"node0\"} 2
nbr_entries_appended{node=\"node1\"} 17
";
        assert_eq!(got, want);
    }
}

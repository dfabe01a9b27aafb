//! Turns the laps of one workload into named numbers.

use crate::lap::{Lap, Op};
use crate::stats::{iqr_share, median, percentile};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::time::Duration;

/// Named values, keyed by the metric names of [`crate::decl`]. Keys that
/// start with `n.` are sample counts, printed beside the percentiles.
pub type Values = BTreeMap<&'static str, f64>;

/// A segment is *quiet* when the host stole at most this much CPU time from
/// the guest during it: one tick of the kernel's steal counter.
///
/// On this kind of box (a 2-vCPU guest among other tenants) the host takes
/// the processor away in bursts: runs of the same code measured 15 k ops/s
/// with 11 s of steal and 23-25 k with under 1 s, and a second that loses
/// 100 ms to steal loses a third of its throughput, because one descheduled
/// vCPU stalls the whole thread pipeline. Such seconds measure the host, not
/// the program, so rates and latencies are taken over quiet segments only.
const QUIET_STEAL_MS: f64 = 10.0;
/// At least this share of a run's segments is used, the ones with the least
/// steal, however busy the host was.
const MIN_QUIET_SHARE: f64 = 0.25;

/// One segment of a lap's measured window.
struct Segment<'a> {
    steal_ms: f64,
    /// Ops first-acked in the segment, in ack order.
    ops: Vec<&'a Op>,
    /// Acks over the time from the last ack of the previous segment to this
    /// segment's last ack: a quotient of two measured instants, not a count
    /// over a nominal second.
    rate: f64,
}

fn segments(lap: &Lap) -> Vec<Segment<'_>> {
    let (start, len) = lap.window;
    let n = lap.steal_ms.len();
    let mut ops: Vec<&Op> = lap.measured().collect();
    ops.sort_unstable_by_key(|o| o.acked);
    let mut out = Vec::with_capacity(n);
    let mut rest = &ops[..];
    let mut prev_end = start;
    for (k, &steal_ms) in lap.steal_ms.iter().enumerate() {
        let end = start + len * (k as u32 + 1) / n as u32;
        let (mine, later) = rest.split_at(rest.partition_point(|o| o.acked < end));
        rest = later;
        let rate = mine.last().map_or(0.0, |last| {
            let r = mine.len() as f64 / (last.acked - prev_end).as_secs_f64();
            prev_end = last.acked;
            r
        });
        out.push(Segment { steal_ms, ops: mine.to_vec(), rate });
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every number the benchmark reports about one workload from its laps:
/// the end-to-end metrics, the layer metrics that come from scrape-counter
/// growth over the measured windows, and the generator's own diagnostics.
pub fn summarize(w: &Workload, laps: &[Lap], retried_laps: u64) -> Values {
    let mut v = Values::new();
    let per_lap: Vec<Vec<Segment>> = laps.iter().map(segments).collect();
    let total: usize = per_lap.iter().map(Vec::len).sum();

    // The quiet segments; failing enough of those, the least disturbed.
    let mut steal: Vec<f64> = per_lap.iter().flatten().map(|s| s.steal_ms).collect();
    steal.sort_unstable_by(f64::total_cmp);
    let floor = steal[((total as f64 * MIN_QUIET_SHARE).ceil() as usize).clamp(1, total) - 1];
    let limit = QUIET_STEAL_MS.max(floor);
    let quiet = |lap: &[Segment]| -> Vec<f64> {
        lap.iter().filter(|s| s.steal_ms <= limit).map(|s| s.rate).collect()
    };
    let mut rates: Vec<f64> = per_lap.iter().flat_map(|l| quiet(l)).collect();
    v.insert("ops_per_s", median(&mut rates));
    v.insert("gen.seg_iqr_pct", 100.0 * iqr_share(&mut rates));
    v.insert("gen.quiet_pct", 100.0 * rates.len() as f64 / total as f64);
    v.insert("n.segments", rates.len() as f64);
    let lap_rate = |l: &Vec<Segment>| median(&mut quiet(l));
    let (first, last) = (lap_rate(&per_lap[0]), lap_rate(&per_lap[per_lap.len() - 1]));
    let drift = 100.0 * (last - first) / first;
    v.insert("gen.drift_pct", if drift.is_finite() { drift } else { 0.0 });
    v.insert("gen.retried_laps", retried_laps as f64);
    let (attempted, failed) = laps.iter().fold((0, 0), |(a, f), l| (a + l.attempted, f + l.failed));
    v.insert("gen.failed_pct", 100.0 * failed as f64 / attempted as f64);
    v.insert("setup_s", median(&mut laps.iter().map(|l| l.setup_s).collect::<Vec<_>>()));

    // Latencies: over the ops acked in quiet segments.
    let ops: Vec<&Op> = per_lap
        .iter()
        .flatten()
        .filter(|s| s.steal_ms <= limit)
        .flat_map(|s| s.ops.iter().copied())
        .collect();
    let sorted = |f: &dyn Fn(&Op) -> Option<Duration>| {
        let mut ns: Vec<u64> =
            ops.iter().filter_map(|o| f(o)).map(|d| d.as_nanos() as u64).collect();
        ns.sort_unstable();
        ns
    };
    let ack = sorted(&|o| Some(o.acked - o.due));
    let commit = sorted(&|o| o.confirmed.map(|c| c - o.due));
    let late = sorted(&|o| Some(o.sent - o.due));
    v.insert("ack_p50_ms", ms(percentile(&ack, 0.5)));
    v.insert("commit_p50_ms", ms(percentile(&commit, 0.5)));
    v.insert("gen.ack_p99_ms", ms(percentile(&ack, 0.99)));
    v.insert("gen.commit_p99_ms", ms(percentile(&commit, 0.99)));
    v.insert("n.ack", ack.len() as f64);
    v.insert("n.commit", commit.len() as f64);
    v.insert("gen.late_p99_us", percentile(&late, 0.99) as f64 / 1e3);
    // Late by a whole interval: the previous request of the connection was
    // still outstanding when this one fell due, so a backlog formed.
    let behind = w.pace.map_or(0, |p| late.iter().filter(|&&ns| ns > p.as_nanos() as u64).count());
    v.insert("gen.late_pct", 100.0 * behind as f64 / ops.len() as f64);

    // Counter growth is over the whole windows, so it is put over every op
    // of the windows, quiet segment or not.
    let n = laps.iter().map(|l| l.measured().count()).sum::<usize>() as f64;
    let kops = n / 1000.0;
    let weak = laps.iter().flat_map(Lap::measured).filter(|o| o.weak).count();
    v.insert("core.weak_share_pct", 100.0 * weak as f64 / n);
    let sum = |name: &str| laps.iter().map(|l| l.counter(name)).sum::<u64>() as f64;
    v.insert("core.msgs_per_op", sum("messages") / n);
    v.insert("core.parked_per_kop", sum("parked") / kops);
    v.insert("core.park_wait_us_per_op", sum("park_wait_ns") / 1e3 / n);
    v.insert("core.window_flushes_per_kop", sum("window_flushes") / kops);
    let elections = laps.iter().map(|l| l.elections).sum::<u64>();
    v.insert("core.elections", elections as f64 / laps.len() as f64);
    v.insert("net.frames_per_op", sum("net_frames_out") / n);
    v.insert("net.bytes_per_op", sum("net_bytes_out") / n);
    v.insert("net.frames_lost_per_kop", sum("net_frames_lost") / kops);
    v.insert("net.shed_per_kop", laps.iter().map(Lap::shed).sum::<u64>() as f64 / kops);
    v.insert("proc.cpu_ms_per_kop", laps.iter().map(|l| l.cpu_ms).sum::<f64>() / kops);
    v.insert("proc.rss_mb_end", laps.last().map_or(0.0, |l| l.rss_mb));
    v
}

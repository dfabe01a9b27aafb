//! The metrics the benchmark declares: the one place their names, units,
//! directions and bounds are written down. `BENCHMARK.json` is generated
//! from these tables (`benchmark manifest`) and the self-test keeps the
//! committed file and every run's output in step with them.

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before a change is rejected.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better, bound: 0.0 }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 24;

/// What a user of the cluster sees. Every bound is the cap the acceptance
/// contract allows: the ten-run spread of `lan_sat/ops_per_s` was 10% in one
/// A/A study and 21% in another (`NOISE.json`, README "Noise"), from host
/// drift that nothing in the guest predicts.
pub const END_TO_END: [Decl; 4] = [
    // First-acked (weak or strong) ops per second: median over the laps'
    // quiet half-second segments.
    e2e("ops_per_s", "ops/s", "higher", 0.25),
    // Due → first ack (due = submit on the closed-loop workloads).
    e2e("ack_p50_ms", "ms", "lower", 0.25),
    // Due → the cumulative `Confirmed` watermark that covers the op.
    e2e("commit_p50_ms", "ms", "lower", 0.25),
    // Spawn → leader elected → every client's first request acked; median
    // of the laps.
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: [Decl; 53] = [
    // types: the wire codec, one AppendEntry frame (ns/frame, ns/entry).
    layer("types.encode_ns_256", "ns", "lower"),
    layer("types.encode_ns_4k", "ns", "lower"),
    layer("types.decode_ns_256", "ns", "lower"),
    layer("types.decode_ns_4k", "ns", "lower"),
    layer("types.encode_ns_per_entry_b64", "ns", "lower"),
    // core: the sans-I/O engine, ns per entry or op.
    layer("core.leader_propose_ns", "ns", "lower"),
    layer("core.follower_append_ns_b1", "ns", "lower"),
    layer("core.follower_append_ns_b64", "ns", "lower"),
    layer("core.follower_append_ns_w0", "ns", "lower"),
    layer("core.window_offer_ns", "ns", "lower"),
    layer("core.votelist_commit_ns", "ns", "lower"),
    layer("core.client_step_ns", "ns", "lower"),
    // core, per workload, from the replicas' scrape counters.
    layer("core.msgs_per_op", "count", "lower"),
    layer("core.weak_share_pct", "%", "higher"),
    layer("core.parked_per_kop", "count", "lower"),
    layer("core.park_wait_us_per_op", "us", "lower"),
    layer("core.window_flushes_per_kop", "count", "lower"),
    layer("core.elections", "count", "lower"),
    // storage.
    layer("storage.memlog_append_ns", "ns", "lower"),
    layer("storage.wal_append_us_nosync", "us", "lower"),
    layer("storage.wal_append_us_fsync", "us", "lower"),
    layer("storage.kv_apply_ns_256", "ns", "lower"),
    layer("storage.kv_apply_ns_4k", "ns", "lower"),
    // cluster: the replica loop without sockets.
    layer("cluster.inproc_ops_per_s", "ops/s", "higher"),
    layer("cluster.inproc_ack_p50_us", "us", "lower"),
    layer("cluster.coalesce_ns_burst256", "ns", "lower"),
    // net: the TCP transport and client.
    layer("net.link_frames_per_s", "1/s", "higher"),
    layer("net.link_mb_per_s_4k", "MB/s", "higher"),
    layer("net.single_node_ops_per_s", "ops/s", "higher"),
    layer("net.client_rtt_us", "us", "lower"),
    // net, per workload, from the transports' scrape counters.
    layer("net.frames_per_op", "count", "lower"),
    layer("net.bytes_per_op", "B", "lower"),
    layer("net.frames_lost_per_kop", "count", "lower"),
    layer("net.shed_per_kop", "count", "lower"),
    // obs: phase medians of the traced lap, in the order an op meets them.
    layer("trace.ingress_p50_us", "us", "lower"),
    layer("trace.queue_p50_us", "us", "lower"),
    layer("trace.link_p50_us", "us", "lower"),
    layer("trace.window_wait_mean_us", "us", "lower"),
    layer("trace.weak_ack_p50_us", "us", "lower"),
    layer("trace.commit_wait_p50_us", "us", "lower"),
    layer("trace.reply_p50_us", "us", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    // The process and the generator itself.
    layer("proc.cpu_ms_per_kop", "ms", "lower"),
    layer("proc.rss_mb_end", "MB", "lower"),
    layer("gen.ack_p99_ms", "ms", "lower"),
    layer("gen.commit_p99_ms", "ms", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.late_pct", "%", "lower"),
    layer("gen.quiet_pct", "%", "higher"),
    layer("gen.seg_iqr_pct", "%", "lower"),
    layer("gen.drift_pct", "%", "higher"),
    layer("gen.retried_laps", "count", "lower"),
    layer("gen.failed_pct", "%", "lower"),
];

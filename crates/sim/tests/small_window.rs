//! Window 0 is Raft, and a window above 0 only lets a follower accept more
//! out of order (paper §III): no window may run slower than window 0.
//!
//! A repair heuristic once re-sent 64 entries whenever a Strong accept
//! trailed the log tail by more than the window, which ordinary pipelining
//! does at high concurrency; windows 1–64 then ran at about 1/85 of
//! window 0. Here at the quick figure scale (150 ms warm-up, 300 ms
//! measured), 3 replicas, 256 closed-loop clients and dispatchers, 4 KiB.

use nbr_sim::{run, SimConfig};
use nbr_types::{Protocol, TimeDelta};

fn ops_per_s(window: usize) -> f64 {
    run(SimConfig {
        protocol: Protocol::NbRaft,
        window,
        n_replicas: 3,
        n_clients: 256,
        n_dispatchers: 256,
        payload: 4096,
        warmup: TimeDelta::from_millis(150),
        duration: TimeDelta::from_millis(300),
        ..SimConfig::default()
    })
    .throughput
}

#[test]
fn no_small_window_runs_slower_than_window_zero() {
    let raft = ops_per_s(0);
    for window in [1, 4, 16, 64] {
        let nb = ops_per_s(window);
        assert!(
            nb >= 0.95 * raft,
            "window {window}: {nb:.0} ops/s, {:.3}x window 0's {raft:.0}",
            nb / raft
        );
    }
}

//! Failover and the persistence trade-off (paper Section IV / Figure 19):
//! run ingestion on the deterministic simulator, crash the leader and the
//! clients mid-run with two scheduled faults (`crash leader`, `crash
//! clients`), let a new leader win the election, and measure how many issued
//! requests survived — for Raft and for NB-Raft across follower timeouts.
//!
//! ```text
//! cargo run --release --example failover_loss
//! ```

use nbraft::sim::{run, SimConfig};
use nbraft::types::{Fault, Protocol, Target, Time, TimeDelta, TimeoutConfig};

fn loss_run(protocol: Protocol, timeout_ms: u64, seed: u64) -> (u64, u64, f64) {
    let crash = Time::from_millis(1500);
    let r = run(SimConfig {
        protocol,
        window: 10_000,
        // High concurrency so the in-flight backlog at kill time takes a
        // comparable time to the election timeout to drain — the mechanism
        // of the paper's Figure 13.
        n_clients: 768,
        n_dispatchers: 768,
        // The run lasts until 5 s after the crash (warmup + duration).
        warmup: TimeDelta::from_millis(200),
        duration: TimeDelta::from_millis(6300),
        timeouts: TimeoutConfig {
            election_min: TimeDelta::from_millis(timeout_ms),
            election_max: TimeDelta::from_millis(timeout_ms + timeout_ms / 2),
            heartbeat_interval: TimeDelta::from_millis(8),
        },
        // The paper's methodology: the clients die too, so none retries.
        chaos: vec![
            (crash, Fault::Crash { target: Target::Leader }),
            (crash, Fault::Crash { target: Target::Clients }),
        ],
        seed,
        // Heavy-tail deliveries (TCP retransmits / GC pauses) put in-flight
        // entries in a genuine race with the election.
        costs: nbraft::sim::CostModel {
            straggler_prob: 0.01,
            straggler_delay: TimeDelta::from_millis(120),
            ..nbraft::sim::CostModel::default()
        },
        ..Default::default()
    });
    (r.issued, r.survived, r.loss_fraction)
}

fn main() {
    println!("killing leader + clients after 1.5 s of ingestion (768 clients, 4 KB)");
    println!("(timeouts scaled 1:25 vs the paper's 0.5-2.5 s; see EXPERIMENTS.md)\n");
    println!(
        "{:<10} {:>14} {:>10} {:>10} {:>14}",
        "protocol", "timeout (ms)", "issued", "survived", "loss fraction"
    );
    for &timeout in &[20u64, 40, 60, 80, 100] {
        for protocol in [Protocol::Raft, Protocol::NbRaft] {
            // Average three seeds: a single kill loses only a handful of
            // in-flight entries.
            let mut issued = 0u64;
            let mut survived = 0u64;
            let mut loss = 0.0;
            for seed in [1u64, 2, 3] {
                let (i, s, l) = loss_run(protocol, timeout, seed);
                issued += i;
                survived += s;
                loss += l / 3.0;
            }
            println!(
                "{:<10} {:>14} {:>10} {:>10} {:>14.6}",
                protocol.name(),
                timeout,
                issued,
                survived,
                loss
            );
        }
    }
    println!(
        "\nThe trade-off of paper Section IV: NB-Raft may lose slightly more \
         in-flight entries than Raft on a leader kill (its clients run ahead \
         via WEAK_ACCEPT), but the loss stays orders of magnitude below the \
         ~25% sensor-data missing rates the paper reports in real IoT \
         deployments — while throughput is ~30% higher."
    );
}

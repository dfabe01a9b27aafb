//! The workloads and their seeded inputs.

use bytes::Bytes;
use nbr_workload::{RequestGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Devices in the fleet. Every request overwrites one device's key, so the
/// replicated KV store stays at `DEVICES` keys however long a lap runs.
pub const DEVICES: usize = 1024;
const SENSORS_PER_DEVICE: u64 = 4;
/// Distinct pre-generated requests per client connection, cycled in order.
const POOL: usize = 256;

/// One traffic mix. The names are final: later issues cite them.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Client connections. The protocol allows one outstanding request per
    /// connection (paper III-C), so offered load is set by this count.
    pub clients: usize,
    /// Request payload in bytes, key included.
    pub payload: usize,
    /// `Some(interval)`: open loop, each connection's requests are due on a
    /// fixed schedule. `None`: closed loop.
    pub pace: Option<Duration>,
    /// Emulated one-hop peer-link delay (half the round trip).
    pub link_delay: Duration,
    /// Share of peer frames dropped, in percent.
    pub loss_pct: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lan_sat",
        why: "16 closed-loop clients, 256 B, loopback: saturation; per-frame CPU in core, cluster loop, codec and net dominates",
        clients: 16,
        payload: 256,
        pace: None,
        link_delay: Duration::ZERO,
        loss_pct: 0.0,
    },
    Workload {
        name: "lan_4k",
        why: "16 closed-loop clients, 4 KiB (the paper's record size), loopback: per-byte cost (CRC, copies, apply) dominates",
        clients: 16,
        payload: 4096,
        pace: None,
        link_delay: Duration::ZERO,
        loss_pct: 0.0,
    },
    Workload {
        name: "lan_paced",
        why: "open loop, 4 connections x 1000 ops/s on a fixed schedule, 256 B: latency far below capacity; batching that delays requests shows here",
        clients: 4,
        payload: 256,
        pace: Some(Duration::from_millis(1)),
        link_delay: Duration::ZERO,
        loss_pct: 0.0,
    },
    Workload {
        name: "wan_lossy",
        why: "16 closed-loop clients, 256 B, 10 ms emulated RTT, 2% peer-frame loss: the paper's regime; window, VoteList and repair dominate, CPU savings should move nothing",
        clients: 16,
        payload: 256,
        pace: None,
        link_delay: Duration::from_millis(5),
        loss_pct: 2.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One pre-generated request: the device it overwrites and the full payload
/// `d{device:04}=<point batch>` (the KV machine splits at the first `=`).
pub struct Request {
    pub device: u16,
    pub payload: Bytes,
}

/// The request pool of client `t` of `clients`, a function of `seed` alone.
///
/// Client `t` owns the devices `d` with `d % clients == t`, so the last
/// request a client sent to a device is that key's final value and the
/// generator can predict the replicated state byte for byte. The point
/// batches come from `nbr_workload::RequestGenerator`; the seed shifts the
/// series stripe the generator starts from and picks the devices. Requests
/// are generated before the lap so that generating them costs the measured
/// window nothing.
pub fn request_pool(seed: u64, t: usize, clients: usize, payload: usize) -> Vec<Request> {
    const KEY_LEN: usize = 6; // "d0000="
    let cfg = WorkloadConfig {
        devices: DEVICES as u64,
        sensors_per_device: SENSORS_PER_DEVICE,
        request_size: payload - KEY_LEN,
        sample_interval_ms: 1000,
    };
    let stripes = DEVICES as u64 * SENSORS_PER_DEVICE / clients as u64;
    let shift = (seed % stripes) * clients as u64;
    let mut gen = RequestGenerator::new(cfg, t as u64 + shift, clients as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64 + 1) << 32));
    (0..POOL)
        .map(|_| {
            let device = (t + clients * rng.random_range(0..DEVICES / clients)) as u16;
            let mut buf = Vec::with_capacity(payload);
            buf.extend_from_slice(format!("d{device:04}=").as_bytes());
            buf.extend_from_slice(&gen.next_request());
            Request { device, payload: Bytes::from(buf) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_repeat_per_seed_have_the_stated_size_and_disjoint_devices() {
        for w in &WORKLOADS {
            let a = request_pool(7, 1, w.clients, w.payload);
            let b = request_pool(7, 1, w.clients, w.payload);
            let c = request_pool(8, 1, w.clients, w.payload);
            assert!(a.iter().zip(&b).all(|(x, y)| x.payload == y.payload));
            assert!(a.iter().zip(&c).any(|(x, y)| x.payload != y.payload));
            assert!(a.iter().all(|r| r.payload.len() == w.payload));
            assert!(a.iter().all(|r| r.device as usize % w.clients == 1));
            assert!(a.iter().all(|r| (r.device as usize) < DEVICES));
        }
    }
}

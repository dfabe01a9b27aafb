//! CI threshold for the pay-for-use probe contract: a node whose probe is
//! `EngineProbe::Off` (what `Node::new` and every untraced runtime use)
//! must not be measurably slower than one carrying full trace capture. If this
//! fails, an instrumentation site started doing work before consulting the
//! probe (formatting, allocation, clock reads) — the one regression the
//! probe design promises can't happen.
//!
//! Methodology: interleaved rounds (immune to CPU-frequency drift between
//! the two configurations) and medians (immune to scheduler outliers),
//! with a generous noise margin. The fine-grained numbers live in
//! `nbr-bench`'s `probe_overhead` criterion bench.

use nbraft::core::Node;
use nbraft::obs::EngineProbe;
use nbraft::storage::MemLog;
use nbraft::types::*;
use std::time::{Duration, Instant};

const OPS: u64 = 100;
const BATCH: usize = 20;
const ROUNDS: usize = 9;

fn build(probe: EngineProbe) -> Node<MemLog> {
    let membership = vec![NodeId(0), NodeId(1), NodeId(2)];
    let mut node = Node::with_probe(
        NodeId(0),
        membership,
        Protocol::NbRaft.config(1024),
        MemLog::new(),
        42,
        probe,
    );
    let mut out = Vec::new();
    node.campaign(Time::ZERO, &mut out);
    node
}

fn propose(node: &mut Node<MemLog>) {
    let mut out = Vec::new();
    for i in 0..OPS {
        node.handle_client(
            ClientRequest {
                client: ClientId(1),
                request: RequestId(i + 1),
                payload: bytes::Bytes::from_static(&[7u8; 256]),
            },
            Time::from_millis(i),
            &mut out,
        );
        out.clear();
    }
}

/// One sample: `BATCH` fresh leaders each proposing `OPS` entries.
fn sample(mk: &impl Fn() -> EngineProbe) -> Duration {
    let mut nodes: Vec<Node<MemLog>> = (0..BATCH).map(|_| build(mk())).collect();
    let t0 = Instant::now();
    for n in &mut nodes {
        propose(n);
    }
    t0.elapsed()
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort_unstable();
    v[v.len() / 2]
}

#[test]
fn probe_off_is_not_slower_than_full_capture() {
    // Warm both paths once (page-in, allocator steady state).
    let _ = sample(&|| EngineProbe::Off);
    let _ = sample(&|| EngineProbe::shared().0);

    let mut off = Vec::new();
    let mut shared = Vec::new();
    for _ in 0..ROUNDS {
        off.push(sample(&|| EngineProbe::Off));
        shared.push(sample(&|| EngineProbe::shared().0));
    }
    let off = median(off);
    let shared = median(shared);

    // Off must sit at or below the full-capture cost; 1.25x absorbs
    // CI timer noise on a ~ms-scale sample.
    assert!(
        off <= shared.mul_f64(1.25),
        "untraced hot path slower than full trace capture: {off:?} vs {shared:?} — \
         a probe site is paying before checking the probe"
    );
}

//! Probe-cost microbench: the tracing instrumentation must be pay-for-use.
//!
//! Two configurations of the identical leader hot path (100 client
//! proposals through `Node::handle_client`):
//!
//! - `engine_off`  — `EngineProbe::Off`, what `Node::new` and every
//!   untraced runtime use. One predictable branch per probe site; events
//!   are never recorded.
//! - `engine_shared` — `EngineProbe::Shared`, full trace capture into the
//!   mutex-guarded buffer (what `serve --trace` / `bench-net --trace-dir`
//!   pay).
//!
//! The CI threshold lives in the root package's `tests/probe_overhead.rs`
//! (tier-1 visible); this bench is for inspecting the margins.

use criterion::{criterion_group, criterion_main, Criterion};
use nbr_core::Node;
use nbr_obs::EngineProbe;
use nbr_storage::MemLog;
use nbr_types::*;

const OPS: u64 = 100;

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

fn bench_probe_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_overhead");
    g.bench_function("propose_100/engine_off", |b| {
        b.iter_batched(
            || build(EngineProbe::Off),
            |mut n| propose(&mut n),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("propose_100/engine_shared", |b| {
        b.iter_batched(
            || {
                let (probe, handle) = EngineProbe::shared();
                (build(probe), handle)
            },
            |(mut n, _handle)| propose(&mut n),
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_probe_overhead);
criterion_main!(benches);

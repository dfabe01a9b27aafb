//! Microbenchmarks of the storage engines, the Petri-net engine, the
//! workload generator and small end-to-end simulator runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbr_petri::{Delay, Net, Selector};
use nbr_sim::{run, SimConfig};
use nbr_storage::{encode_batch, Point, StateMachine, TsStore};
use nbr_types::*;
use nbr_workload::{RequestGenerator, WorkloadConfig};

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    g.bench_function("tsdb_apply_100x10pts", |b| {
        let batches: Vec<Entry> = (1..=100u64)
            .map(|i| {
                let pts: Vec<Point> = (0..10)
                    .map(|j| Point { series: j, timestamp: i * 10, value: i as f64 })
                    .collect();
                Entry::data(LogIndex(i), Term(1), Term(1), None, encode_batch(&pts, 0))
            })
            .collect();
        b.iter_batched(
            || TsStore::new(64),
            |mut ts| {
                for e in &batches {
                    ts.apply(e);
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_petri(c: &mut Criterion) {
    let mut g = c.benchmark_group("petri");
    g.bench_function("pipeline_10k_firings", |b| {
        b.iter(|| {
            let mut net = Net::new(1);
            let src = net.place("src", 0);
            let mid = net.place("mid", 0);
            let done = net.place("done", 0);
            net.put_tokens(src, &(1..=5000u64).collect::<Vec<_>>());
            net.transition(
                "a",
                vec![(src, Selector::Fifo)],
                vec![mid],
                Delay::Const(1000),
                8,
                None,
            );
            net.transition(
                "b",
                vec![(mid, Selector::Fifo)],
                vec![done],
                Delay::Const(1000),
                8,
                None,
            );
            net.run_until(10_000_000_000);
            assert_eq!(net.tokens_in(done), 5000);
        });
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    for &size in &[1024usize, 65536] {
        g.bench_with_input(BenchmarkId::new("next_request", size), &size, |b, &size| {
            let mut gen = RequestGenerator::new(
                WorkloadConfig { request_size: size, ..Default::default() },
                0,
                64,
            );
            b.iter(|| gen.next_request());
        });
    }
    g.finish();
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    for proto in [Protocol::Raft, Protocol::NbRaft] {
        g.bench_with_input(
            BenchmarkId::new("run_64cli_300ms", proto.name()),
            &proto,
            |b, &proto| {
                b.iter(|| {
                    run(SimConfig {
                        protocol: proto,
                        n_clients: 64,
                        n_dispatchers: 64,
                        warmup: TimeDelta::from_millis(100),
                        duration: TimeDelta::from_millis(200),
                        ..Default::default()
                    })
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_storage, bench_petri, bench_workload, bench_sim);
criterion_main!(benches);

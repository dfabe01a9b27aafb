//! Microbenchmarks of the protocol hot paths: the sliding window (the
//! paper's core data structure) and whole-node message handling per
//! comparator — including the window-size ablation DESIGN.md calls out
//! (w = 0 is original Raft; how much does window bookkeeping cost?). The
//! in-order window offer and the VoteList commit are measured by the
//! repository benchmark's `core.window_offer_ns` / `core.votelist_commit_ns`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbr_core::{Node, SlidingWindow, WindowOutcome};
use nbr_storage::MemLog;
use nbr_types::*;

fn entry(i: u64, t: u64, p: u64) -> Entry {
    Entry::noop(LogIndex(i), Term(t), Term(p))
}

fn bench_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("sliding_window");
    // Ablation: insertion cost across window sizes (w=0 parks immediately).
    for &w in &[0usize, 16, 256, 4096] {
        g.bench_with_input(BenchmarkId::new("offer_out_of_order", w), &w, |b, &w| {
            b.iter_batched(
                || SlidingWindow::new(w, LogIndex(0)),
                |mut win| {
                    // Offer a burst in reverse order then flush with the gap.
                    for i in (2..=64u64).rev() {
                        let _ = win.offer(entry(i, 1, 1), Term::ZERO);
                    }
                    let out = win.offer(entry(1, 1, 0), Term::ZERO);
                    assert!(matches!(out, WindowOutcome::Flush(_)));
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_node(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_engine");
    for proto in [Protocol::Raft, Protocol::NbRaft, Protocol::CRaft, Protocol::VgRaft] {
        g.bench_with_input(BenchmarkId::new("propose_100", proto.name()), &proto, |b, &proto| {
            b.iter_batched(
                || {
                    let membership = vec![NodeId(0), NodeId(1), NodeId(2)];
                    let mut node =
                        Node::new(NodeId(0), membership, proto.config(1024), MemLog::new(), 42);
                    let mut out = Vec::new();
                    node.campaign(Time::ZERO, &mut out);
                    // One granted vote makes a quorum of three: the proposals
                    // below run the leader's path, not `NotLeader`.
                    let vote =
                        RequestVoteRespMsg { term: node.term(), from: NodeId(1), granted: true };
                    node.handle_message(
                        NodeId(1),
                        Message::RequestVoteResp(vote),
                        Time::ZERO,
                        &mut out,
                    );
                    assert!(node.is_leader());
                    node
                },
                |mut node| {
                    let mut out = Vec::new();
                    for i in 0..100u64 {
                        node.handle_client(
                            ClientRequest {
                                client: ClientId(1),
                                request: RequestId(i + 1),
                                payload: bytes::Bytes::from(vec![7u8; 4096]),
                            },
                            Time::from_millis(i),
                            &mut out,
                        );
                        out.clear();
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_window, bench_node);
criterion_main!(benches);

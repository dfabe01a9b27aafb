//! Seeded chaos tests: random message reordering, duplication, delay and
//! loss, with safety invariants checked throughout:
//!
//! * **Log matching** — committed prefixes never diverge across replicas.
//! * **Leader completeness** — committed client requests survive elections.
//! * **At-most-one leader per term.**

mod common;

use common::{Rand, TestCluster};
use nbr_storage::LogStore;
use nbr_types::*;

fn chaos_round(proto: Protocol, window: usize, seed: u64, n: usize, requests: u64) {
    let cfg = proto.config(window);
    let mut c = TestCluster::new(n, &cfg);
    let mut rng = Rand(seed | 1);
    c.elect(0);

    let mut issued = 0u64;
    let mut terms_with_leader: Vec<(Term, NodeId)> = Vec::new();

    for round in 0..600u64 {
        // Issue requests at whoever claims leadership.
        if issued < requests {
            let leaders: Vec<u32> =
                c.nodes.iter().flatten().filter(|nd| nd.is_leader()).map(|nd| nd.id().0).collect();
            if let Some(&l) = leaders.first() {
                issued += 1;
                c.client_request(l, 1, issued, format!("k{issued}=v").as_bytes());
            }
        }

        // Chaos: shuffle, duplicate, drop pending messages.
        if !c.pending.is_empty() {
            if rng.chance(40) {
                // Reorder: move a random message to the front.
                let i = rng.below(c.pending.len());
                let m = c.pending.remove(i).unwrap();
                c.pending.push_front(m);
            }
            if rng.chance(10) {
                let i = rng.below(c.pending.len());
                let m = c.pending[i].clone();
                c.pending.push_back(m); // duplicate
            }
            if rng.chance(8) {
                let i = rng.below(c.pending.len());
                c.pending.remove(i); // drop
            }
            // Deliver a few messages.
            for _ in 0..4 {
                if c.pending.is_empty() {
                    break;
                }
                let i = if rng.chance(30) { rng.below(c.pending.len()) } else { 0 };
                c.deliver_at(i);
            }
        }

        // Occasionally advance time (may trigger elections/heartbeats).
        if round % 5 == 0 {
            c.tick(TimeDelta::from_millis(40));
        }

        // Invariant: at most one leader per term.
        for node in c.nodes.iter().flatten() {
            if node.is_leader() {
                let t = node.term();
                match terms_with_leader.iter().find(|(tt, _)| *tt == t) {
                    Some((_, id)) => assert_eq!(*id, node.id(), "two leaders in {t}"),
                    None => terms_with_leader.push((t, node.id())),
                }
            }
        }
        // Invariant: committed prefixes agree.
        c.assert_committed_prefix_consistent();
    }

    // Drain: deliver everything and let heartbeats finish replication.
    for _ in 0..30 {
        c.pump();
        c.tick(TimeDelta::from_millis(60));
    }
    c.pump();
    c.assert_committed_prefix_consistent();

    // Liveness under this bounded chaos: a leader exists and most requests
    // committed (drops may have eaten some responses, but repair + client
    // retries are not modelled here, so just require progress).
    let max_commit = c.nodes.iter().flatten().map(|nd| nd.commit_index()).max().unwrap();
    assert!(max_commit.0 > 1, "cluster made no progress under chaos (seed {seed})");
}

#[test]
fn chaos_raft_three_nodes() {
    for seed in [1u64, 7, 42, 1234, 98765] {
        chaos_round(Protocol::Raft, 0, seed, 3, 40);
    }
}

#[test]
fn chaos_nbraft_three_nodes() {
    for seed in [1u64, 7, 42, 1234, 98765] {
        chaos_round(Protocol::NbRaft, 64, seed, 3, 40);
    }
}

#[test]
fn chaos_nbraft_tiny_window() {
    // Window of 1 stresses the park/flush boundary.
    for seed in [3u64, 11, 2024] {
        chaos_round(Protocol::NbRaft, 1, seed, 3, 30);
    }
}

#[test]
fn chaos_nbraft_five_nodes() {
    for seed in [5u64, 55, 555] {
        chaos_round(Protocol::NbRaft, 32, seed, 5, 30);
    }
}

#[test]
fn chaos_craft_three_nodes() {
    for seed in [2u64, 20, 200] {
        chaos_round(Protocol::CRaft, 0, seed, 3, 25);
    }
}

#[test]
fn chaos_kraft_five_nodes() {
    for seed in [4u64, 44] {
        chaos_round(Protocol::KRaft, 0, seed, 5, 25);
    }
}

#[test]
fn chaos_with_crashes_preserves_committed_data() {
    // Commit some requests, crash the leader, let chaos elect a successor,
    // verify every previously committed request survives.
    for seed in [9u64, 99, 999] {
        let cfg = Protocol::NbRaft.config(64);
        let mut c = TestCluster::new(5, &cfg);
        let mut rng = Rand(seed);
        c.elect(0);
        for r in 1..=20u64 {
            c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
            c.pump();
        }
        let committed_at_crash = c.node(0).commit_index();
        assert_eq!(committed_at_crash, LogIndex(21));
        c.crash(0);

        // Random successor campaigns.
        let successor = 1 + (rng.below(4) as u32);
        c.elect(successor);
        for _ in 0..10 {
            c.tick(TimeDelta::from_millis(100));
            c.pump();
        }
        let survivor = c.node(successor);
        assert!(survivor.commit_index() >= committed_at_crash);
        let mut seen = Vec::new();
        for i in 1..=committed_at_crash.0 {
            if let Some(o) = survivor.log().get(LogIndex(i)).and_then(|e| e.origin) {
                seen.push(o.request.0);
            }
        }
        assert_eq!(seen, (1..=20).collect::<Vec<u64>>(), "seed {seed}");
    }
}

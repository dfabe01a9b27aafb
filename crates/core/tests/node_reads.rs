//! Linearizable reads via ReadIndex: leader reads, follower reads, and the
//! stale-leader cases that waiting for the commit of a no-op proposed after
//! the read exists to prevent.

mod common;

use common::{Rand, TestCluster};
use nbr_types::*;

#[test]
fn leader_read_confirms_via_heartbeat_quorum() {
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    for r in 1..=5u64 {
        c.client_request(0, 1, r, b"k=v");
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(6));

    // Register a read at the leader; it waits for the no-op it proposes to
    // commit, one replication round.
    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(0).handle_read(ClientId(9), RequestId(1), now, &mut out);
    c.absorb(NodeId(0), out);
    assert!(c.reads_ready.is_empty(), "not confirmed before the quorum round");
    c.pump(); // the no-op's appends + responses
    assert_eq!(
        c.reads_ready,
        vec![(NodeId(0), ClientId(9), RequestId(1), LogIndex(6))],
        "read confirmed at the commit index"
    );
}

#[test]
fn follower_read_serves_locally() {
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    for r in 1..=4u64 {
        c.client_request(0, 1, r, b"a=b");
        c.pump();
    }
    // Followers need the commit index propagated before they can serve it.
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    assert_eq!(c.node(1).commit_index(), LogIndex(5));

    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(1).handle_read(ClientId(7), RequestId(1), now, &mut out);
    c.absorb(NodeId(1), out);
    c.pump(); // probe -> leader -> confirmation -> response
    let served: Vec<_> = c.reads_ready.iter().filter(|(n, ..)| *n == NodeId(1)).collect();
    assert_eq!(served.len(), 1, "follower served the read locally: {:?}", c.reads_ready);
    assert!(served[0].3 >= LogIndex(5));
}

#[test]
fn read_waits_for_apply_to_catch_up() {
    // A follower that knows the commit index but has not applied that far
    // (apply lags reception) must defer the read.
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"x=1");
    c.pump();
    // Leader read with nothing pending resolves at the current index.
    let applied = c.node(0).applied_index();
    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(0).handle_read(ClientId(3), RequestId(1), now, &mut out);
    c.absorb(NodeId(0), out);
    c.pump();
    assert_eq!(c.reads_ready.len(), 1);
    // The leader had applied through commit, so the read index is what it
    // had applied when the read arrived.
    assert_eq!(c.reads_ready[0].3, applied);
}

#[test]
fn deposed_leader_cannot_confirm_reads() {
    // The linearizability guarantee: a partitioned ex-leader must not serve
    // a read, because the no-op it proposes for it can never commit.
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"k=old");
    c.pump();
    // Partition the leader; elect node 1; commit a newer value there.
    c.partitions = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    c.elect(1);
    c.client_request(1, 2, 1, b"k=new");
    c.pump();

    // The stale leader still thinks it leads; register a read.
    assert!(c.node(0).is_leader());
    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(0).handle_read(ClientId(9), RequestId(1), now, &mut out);
    c.absorb(NodeId(0), out);
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    assert!(
        c.reads_ready.iter().all(|(n, ..)| *n != NodeId(0)),
        "stale leader must never confirm a read: {:?}",
        c.reads_ready
    );
}

#[test]
fn node_without_leader_rejects_reads() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    // No election yet: nobody knows a leader.
    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(1).handle_read(ClientId(5), RequestId(1), now, &mut out);
    let rejected = out.iter().any(|o| {
        matches!(o, nbr_core::Output::Respond { resp: ClientResponse::NotLeader { .. }, .. })
    });
    assert!(rejected);
}

/// Deliver, in queue order, every pending message that `keep` selects,
/// until none is left.
fn deliver_only(c: &mut TestCluster, keep: impl Fn(&common::InFlight) -> bool) {
    while let Some(&pos) = c.find_pending(&keep).first() {
        c.deliver_at(pos);
    }
}

#[test]
fn a_held_reply_to_an_older_heartbeat_proves_no_leadership() {
    // A heartbeat reply sent before a read registered says nothing about
    // who leads once the read arrives.
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"k=old");
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
    // One heartbeat round; node 1's reply is held in the network.
    c.tick(TimeDelta::from_millis(100));
    let held_reply =
        |m: &common::InFlight| m.from == NodeId(1) && matches!(m.msg, Message::HeartbeatResp(_));
    deliver_only(&mut c, |m| !held_reply(m));
    let pos = c.find_pending(held_reply)[0];
    let held = c.pending.remove(pos).expect("held reply");
    c.pump();

    // Node 0 is cut off; node 1 wins and commits a newer value at index 4.
    c.partitions = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    c.elect(1);
    c.client_request(1, 2, 1, b"k=new");
    c.pump();
    assert_eq!(c.node(1).commit_index(), LogIndex(4));

    // The deposed leader registers a read, then the held reply lands.
    assert!(c.node(0).is_leader());
    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(0).handle_read(ClientId(9), RequestId(1), now, &mut out);
    c.absorb(NodeId(0), out);
    c.pending.push_back(held);
    c.pump();
    assert!(
        c.reads_ready.iter().all(|(n, ..)| *n != NodeId(0)),
        "a deposed leader served a read: {:?}",
        c.reads_ready
    );
}

#[test]
fn a_new_leader_reads_nothing_below_its_predecessors_commit() {
    // Node 0 commits index 2 and answers its client before any follower
    // hears of the commit; then it crashes.
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.tick(TimeDelta::from_millis(100));
    c.pump();
    assert_eq!(c.node(1).commit_index(), LogIndex(1));
    c.client_request(0, 1, 1, b"k=v");
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
    assert!(c
        .responses_for(1)
        .iter()
        .any(|r| matches!(r, ClientResponse::Strong { index: LogIndex(2), .. })));
    assert_eq!(c.node(1).commit_index(), LogIndex(1));
    c.crash(0);

    // Node 1 wins on vote traffic alone, then a read registers there.
    let now = c.now;
    let mut out = Vec::new();
    c.node_mut(1).campaign(now, &mut out);
    c.absorb(NodeId(1), out);
    deliver_only(&mut c, |m| {
        matches!(m.msg, Message::RequestVote(_) | Message::RequestVoteResp(_))
    });
    assert!(c.node(1).is_leader());
    let mut out = Vec::new();
    c.node_mut(1).handle_read(ClientId(9), RequestId(1), now, &mut out);
    c.absorb(NodeId(1), out);

    // Heartbeat traffic alone proves nothing about index 2.
    deliver_only(&mut c, |m| matches!(m.msg, Message::Heartbeat(_) | Message::HeartbeatResp(_)));
    assert!(c.reads_ready.is_empty(), "served before a commit: {:?}", c.reads_ready);

    // Once the no-op after the read commits, the read covers index 2.
    c.pump();
    assert_eq!(c.reads_ready, vec![(NodeId(1), ClientId(9), RequestId(1), LogIndex(3))]);
}

/// One random schedule of deliveries (in any order, so any message may be
/// held), drops, partitions, one crash, campaigns, ticks, writes and reads
/// on a 3-node group. Returns how many reads were served, or the first one
/// served at an index below the highest commit index any replica had
/// reached when it registered.
fn served_reads(seed: u64, steps: usize) -> std::result::Result<usize, String> {
    let cfg = Protocol::NbRaft.config(4);
    let mut c = TestCluster::new(3, &cfg);
    let mut rng = Rand(seed | 1);
    // Per read (its client id): the commit floor when it registered.
    let mut floors = std::collections::BTreeMap::new();
    let mut max_commit = LogIndex::ZERO;
    let mut served = 0;
    for step in 0..steps {
        let alive: Vec<u32> = (0..3).filter(|&i| c.nodes[i as usize].is_some()).collect();
        let node = alive[rng.below(alive.len())];
        match rng.below(40) {
            0..=23 if !c.pending.is_empty() => {
                let pos = rng.below(c.pending.len());
                c.deliver_at(pos);
            }
            24 | 25 if !c.pending.is_empty() => {
                let pos = rng.below(c.pending.len());
                c.pending.remove(pos);
            }
            26..=28 => c.tick(TimeDelta::from_millis(20 + rng.below(150) as u64)),
            29 => {
                let now = c.now;
                let mut out = Vec::new();
                c.node_mut(node).campaign(now, &mut out);
                c.absorb(NodeId(node), out);
            }
            30..=32 => c.client_request(node, 1, step as u64, b"k=v"),
            33..=35 => {
                floors.insert(step as u64, max_commit);
                let now = c.now;
                let mut out = Vec::new();
                c.node_mut(node).handle_read(ClientId(step as u64), RequestId(1), now, &mut out);
                c.absorb(NodeId(node), out);
            }
            36 => {
                let other = (node + 1 + rng.below(2) as u32) % 3;
                c.partitions = vec![(NodeId(node), NodeId(other))];
            }
            37 => c.partitions.clear(),
            38 if alive.len() == 3 && rng.below(4) == 0 => c.crash(node),
            _ => {}
        }
        for n in c.nodes.iter().flatten() {
            max_commit = max_commit.max(n.commit_index());
        }
        for &(n, client, _, read_index) in &c.reads_ready[served..] {
            let floor = floors[&client.0];
            if read_index < floor {
                return Err(format!(
                    "seed {seed}: node {n} served read {} at {read_index}, registered after commit {floor}",
                    client.0
                ));
            }
        }
        served = c.reads_ready.len();
    }
    Ok(served)
}

#[test]
fn every_read_covers_each_commit_made_before_it_registered() {
    let mut served = 0;
    for seed in 0..300 {
        served += served_reads(seed, 400).unwrap_or_else(|stale| panic!("{stale}"));
    }
    // About 1 400 of some 9 000 registered reads are served.
    assert!(served >= 700, "only {served} reads served: the schedules test nothing");
}

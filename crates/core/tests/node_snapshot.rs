//! Log compaction + InstallSnapshot: a follower that falls behind the
//! leader's compaction horizon is caught up with a state machine snapshot
//! instead of replayed entries.

mod common;

use bytes::Bytes;
use common::TestCluster;
use nbr_core::Node;
use nbr_storage::{LogStore, MemLog};
use nbr_types::*;

#[test]
fn leader_compacts_and_ships_snapshot_to_lagging_follower() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    // Partition node 2 away; commit 30 entries with the remaining majority.
    c.partitions = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
    for r in 1..=30u64 {
        c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(31));
    // Leader applies, then compacts with a (stand-in) state machine image.
    assert_eq!(c.node(0).applied_index(), LogIndex(31));
    c.node_mut(0).compact_with_snapshot(Bytes::from_static(b"machine image @31")).unwrap();
    assert_eq!(c.node(0).log().first_index(), LogIndex(32), "prefix dropped");

    // Heal. The follower is at index 1, far behind the compaction horizon:
    // heartbeat repair must ship the snapshot, then any suffix.
    c.partitions.clear();
    for _ in 0..10 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert!(
        c.snapshots_installed.iter().any(|&(n, idx)| n == NodeId(2) && idx == LogIndex(31)),
        "follower installed the snapshot: {:?}",
        c.snapshots_installed
    );
    assert_eq!(c.node(2).last_index(), LogIndex(31));
    assert_eq!(c.node(2).commit_index(), LogIndex(31));
    assert_eq!(c.node(2).applied_index(), LogIndex(31));

    // The cluster keeps working; the restored follower accepts new entries.
    c.client_request(0, 1, 31, b"after=snapshot");
    c.pump();
    c.tick(TimeDelta::from_millis(100));
    c.pump();
    assert_eq!(c.node(2).last_index(), LogIndex(32));
}

#[test]
fn snapshot_then_suffix_catch_up() {
    // Compaction happens mid-way: the follower needs the snapshot AND the
    // uncompacted suffix.
    let cfg = Protocol::NbRaft.config(64);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.partitions = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
    for r in 1..=20u64 {
        c.client_request(0, 1, r, b"x=1");
        c.pump();
    }
    // Compact through 10 only (applied is 21; compact_with_snapshot uses the
    // applied index, so commit more after compacting to create a suffix).
    c.node_mut(0).compact_with_snapshot(Bytes::from_static(b"img@21")).unwrap();
    for r in 21..=25u64 {
        c.client_request(0, 1, r, b"y=2");
        c.pump();
    }
    assert_eq!(c.node(0).log().first_index(), LogIndex(22));
    assert_eq!(c.node(0).last_index(), LogIndex(26));

    c.partitions.clear();
    for _ in 0..12 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert_eq!(c.node(2).last_index(), LogIndex(26), "snapshot + suffix replayed");
    c.assert_committed_prefix_consistent();
}

#[test]
fn duplicate_snapshot_is_idempotent() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    for r in 1..=5u64 {
        c.client_request(0, 1, r, b"k=v");
        c.pump();
    }
    c.node_mut(0).compact_with_snapshot(Bytes::from_static(b"img")).unwrap();
    // Manually deliver the same InstallSnapshot twice.
    let snap = Message::InstallSnapshot(InstallSnapshotMsg {
        term: c.node(0).term(),
        leader: NodeId(0),
        last_index: LogIndex(6),
        last_term: c.node(0).term(),
        leader_commit: LogIndex(6),
        data: Bytes::from_static(b"img"),
    });
    for _ in 0..2 {
        let now = c.now;
        let mut out = Vec::new();
        c.node_mut(1).handle_message(NodeId(0), snap.clone(), now, &mut out);
        c.absorb(NodeId(1), out);
    }
    c.pump();
    // Installed at most once with effect; log is consistent either way.
    assert_eq!(c.node(1).last_index(), LogIndex(6));
    assert_eq!(c.node(1).applied_index(), LogIndex(6));
}

#[test]
fn compaction_requires_applied_prefix() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(1, &cfg);
    c.elect(0);
    // Nothing applied yet beyond the noop; compact is a no-op at ZERO.
    let before = c.node(0).log().first_index();
    // Single-node commits instantly, so applied == 1 (the noop).
    c.node_mut(0).compact_with_snapshot(Bytes::new()).unwrap();
    assert!(c.node(0).log().first_index() >= before);
    // After more entries, compaction moves the horizon to applied.
    for r in 1..=5u64 {
        c.client_request(0, 1, r, b"a=b");
        c.pump();
    }
    c.node_mut(0).compact_with_snapshot(Bytes::new()).unwrap();
    assert_eq!(c.node(0).log().first_index(), LogIndex(7));
    assert_eq!(c.node(0).last_index(), LogIndex(6), "boundary retained");
}

/// Leader 0 commits 30 entries with node 2 partitioned away, then compacts
/// through its applied index 31 into `image`.
fn compacted_with_node_2_behind(image: &'static [u8]) -> (TestCluster, ProtocolConfig) {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.partitions = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
    for r in 1..=30u64 {
        c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
        c.pump();
    }
    c.node_mut(0).compact_with_snapshot(Bytes::from_static(image)).unwrap();
    assert_eq!(c.node(0).log().first_index(), LogIndex(32));
    (c, cfg)
}

fn membership() -> Vec<NodeId> {
    (0..3).map(NodeId).collect()
}

#[test]
fn a_node_rebuilt_from_a_compacted_log_starts_applied_and_ships_its_snapshot() {
    let (mut c, cfg) = compacted_with_node_2_behind(b"image @31");
    let term = c.node(0).term();
    // A restart: the log (entries, hard state, snapshot) is all that survives.
    let log = c.node(0).log().clone();
    c.crash(0);
    c.nodes[0] = Some(Node::new(NodeId(0), membership(), cfg, log, 7));
    assert_eq!(c.node(0).term(), term, "hard state restored from the log");
    assert_eq!(c.node(0).commit_index(), LogIndex(31), "compacted prefix is committed");
    assert_eq!(c.node(0).applied_index(), LogIndex(31), "and applied: the machine is the image");

    // Re-elected, it catches node 2 up from behind its horizon with the
    // image its log kept.
    c.elect(0);
    c.partitions.clear();
    for _ in 0..10 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert!(
        c.snapshots_installed.contains(&(NodeId(2), LogIndex(31))),
        "node 2 installed the snapshot: {:?}",
        c.snapshots_installed
    );
    assert_eq!(c.node(2).log().snapshot().map(|s| s.2), Some(Bytes::from_static(b"image @31")));
    assert_eq!(c.node(2).applied_index(), c.node(0).commit_index());
    c.assert_committed_prefix_consistent();
}

#[test]
fn a_follower_that_installed_a_snapshot_ships_it_once_elected() {
    let (mut c, cfg) = compacted_with_node_2_behind(b"image @31");
    c.partitions.clear();
    for _ in 0..10 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert!(c.snapshots_installed.contains(&(NodeId(2), LogIndex(31))));
    assert_eq!(c.node(2).log().first_index(), LogIndex(32));

    // Node 2 leads; node 0 comes back with an empty log, behind node 2's
    // horizon, so only node 2's installed snapshot can catch it up.
    c.crash(0);
    c.elect(2);
    c.nodes[0] = Some(Node::new(NodeId(0), membership(), cfg, MemLog::new(), 9));
    for _ in 0..10 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert!(
        c.snapshots_installed.contains(&(NodeId(0), LogIndex(31))),
        "node 0 installed node 2's snapshot: {:?}",
        c.snapshots_installed
    );
    assert_eq!(c.node(0).log().snapshot().map(|s| s.2), Some(Bytes::from_static(b"image @31")));
    assert_eq!(c.node(0).last_index(), c.node(2).last_index());
    c.assert_committed_prefix_consistent();
}

//! Tests for the comparator protocols: CRaft fragment replication and
//! recovery, ECRaft degraded coding, KRaft relay, VGRaft verification.

mod common;

use common::TestCluster;
use nbr_core::Node;
use nbr_storage::{LogStore, MemLog};
use nbr_types::*;

// ------------------------------------------------------------------ CRaft

#[test]
fn craft_followers_store_fragments() {
    let cfg = Protocol::CRaft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, &[7u8; 3000]);
    c.pump();
    // Leader log holds the full payload.
    let leader_entry = c.node(0).log().get(LogIndex(2)).unwrap();
    assert!(matches!(leader_entry.payload, Payload::Data(_)));
    assert_eq!(leader_entry.payload.size_bytes(), 3000);
    // Followers hold fragments of ~payload/k (k = 2 for n = 3).
    for f in [1u32, 2] {
        let e = c.node(f).log().get(LogIndex(2)).unwrap();
        match &e.payload {
            Payload::Fragment(frag) => {
                assert_eq!(frag.k, 2);
                assert_eq!(frag.n, 3);
                assert_eq!(frag.orig_len, 3000);
                assert_eq!(frag.data.len(), 1500, "bandwidth halved per follower");
            }
            other => panic!("expected fragment on follower {f}, got {other:?}"),
        }
    }
}

#[test]
fn craft_commit_needs_all_acceptors() {
    // n = 3 → k = 2, F = 1 → threshold k + F = 3: with one follower silent,
    // fragmented entries cannot commit.
    let cfg = Protocol::CRaft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    c.partitions = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
    c.client_request(0, 1, 1, &[1u8; 1000]);
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(1), "fragmented entry needs all 3 acks (k + F)");
    // Heal: the heartbeat repair path re-sends and the entry commits.
    c.partitions.clear();
    for _ in 0..8 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
}

#[test]
fn craft_new_leader_reconstructs_committed_payload() {
    // Kill the CRaft leader; the new leader holds only its own shard for
    // committed entries and must pull fragments to apply them.
    let cfg = Protocol::CRaft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    let payload: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
    c.client_request(0, 1, 1, &payload);
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    assert_eq!(c.node(1).commit_index(), LogIndex(2), "committed everywhere");

    c.crash(0);
    c.elect(1);
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    // Let pull/push fragment exchanges settle.
    for _ in 0..5 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    // The new leader applied the data entry with the FULL payload.
    let applied = &c.applied[1];
    let data_applies: Vec<_> = applied.iter().filter(|e| e.origin.is_some()).collect();
    assert_eq!(data_applies.len(), 1, "client entry applied exactly once");
    match &data_applies[0].payload {
        Payload::Data(b) => assert_eq!(&b[..], &payload[..], "payload decoded from shards"),
        other => panic!("leader must apply the decoded data, got {other:?}"),
    }
}

#[test]
fn craft_new_leader_repairs_a_restarted_follower_while_applying_new_entries() {
    // Five replicas: the leader commits three fragmented entries, then it
    // and node 4 crash. Node 1 takes over, decodes the old entries from
    // three shards and keeps applying new ones. Node 0 comes back with an
    // empty log; repairing it through the old entries needs their decoded
    // payloads, which the leader must still hold after applying them.
    let cfg = Protocol::CRaft.config(0);
    let mut c = TestCluster::new(5, &cfg);
    c.elect(0);
    for r in 1..=3u64 {
        c.client_request(0, 1, r, &[r as u8; 1200]);
    }
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    assert_eq!(c.node(1).commit_index(), LogIndex(4), "committed everywhere");
    assert!(matches!(c.node(1).log().get(LogIndex(2)).unwrap().payload, Payload::Fragment(_)));

    c.crash(0);
    c.crash(4);
    c.elect(1);
    let mut request = 0u64;
    let mut load_round = |c: &mut TestCluster| {
        request += 1;
        c.client_request(1, 2, request, &[0xA5; 800]);
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    };
    for _ in 0..8 {
        load_round(&mut c);
    }
    let old_applied = |c: &TestCluster| {
        c.applied[1].iter().filter(|e| e.origin.map(|o| o.client) == Some(ClientId(1))).count()
    };
    assert_eq!(old_applied(&c), 3, "new leader applied the old entries");
    let committed = c.node(1).commit_index();
    assert!(committed > LogIndex(5), "new entries commit with two replicas dead");

    let membership: Vec<NodeId> = (0..5).map(NodeId).collect();
    c.nodes[0] = Some(Node::new(NodeId(0), membership, cfg, MemLog::new(), 7));
    for _ in 0..20 {
        load_round(&mut c);
    }
    assert!(c.node(1).commit_index() > committed, "the leader kept applying");
    for i in 2..=4u64 {
        assert_eq!(c.node(0).log().term_of(LogIndex(i)), Some(Term(1)), "old entry {i} repaired");
    }
    assert_eq!(c.node(0).last_index(), c.node(1).last_index(), "restarted follower caught up");
}

#[test]
fn craft_two_replicas_falls_back_to_full() {
    // Paper: "CRaft does not work with only one follower, as entries cannot
    // be fragmented".
    let cfg = Protocol::CRaft.config(0);
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, &[9u8; 1000]);
    c.pump();
    let e = c.node(1).log().get(LogIndex(2)).unwrap();
    assert!(matches!(e.payload, Payload::Data(_)), "full copy with n = 2");
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
}

// ------------------------------------------------------------------ ECRaft

#[test]
fn ecraft_keeps_coding_when_replica_fails() {
    // 5 replicas, one dead. CRaft falls back to full copies; ECRaft re-codes
    // over the 4 living members.
    let dead = 4u32;
    let run = |proto: Protocol| -> (usize, LogIndex, TestCluster) {
        let cfg = proto.config(0);
        let mut c = TestCluster::new(5, &cfg);
        c.elect(0);
        c.crash(dead);
        // Let the leader notice the death (DEAD_ROUNDS heartbeats).
        for _ in 0..8 {
            c.tick(TimeDelta::from_millis(100));
            c.pump();
        }
        c.client_request(0, 1, 1, &[3u8; 3000]);
        c.pump();
        for _ in 0..4 {
            c.tick(TimeDelta::from_millis(100));
            c.pump();
        }
        let follower_bytes = c.node(1).log().get(LogIndex(2)).unwrap().payload.size_bytes();
        let commit = c.node(0).commit_index();
        (follower_bytes, commit, c)
    };
    let (craft_bytes, craft_commit, _) = run(Protocol::CRaft);
    let (ecraft_bytes, ecraft_commit, _) = run(Protocol::EcRaft);
    assert_eq!(craft_commit, LogIndex(2), "CRaft commits via full-copy fallback");
    assert_eq!(ecraft_commit, LogIndex(2), "ECRaft commits via degraded coding");
    assert_eq!(craft_bytes, 3000, "CRaft fallback sends full copies");
    assert!(
        ecraft_bytes < craft_bytes,
        "ECRaft still sends shards: {ecraft_bytes} vs {craft_bytes}"
    );
}

// ------------------------------------------------------------------ KRaft

#[test]
fn kraft_leader_sends_to_bucket_only() {
    let cfg = Protocol::KRaft.config(0); // bucket of 2
    let mut c = TestCluster::new(5, &cfg);
    c.elect(0);
    c.pending.clear();
    c.client_request(0, 1, 1, b"relay me");
    // Direct sends from the leader: only bucket members (2), not 4 peers.
    let direct: Vec<NodeId> = c
        .pending
        .iter()
        .filter(|m| m.from == NodeId(0) && matches!(m.msg, Message::AppendEntry(_)))
        .map(|m| m.to)
        .collect();
    assert_eq!(direct.len(), 2, "leader sends to the K-bucket only: {direct:?}");
    // After relay, everyone has the entry and it commits.
    c.pump();
    for f in 1..5u32 {
        assert_eq!(c.node(f).last_index(), LogIndex(2), "follower {f} got the entry");
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
}

#[test]
fn kraft_two_replicas_behaves_like_raft() {
    // Paper Section V-I: with two replicas KRaft has one follower and no
    // relaying, matching original Raft.
    let cfg = Protocol::KRaft.config(0);
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"x");
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
    assert_eq!(c.node(1).last_index(), LogIndex(2));
}

// ------------------------------------------------------------------ VGRaft

#[test]
fn vgraft_attaches_and_verifies_signatures() {
    let cfg = Protocol::VgRaft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.pending.clear();
    c.client_request(0, 1, 1, b"signed payload");
    // Every AppendEntry carries verification material.
    for m in &c.pending {
        if let Message::AppendEntry(a) = &m.msg {
            let v = a.verification.as_ref().expect("VGRaft signs entries");
            assert!(!v.group.is_empty());
        }
    }
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
    // At least one follower actually ran a verification.
    let verifications: u64 = (1..3u32).map(|f| c.node(f).stats.verifications).sum();
    assert!(verifications > 0, "verification group checked the entry");
}

#[test]
fn vgraft_rejects_tampered_entries() {
    let cfg = Protocol::VgRaft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.pending.clear();
    c.client_request(0, 1, 1, b"original");
    // Tamper with the payload of every in-flight append without re-signing.
    for m in c.pending.iter_mut() {
        if let Message::AppendEntry(a) = &mut m.msg {
            if a.entries[0].origin.is_some() {
                a.entries[0].payload = Payload::Data(bytes::Bytes::from_static(b"tampered!"));
            }
        }
    }
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    // Verifying followers dropped the tampered entry; it cannot commit until
    // the repair path re-sends an authentic copy. Check that no follower in
    // the verification group appended "tampered!".
    for f in 1..3u32 {
        if c.node(f).last_index() >= LogIndex(2) {
            if let Some(e) = c.node(f).log().get(LogIndex(2)) {
                if let Payload::Data(b) = &e.payload {
                    assert_ne!(&b[..], b"tampered!", "follower {f} accepted a forged entry");
                }
            }
        }
    }
}

/// A verified append whose leader is not a member names no key to check it
/// with: the follower drops it, whoever relayed it.
#[test]
fn vgraft_drops_an_append_from_a_non_member_leader() {
    let mut c = TestCluster::new(3, &Protocol::VgRaft.config(0));
    c.elect(0);
    c.client_request(0, 1, 1, b"signed payload");
    for m in c.pending.iter_mut() {
        if let Message::AppendEntry(a) = &mut m.msg {
            assert!(a.verification.is_some(), "VGRaft signs entries");
            a.leader = NodeId(99);
        }
    }
    c.pump();
    for f in 1..3u32 {
        assert_eq!(c.node(f).last_index(), LogIndex(1), "follower {f} took node 99's entry");
        assert_eq!(c.node(f).leader_hint(), Some(NodeId(0)));
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(1));
}

/// The verification of the first in-flight append of entry 2 after node
/// `leader` of a fresh VGRaft cluster is elected and proposes `payload`.
fn vgraft_verification(leader: u32, payload: &[u8]) -> Verification {
    let mut c = TestCluster::new(3, &Protocol::VgRaft.config(0));
    c.elect(leader);
    c.client_request(leader, 1, 1, payload);
    c.pending
        .iter()
        .find_map(|m| match &m.msg {
            Message::AppendEntry(a) if a.entries[0].index == LogIndex(2) => a.verification.clone(),
            _ => None,
        })
        .expect("VGRaft signs entries")
}

#[test]
fn vgraft_verifies_with_the_leaders_key_only() {
    // Over the same digest (index, terms and payload match), member `signer`
    // signs entry 2 as the leader of its own cluster. Re-sign every
    // in-flight append of node 0's entry 2 with that signature, then deliver.
    let run = |signer: u32| {
        let copied = vgraft_verification(signer, b"authentic");
        let mut c = TestCluster::new(3, &Protocol::VgRaft.config(0));
        c.elect(0);
        c.client_request(0, 1, 1, b"authentic");
        for m in c.pending.iter_mut() {
            if let Message::AppendEntry(a) = &mut m.msg {
                let v = a.verification.as_mut().expect("VGRaft signs entries");
                assert_eq!(v.digest, copied.digest, "same entry, same digest");
                v.signature = copied.signature;
            }
        }
        c.pump();
        c
    };
    // Another leader at position 0 signs the same bytes: it commits.
    assert_eq!(run(0).node(0).commit_index(), LogIndex(2));
    // A follower's key over the right digest is a forgery. Both followers
    // are in the verification group, so neither appends and nothing commits.
    let mut c = run(1);
    for f in 1..3u32 {
        assert_eq!(c.node(f).last_index(), LogIndex(1), "follower {f} took a follower's signature");
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(1));
    // Repair re-sends the leader-signed copy, and that one commits.
    for _ in 0..8 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
    for f in 1..3u32 {
        let e = c.node(f).log().get(LogIndex(2)).expect("repaired entry");
        assert!(matches!(&e.payload, Payload::Data(b) if &b[..] == b"authentic"), "follower {f}");
    }
}

// ------------------------------------------------------------------ NB+CRaft

#[test]
fn nbcraft_combines_window_and_fragments() {
    let cfg = Protocol::NbCRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    // Burst of requests with reversed delivery to follower 1.
    for r in 1..=6u64 {
        c.client_request(0, 1, r, &[r as u8; 1200]);
    }
    let idxs = c.find_pending(|m| m.to == NodeId(1) && matches!(m.msg, Message::AppendEntry(_)));
    let mut msgs = Vec::new();
    for &i in idxs.iter().rev() {
        msgs.push(c.pending.remove(i).unwrap());
    }
    for m in msgs {
        c.pending.push_back(m);
    }
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    let f1 = c.node(1);
    assert!(f1.stats.weak_accepts > 0, "window active");
    // Fragments stored on followers.
    let e = f1.log().get(LogIndex(3)).unwrap();
    assert!(e.payload.is_fragment(), "fragmented replication active");
    assert_eq!(c.node(0).commit_index(), LogIndex(7));
}

//! Protocol-level tests: elections, in-order replication, commit, client
//! responses — run for each protocol preset.

mod common;

use common::TestCluster;
use nbr_core::{Node, Role};
use nbr_storage::MemLog;
use nbr_types::*;

#[test]
fn single_node_self_elects_and_commits() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(1, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"hello");
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(2)); // noop + entry
    let resps = c.responses_for(1);
    assert!(matches!(resps[0], ClientResponse::Strong { .. }));
    assert_eq!(c.applied[0].len(), 2);
}

#[test]
fn three_node_election_is_stable() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    assert_eq!(c.node(0).role(), Role::Leader);
    assert_eq!(c.node(1).role(), Role::Follower);
    assert_eq!(c.node(2).role(), Role::Follower);
    assert_eq!(c.node(1).leader_hint(), Some(NodeId(0)));
    // The term-start no-op commits everywhere after a heartbeat round.
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    for id in 0..3 {
        assert_eq!(c.node(id).commit_index(), LogIndex(1), "noop committed on {id}");
    }
}

#[test]
fn follower_timeout_triggers_election() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    // No leader: advancing past the max election timeout elects someone.
    for _ in 0..40 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
        if c.nodes.iter().flatten().any(|n| n.is_leader()) {
            break;
        }
    }
    let leaders: Vec<u32> =
        c.nodes.iter().flatten().filter(|n| n.is_leader()).map(|n| n.id().0).collect();
    assert_eq!(leaders.len(), 1, "exactly one leader, got {leaders:?}");
}

fn replicate_100_under(proto: Protocol, window: usize) {
    let cfg = proto.config(window);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    for r in 1..=100u64 {
        c.client_request(0, 1, r, format!("k{r}=v{r}").as_bytes());
        c.pump();
    }
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    // 1 noop + 100 entries committed on the leader.
    assert_eq!(c.node(0).commit_index(), LogIndex(101), "{proto:?}");
    // Client saw a strong (or weak for NB variants) response per request.
    let resps = c.responses_for(1);
    assert!(resps.len() >= 100, "{proto:?}: {} responses", resps.len());
    c.assert_committed_prefix_consistent();
}

#[test]
fn all_protocols_replicate_in_order() {
    for proto in Protocol::ALL {
        replicate_100_under(proto, 16);
    }
}

#[test]
fn leader_commit_propagates_to_followers() {
    let cfg = Protocol::NbRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    for r in 1..=10u64 {
        c.client_request(0, 1, r, b"x=1");
        c.pump();
    }
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    for id in 0..3 {
        assert_eq!(c.node(id).commit_index(), LogIndex(11), "node {id}");
        assert_eq!(c.applied[id as usize].len(), 11, "node {id} applied everything");
    }
}

#[test]
fn non_leader_redirects_clients() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.client_request(1, 7, 1, b"data");
    c.pump();
    let resps = c.responses_for(7);
    assert!(
        matches!(resps[0], ClientResponse::NotLeader { hint: Some(NodeId(0)), .. }),
        "got {resps:?}"
    );
}

#[test]
fn crashed_follower_does_not_block_commit() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.crash(2);
    for r in 1..=5u64 {
        c.client_request(0, 1, r, b"v");
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(6), "majority of 2 suffices");
}

#[test]
fn minority_leader_cannot_commit() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.crash(1);
    c.crash(2);
    c.client_request(0, 1, 1, b"v");
    c.pump();
    assert_eq!(c.node(0).commit_index(), LogIndex(1), "only the noop from election");
}

#[test]
fn higher_term_message_dethrones_leader() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    // Partition the leader away, elect node 1 at a higher term.
    c.partitions = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    c.elect(1);
    assert_eq!(c.node(0).role(), Role::Leader, "old leader isolated, still believes");
    // Heal; new leader's heartbeat dethrones the stale one.
    c.partitions.clear();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    assert_eq!(c.node(0).role(), Role::Follower);
    assert!(c.node(0).term() >= c.node(1).term());
    assert_eq!(c.node(1).role(), Role::Leader);
}

/// A candidate of five that has asked for votes: grants from senders other
/// than the ones they name must not count toward its quorum.
fn five_node_candidate() -> (Node<MemLog>, Term) {
    let members: Vec<NodeId> = (0..5).map(NodeId).collect();
    let mut node = Node::new(NodeId(0), members, Protocol::Raft.config(0), MemLog::new(), 42);
    node.campaign(Time::ZERO, &mut Vec::new());
    assert_eq!(node.role(), Role::Candidate);
    let term = node.term();
    (node, term)
}

fn grant(term: Term, from: u32) -> Message {
    Message::RequestVoteResp(RequestVoteRespMsg { term, from: NodeId(from), granted: true })
}

#[test]
fn one_peer_cannot_forge_a_quorum() {
    let (mut node, term) = five_node_candidate();
    let mut out = Vec::new();
    // Node 1 grants, then forwards a grant that names node 2.
    node.handle_message(NodeId(1), grant(term, 1), Time::ZERO, &mut out);
    node.handle_message(NodeId(1), grant(term, 2), Time::ZERO, &mut out);
    assert_eq!(node.role(), Role::Candidate, "two votes from one peer made a leader");
    // Node 2's own grant is the third vote.
    node.handle_message(NodeId(2), grant(term, 2), Time::ZERO, &mut out);
    assert_eq!(node.role(), Role::Leader);
}

#[test]
fn a_message_from_a_non_member_is_dropped() {
    let (mut node, term) = five_node_candidate();
    let mut out = Vec::new();
    // A grant naming node 99, on node 1's channel and on its own.
    node.handle_message(NodeId(1), grant(term, 99), Time::ZERO, &mut out);
    node.handle_message(NodeId(99), grant(term, 99), Time::ZERO, &mut out);
    // A reply from a non-member naming none.
    let resp = ReadIndexRespMsg { term, read_index: LogIndex(0), probe: 1 };
    node.handle_message(NodeId(99), Message::ReadIndexResp(resp), Time::ZERO, &mut out);
    assert_eq!(node.role(), Role::Candidate);
    assert_eq!(node.stats.messages, 0, "no message was taken in");
    node.handle_message(NodeId(1), grant(term, 1), Time::ZERO, &mut out);
    node.handle_message(NodeId(2), grant(term, 2), Time::ZERO, &mut out);
    assert_eq!(node.role(), Role::Leader);
}

#[test]
fn log_diverged_follower_gets_repaired() {
    let cfg = Protocol::Raft.config(0);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    // Leader accepts entries that only reach node 1 (node 2 partitioned).
    c.partitions = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
    for r in 1..=5u64 {
        c.client_request(0, 1, r, b"a=1");
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(6));
    assert_eq!(c.node(2).last_index(), LogIndex(1), "partitioned at the noop");
    // Heal and let heartbeat-driven repair catch node 2 up.
    c.partitions.clear();
    for _ in 0..10 {
        c.tick(TimeDelta::from_millis(100));
        c.pump();
    }
    assert_eq!(c.node(2).last_index(), LogIndex(6));
    assert_eq!(c.node(2).commit_index(), LogIndex(6));
    c.assert_committed_prefix_consistent();
}

#[test]
fn a_stalled_follower_is_streamed_to_the_tail_on_its_accepts() {
    // Window 0: node 2 misses 500 entries while partitioned. VGRaft sends
    // each verified entry in a frame of its own, so the follower reports
    // its position once per entry of a repair batch.
    for protocol in [Protocol::Raft, Protocol::VgRaft] {
        let cfg = protocol.config(0);
        let mut c = TestCluster::new(3, &cfg);
        c.elect(0);
        c.partitions = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
        for r in 1..=500u64 {
            c.client_request(0, 1, r, b"a=1");
        }
        c.pump();
        let tail = c.node(0).last_index();
        assert_eq!(tail, LogIndex(501));
        c.partitions.clear();
        // Heartbeats until the stall detector opens a repair: from then on,
        // the follower's own Strong accepts pace it to the tail, no
        // heartbeat needed, and each missing entry is sent to it once.
        let mut sent = 0;
        for _ in 0..10 {
            c.tick(cfg.timeouts.heartbeat_interval);
            while let Some(m) = c.pending.front() {
                if let (NodeId(2), Message::AppendEntry(a)) = (m.to, &m.msg) {
                    sent += a.entries.len();
                }
                c.deliver_at(0);
                assert!(sent <= 100_000, "{protocol:?}: repair storm");
            }
            if c.node(2).last_index() > LogIndex(1) {
                break;
            }
        }
        assert_eq!(c.node(2).last_index(), tail, "{protocol:?}");
        assert_eq!(sent, 500, "{protocol:?}: entries sent to the follower");
        c.assert_committed_prefix_consistent();
    }
}

#[test]
fn dedup_across_leader_change() {
    // A committed-but-unconfirmed request retried at the new leader must not
    // apply twice: the state machine dedups by (client, request).
    let cfg = Protocol::NbRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"k=1");
    c.pump();
    // New leader takes over.
    c.tick(TimeDelta::from_millis(10));
    c.elect(1);
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    // Client retries the same request id at the new leader.
    c.client_request(1, 1, 1, b"k=1");
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    // Entry exists twice in the log; the *state machine* would dedup on
    // apply. Here we check both copies carry the same origin so dedup works.
    let dupes: Vec<_> =
        c.applied[1].iter().filter(|e| e.origin.map(|o| o.client) == Some(ClientId(1))).collect();
    assert!(!dupes.is_empty());
    for d in &dupes {
        assert_eq!(d.origin.unwrap().request, RequestId(1));
    }
}

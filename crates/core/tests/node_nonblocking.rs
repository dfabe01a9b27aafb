//! Tests targeting the non-blocking mechanism itself: out-of-order arrivals,
//! WEAK_ACCEPT early returns, the blocking behaviour of Raft (w = 0), and
//! the persistence trade-off of Section IV.

mod common;

use common::TestCluster;
use nbr_storage::LogStore;
use nbr_types::*;

/// Reverse the pending AppendEntry messages headed to one follower so they
/// arrive out of order.
fn reverse_appends_to(c: &mut TestCluster, to: u32) {
    let idxs = c.find_pending(|m| m.to == NodeId(to) && matches!(m.msg, Message::AppendEntry(_)));
    // Stable reversal: remove from the back, push to the back.
    let mut msgs = Vec::new();
    for &i in idxs.iter().rev() {
        msgs.push(c.pending.remove(i).unwrap());
    }
    for m in msgs {
        c.pending.push_back(m);
    }
}

/// Two-node cluster: propose `count` entries without letting the follower see
/// them, then deliver all appends in REVERSE order. Returns (weak responses
/// seen by the leader-side client accounting, cluster).
fn reversed_burst(proto: Protocol, window: usize, count: u64) -> TestCluster {
    let cfg = proto.config(window);
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    // Hold all messages: issue the burst first.
    for r in 1..=count {
        c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
    }
    reverse_appends_to(&mut c, 1);
    c.pump();
    c
}

#[test]
fn nbraft_weak_accepts_out_of_order_entries() {
    let c = reversed_burst(Protocol::NbRaft, 100, 10);
    // The follower cached out-of-order entries and reported WEAK_ACCEPTs.
    let follower = c.node(1);
    assert!(follower.stats.weak_accepts > 0, "window cached out-of-order entries");
    // Everything eventually flushed and committed.
    assert_eq!(c.node(0).commit_index(), LogIndex(11));
    assert_eq!(follower.last_index(), LogIndex(11));
    // Clients got weak responses before strong ones.
    let weak =
        c.responses_for(1).iter().filter(|r| matches!(r, ClientResponse::Weak { .. })).count();
    assert!(weak > 0, "NB-Raft returns WEAK_ACCEPT to clients");
}

#[test]
fn raft_blocks_out_of_order_entries() {
    let c = reversed_burst(Protocol::Raft, 0, 10);
    let follower = c.node(1);
    assert_eq!(follower.stats.weak_accepts, 0, "Raft never weak-accepts");
    assert!(follower.stats.parked > 0, "out-of-order entries blocked (waited)");
    // Still correct: everything committed once the gap filled.
    assert_eq!(c.node(0).commit_index(), LogIndex(11));
    let weak =
        c.responses_for(1).iter().filter(|r| matches!(r, ClientResponse::Weak { .. })).count();
    assert_eq!(weak, 0);
}

#[test]
fn window_zero_and_window_n_commit_identically() {
    // Paper contribution (3): Raft is NB-Raft with w = 0 — same committed
    // log under identical deliveries.
    let a = reversed_burst(Protocol::Raft, 0, 20);
    let b = reversed_burst(Protocol::NbRaft, 100, 20);
    assert_eq!(a.node(0).commit_index(), b.node(0).commit_index());
    for i in 1..=a.node(0).commit_index().0 {
        let idx = LogIndex(i);
        assert_eq!(
            a.node(0).log().term_of(idx),
            b.node(0).log().term_of(idx),
            "same committed terms at {idx}"
        );
        let ea = a.node(0).log().get(idx).unwrap();
        let eb = b.node(0).log().get(idx).unwrap();
        assert_eq!(ea.origin, eb.origin, "same origins at {idx}");
    }
}

#[test]
fn weak_accept_needs_reception_quorum() {
    // 3 nodes; appends to follower 2 dropped. A single out-of-order arrival
    // at follower 1 plus the leader forms the majority of Figure 10.
    let cfg = Protocol::NbRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.partitions = vec![(NodeId(0), NodeId(2))];
    c.client_request(0, 1, 1, b"a=1"); // index 2 (after noop)
    c.client_request(0, 1, 2, b"b=2"); // index 3
                                       // Deliver ONLY the second entry (index 3) to follower 1 → cached, weak.
    let appends = c.find_pending(|m| {
        if let Message::AppendEntry(a) = &m.msg {
            m.to == NodeId(1) && a.entries.iter().any(|e| e.index == LogIndex(3))
        } else {
            false
        }
    });
    assert_eq!(appends.len(), 1);
    c.deliver_at(appends[0]);
    // Follower 1 weak-accepted index 3; leader should have replied WEAK to
    // the client for request 2 (leader strong + f1 weak = 2 of 3).
    c.pump();
    let weaks: Vec<_> = c
        .responses_for(1)
        .into_iter()
        .filter(|r| matches!(r, ClientResponse::Weak { .. }))
        .collect();
    assert!(
        weaks.iter().any(|r| matches!(r, ClientResponse::Weak { request: RequestId(2), .. })),
        "request 2 weak-accepted early, got {weaks:?}"
    );
}

#[test]
fn beyond_window_entries_park_until_flush() {
    // Window of 2: a burst of 6 reversed appends must still fully commit,
    // with some entries parked beyond the window.
    let c = reversed_burst(Protocol::NbRaft, 2, 6);
    let f = c.node(1);
    assert!(f.stats.parked > 0, "small window forces parking");
    assert_eq!(f.last_index(), LogIndex(7), "all appended in the end");
    assert_eq!(c.node(0).commit_index(), LogIndex(7));
}

#[test]
fn park_wait_accounts_blocking_time() {
    // t_wait(F) instrumentation: reversed arrivals must record waiting.
    let c = reversed_burst(Protocol::Raft, 0, 8);
    let f = c.node(1);
    assert!(f.stats.park_waits > 0);
    assert_eq!(f.waiting_since().count(), 0, "every wait ended");
}

#[test]
fn waits_still_open_are_listed_until_the_gap_fills() {
    // What a run ending now must count as t_wait(F) so far: the entries
    // cached in the window and those parked beyond it.
    let cfg = Protocol::NbRaft.config(2);
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    c.pump();
    for r in 1..=5u64 {
        c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
    }
    let first = c.find_pending(|m| m.to == NodeId(1) && matches!(m.msg, Message::AppendEntry(_)));
    c.pending.remove(first[0]);
    c.pump();
    let f = c.node(1);
    assert!(f.stats.parked > 0, "a window of 2 parks some of the four");
    assert_eq!(f.waiting_since().count(), 4);
}

#[test]
fn weakly_accepted_entries_lost_on_leader_failure() {
    // Section IV, Figure 13(b): entries weakly accepted but never appended
    // are lost when the leader dies and a new leader is elected.
    let cfg = Protocol::NbRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();

    // Three requests; deliver only the LAST one to each follower so it is
    // cached (weak) but not appendable.
    for r in 1..=3u64 {
        c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
    }
    for to in [1u32, 2] {
        let last_append = c.find_pending(|m| {
            if let Message::AppendEntry(a) = &m.msg {
                m.to == NodeId(to) && a.entries.iter().any(|e| e.index == LogIndex(4))
            } else {
                false
            }
        });
        c.deliver_at(last_append[0]);
    }
    // Drop everything else in flight and kill the leader.
    c.pending.clear();
    c.crash(0);

    // The weak entries sit in follower windows; a new election discards them.
    c.elect(1);
    c.tick(TimeDelta::from_millis(200));
    c.pump();
    let new_leader = c.node(1);
    // New leader's log: old noop + its own noop; requests 1-3 are gone.
    let committed = new_leader.commit_index();
    for i in 1..=committed.0 {
        let e = new_leader.log().get(LogIndex(i)).unwrap();
        assert!(e.origin.is_none(), "client entries were lost, found {:?}", e.origin);
    }
}

#[test]
fn committed_entries_survive_leader_failure() {
    // The flip side: entries committed (strong quorum) are never lost.
    let cfg = Protocol::NbRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    for r in 1..=5u64 {
        c.client_request(0, 1, r, format!("k{r}=v").as_bytes());
        c.pump();
    }
    assert_eq!(c.node(0).commit_index(), LogIndex(6));
    c.crash(0);
    c.elect(1);
    c.tick(TimeDelta::from_millis(200));
    c.pump();
    let survivor = c.node(1);
    let origins: Vec<u64> = (1..=survivor.last_index().0)
        .filter_map(|i| survivor.log().get(LogIndex(i)).unwrap().origin)
        .map(|o| o.request.0)
        .collect();
    assert_eq!(origins, vec![1, 2, 3, 4, 5], "all committed requests survive");
}

#[test]
fn window_discards_old_leader_entries_on_new_term() {
    // Figure 7 at protocol level: a follower caching entries from term 1
    // receives a replacement from a term-2 leader; stale cached entries die.
    let cfg = Protocol::NbRaft.config(100);
    let mut c = TestCluster::new(3, &cfg);
    c.elect(0);
    c.pump();
    // Requests cached out-of-order at follower 2 only (drop in-order ones).
    for r in 1..=3u64 {
        c.client_request(0, 1, r, b"old");
    }
    for idx_val in [3u64, 4] {
        let pos = c.find_pending(|m| {
            if let Message::AppendEntry(a) = &m.msg {
                m.to == NodeId(2) && a.entries.iter().any(|e| e.index == LogIndex(idx_val))
            } else {
                false
            }
        });
        c.deliver_at(pos[0]);
    }
    assert!(c.node(2).blocked_entries() > 0);
    c.pending.clear();
    c.crash(0);
    // Node 1 becomes leader of term 2 and replicates fresh entries.
    c.elect(1);
    c.client_request(1, 9, 1, b"new");
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    c.tick(TimeDelta::from_millis(150));
    c.pump();
    // Follower 2 converged on the new leader's log.
    assert_eq!(c.node(2).last_index(), c.node(1).last_index());
    c.assert_committed_prefix_consistent();
}

#[test]
fn duplicate_appends_are_idempotent() {
    let cfg = Protocol::NbRaft.config(50);
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"k=v");
    // Duplicate every pending append.
    let dups: Vec<_> =
        c.pending.iter().filter(|m| matches!(m.msg, Message::AppendEntry(_))).cloned().collect();
    for d in dups {
        c.pending.push_back(d);
    }
    c.pump();
    assert_eq!(c.node(1).last_index(), LogIndex(2));
    assert_eq!(c.node(0).commit_index(), LogIndex(2));
    // Log holds exactly one copy.
    let e = c.node(1).log().get(LogIndex(2)).unwrap();
    assert_eq!(e.origin.unwrap().request, RequestId(1));
}

/// A window-16 NB-Raft leader of three with 200 client entries in flight
/// (entry 1 is its election noop); none of what it sent is delivered.
fn leader_with_200_in_flight() -> TestCluster {
    let mut c = TestCluster::new(3, &Protocol::NbRaft.config(16));
    c.elect(0);
    for r in 1..=200u64 {
        c.client_request(0, 1, r, b"k=v");
    }
    c.pending.clear();
    assert_eq!(c.node(0).last_index(), LogIndex(201));
    c
}

/// Node 1 tells the leader `msg`; the indices of the entries the leader
/// sends back to it.
fn resent_on(c: &mut TestCluster, msg: AcceptState) -> Vec<u64> {
    let term = c.node(0).term();
    let msg = Message::AppendResp(AppendRespMsg { term, from: NodeId(1), state: msg });
    let (mut out, now) = (Vec::new(), c.now);
    c.node_mut(0).handle_message(NodeId(1), msg, now, &mut out);
    out.iter()
        .filter_map(|o| match o {
            nbr_core::Output::Send { to: NodeId(1), msg: Message::AppendEntry(m) } => Some(m),
            _ => None,
        })
        .flat_map(|m| m.entries.iter().map(|e| e.index.0))
        .collect()
}

fn strong(c: &TestCluster, last_index: u64) -> AcceptState {
    AcceptState::Strong { last_index: LogIndex(last_index), last_term: c.node(0).term() }
}

#[test]
fn a_strong_accept_behind_live_traffic_resends_nothing() {
    // Ordinary pipelining: the follower trails the tail by 191 entries that
    // are all still in flight, which is lag, not loss.
    let mut c = leader_with_200_in_flight();
    let accept = strong(&c, 10);
    assert_eq!(resent_on(&mut c, accept), Vec::<u64>::new());
}

#[test]
fn a_mismatch_is_streamed_through_its_index_then_stops() {
    let mut c = leader_with_200_in_flight();
    let hint = AcceptState::Mismatch { index: LogIndex(150), resend_from: LogIndex(11) };
    assert_eq!(resent_on(&mut c, hint), (11..=74).collect::<Vec<_>>());
    // Each matched report ships the next batch, up to the hint's index.
    for (at, next) in [(74, 75..=138), (138, 139..=150)] {
        let accept = strong(&c, at);
        assert_eq!(resent_on(&mut c, accept), next.collect::<Vec<_>>(), "accept at {at}");
    }
    let accept = strong(&c, 150);
    assert_eq!(resent_on(&mut c, accept), Vec::<u64>::new(), "the range closed at its index");
}

/// A two-node NB-Raft group whose follower lost the frame carrying entry 2,
/// on links that keep send order (`in_order`) or may reorder frames.
fn follower_behind_a_lost_frame(in_order: bool) -> TestCluster {
    let cfg = ProtocolConfig { in_order, ..Protocol::NbRaft.config(256) };
    let mut c = TestCluster::new(2, &cfg);
    c.elect(0);
    c.client_request(0, 1, 1, b"k=v");
    c.pending.clear();
    c
}

/// The leader proposes one more entry at `at` and the follower receives it
/// at once: the `(index, resend_from)` of each gap hint it answers with.
fn hints_on_arrival(c: &mut TestCluster, at: Time) -> Vec<(u64, u64)> {
    c.now = at;
    let request = c.node(0).last_index().0;
    c.client_request(0, 1, request, b"k=v");
    let m = c.pending.pop_back().expect("the leader sent the entry");
    assert!(c.pending.is_empty() && matches!(m.msg, Message::AppendEntry(_)));
    let mut out = Vec::new();
    c.node_mut(1).handle_message(m.from, m.msg, at, &mut out);
    gap_hints(&out)
}

fn gap_hints(out: &[nbr_core::Output]) -> Vec<(u64, u64)> {
    out.iter()
        .filter_map(|o| match o {
            nbr_core::Output::Send {
                msg:
                    Message::AppendResp(AppendRespMsg {
                        state: AcceptState::Mismatch { index, resend_from },
                        ..
                    }),
                ..
            } => Some((index.0, resend_from.0)),
            _ => None,
        })
        .collect()
}

/// One arrival every twentieth of a heartbeat for two heartbeats, the first
/// at 0: the arrivals (by number) that sent a gap hint, with the hints.
fn hints_over_two_heartbeats(c: &mut TestCluster) -> Vec<(u64, Vec<(u64, u64)>)> {
    let step = c.node(1).config().timeouts.heartbeat_interval.as_nanos() / 20;
    (0..=40)
        .map(|k| (k, hints_on_arrival(c, Time(k * step))))
        .filter(|(_, hints)| !hints.is_empty())
        .collect()
}

#[test]
fn on_an_in_order_link_the_first_arrival_above_a_gap_hints_it() {
    let mut c = follower_behind_a_lost_frame(true);
    // Entry 3 arrives over the hole at 2: the hint goes out with its accept.
    assert_eq!(hints_on_arrival(&mut c, Time::ZERO), vec![(3, 2)]);
}

#[test]
fn on_an_in_order_link_an_open_gap_is_hinted_again_each_half_heartbeat() {
    let mut c = follower_behind_a_lost_frame(true);
    // Arrival k carries entry k + 3; a half heartbeat is ten arrivals.
    let want: Vec<_> = [0, 10, 20, 30, 40].map(|k| (k, vec![(k + 3, 2)])).into();
    assert_eq!(hints_over_two_heartbeats(&mut c), want);
    // Time alone re-sends nothing: only a cached arrival hints.
    let heartbeat = c.node(1).config().timeouts.heartbeat_interval.as_nanos();
    for k in 1..=10 {
        let mut out = Vec::new();
        let now = Time(2 * heartbeat + k * heartbeat / 10);
        c.node_mut(1).tick(now, &mut out);
        assert_eq!(gap_hints(&out), vec![], "tick at {now:?}");
    }
}

#[test]
fn on_a_reordering_link_a_gap_is_hinted_once_after_a_quarter_heartbeat() {
    let mut c = follower_behind_a_lost_frame(false);
    // A gap younger than a quarter heartbeat (five arrivals) may be reorder.
    assert_eq!(hints_over_two_heartbeats(&mut c), vec![(5, vec![(8, 2)])]);
}

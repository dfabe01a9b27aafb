//! End-to-end sharded tests over real loopback TCP: three `NodeServer`
//! processes-worth, each hosting one replica of *two* Raft groups, all
//! traffic multiplexed over one set of per-peer links (wire protocol v4).
//!
//! The headline property: groups fail independently even though they share
//! sockets — ops keep committing in one group while the other group's
//! leader is crashed.

use nbr_net::{await_leaders, Members, NetClient, NodeServer};
use nbr_obs::{group_node, node_group, EngineProbe, ProbeEvent, SharedProbe, TraceEvent};
use nbr_storage::KvStore;
use nbr_types::{ClientId, NodeId, TimeDelta};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLUSTER_ID: u64 = 11;
const GROUPS: u32 = 2;

/// Spawn an `n`-process sharded cluster: every process hosts one replica of
/// each of [`GROUPS`] groups over a single shared transport.
fn spawn_sharded(n: usize) -> (Vec<NodeServer<KvStore>>, Members) {
    let (servers, members, _) = spawn_with_groups(&vec![GROUPS; n], false);
    (servers, members)
}

/// Spawn one process per entry of `groups`, hosting that many groups. With
/// `traced`, each process records into a trace buffer its caller made,
/// returned in server order.
fn spawn_with_groups(
    groups: &[u32],
    traced: bool,
) -> (Vec<NodeServer<KvStore>>, Members, Vec<SharedProbe>) {
    let mut buffers = Vec::new();
    let (servers, members) = NodeServer::spawn_loopback(groups, |cfg| {
        cfg.cluster_id = CLUSTER_ID;
        if traced {
            let (probe, buffer) = EngineProbe::shared();
            cfg.cluster.probe = probe;
            buffers.push(buffer);
        }
        // Staggered per-node seeds (see nbr-net's loopback tests) keep
        // cold-start elections one round long; per-group decorrelation on
        // top is NodeServer's job.
        cfg.cluster.seed = 0x005a_4ded ^ (u64::from(cfg.node_id) << 8);
    })
    .expect("spawn node servers");
    (servers, members, buffers)
}

fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A client for `group`. Ids are globally unique across groups — response
/// routing over the shared links is by `ClientId` alone.
fn client_for(group: u32, t: u64, members: &[(u32, SocketAddr)]) -> NetClient {
    NetClient::new_in_group(
        CLUSTER_ID,
        GROUPS,
        group,
        ClientId(1_000 + u64::from(group) * 10_000 + t),
        members.to_vec(),
        TimeDelta::from_millis(300),
    )
}

#[test]
fn two_groups_commit_over_shared_links() {
    let (servers, members) = spawn_sharded(3);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");

    for g in 0..GROUPS {
        let mut client = client_for(g, 0, &members);
        for i in 0..10u32 {
            client
                .submit(bytes::Bytes::from(format!("g{g}k{i}=v")), Duration::from_secs(10))
                .expect("submit over shared links");
        }
        assert!(client.drain(Duration::from_secs(10)), "group {g} opList did not drain");
    }

    // Every process's replica of every group converges on its own group's
    // keys — and never on the other group's.
    let converged = poll_until(Duration::from_secs(10), || {
        servers.iter().all(|s| {
            (0..GROUPS).all(|g| {
                let m = s.group(g).machine(0);
                let m = m.lock();
                (0..10u32).all(|i| m.get(format!("g{g}k{i}").as_bytes()).is_some())
            })
        })
    });
    assert!(converged, "replicas did not converge on both groups' keys");
    for s in &servers {
        let m = s.group(0).machine(0);
        let m = m.lock();
        assert!(m.get(b"g1k0").is_none(), "group 0 replica leaked group 1 state");
    }

    // The mux accounted traffic per group, and the merged export namespaces
    // group 1's replica registry.
    let prom = servers[0].prometheus();
    assert!(prom.contains("net_frames_in_group_1"), "per-group frame counters absent:\n{prom}");
    assert!(prom.contains("node=\"g1/0\""), "group 1 registry label absent:\n{prom}");
}

#[test]
fn group_keeps_committing_while_other_groups_leader_is_down() {
    let (servers, members) = spawn_sharded(3);
    let g0_leader = await_leaders(&servers, Duration::from_secs(10)).expect("cold start")[0];

    // Crash group 0's leader *replica* (not the process): the shared links
    // stay up and keep carrying group 1's traffic — the failure domain is
    // the group, not the socket.
    servers[g0_leader].group(0).crash(0);

    let mut c1 = client_for(1, 1, &members);
    for i in 0..10u32 {
        c1.submit(bytes::Bytes::from(format!("live{i}=1")), Duration::from_secs(10))
            .expect("group 1 commits while group 0's leader is down");
    }
    assert!(c1.drain(Duration::from_secs(10)), "group 1 opList did not drain");

    // Group 0 re-elects among the two surviving replicas and serves again.
    let reelected = poll_until(Duration::from_secs(15), || {
        servers.iter().enumerate().any(|(i, s)| {
            let st = s.group(0).status(0);
            i != g0_leader && st.alive && st.is_leader
        })
    });
    assert!(reelected, "group 0 did not re-elect after leader crash");

    let mut c0 = client_for(0, 1, &members);
    c0.submit(bytes::Bytes::from_static(b"back=1"), Duration::from_secs(15))
        .expect("group 0 commits again after re-election");
    assert!(c0.drain(Duration::from_secs(15)), "group 0 opList did not drain");
}

/// Every committed op of every group assembles a *complete* span tree from
/// the merged, group-namespaced trace: the op's lifecycle is joined across
/// the three replicas of its own group only (both groups reuse the same log
/// indices), on clocks aligned off the processes' shared transports.
#[test]
fn traced_ops_assemble_complete_spans_in_every_group() {
    let (servers, members, buffers) = spawn_with_groups(&[GROUPS; 3], true);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");

    let n_ops = 15u32;
    for g in 0..GROUPS {
        let mut client = client_for(g, 2, &members);
        for i in 0..n_ops {
            client
                .submit(bytes::Bytes::from(format!("t{g}.{i}=v")), Duration::from_secs(10))
                .expect("submit traced op");
        }
        assert!(client.drain(Duration::from_secs(10)), "group {g} opList did not drain");
    }
    // Every replica must finish applying before the probes are drained, and
    // a beat longer than the transport's ping cadence guarantees clock
    // samples exist on every link.
    let applied_everywhere = poll_until(Duration::from_secs(10), || {
        servers.iter().all(|s| {
            (0..GROUPS).all(|g| {
                let st = s.group(g).status(0);
                st.applied == st.commit && st.commit >= u64::from(n_ops)
            })
        })
    });
    assert!(applied_everywhere, "replicas did not apply all ops");
    std::thread::sleep(Duration::from_millis(600));

    let events: Vec<TraceEvent> = buffers.iter().flat_map(SharedProbe::take).collect();
    let align = nbr_obs::ClockAlign::estimate(&events);
    let aligned = align.apply(&events);
    let spans = nbr_obs::collect(&aligned);
    assert_eq!(spans.len(), (GROUPS * n_ops) as usize, "one span per committed op");
    for s in &spans {
        let group = node_group(s.leader).0;
        let replicas: Vec<NodeId> =
            members.iter().map(|&(n, _)| group_node(group, NodeId(n))).collect();
        assert_eq!(s.nodes.len(), replicas.len(), "span mixes groups: {:?}", s.nodes.keys());
        assert!(
            s.complete(&replicas),
            "incomplete span for group {group} request {} at index {}",
            s.request.0,
            s.index.0
        );
    }
    let cp = nbr_obs::critical_path(&spans, &aligned, &align);
    assert_eq!((cp.members.len(), cp.complete), (3, cp.ops), "{}", cp.render());
}

#[test]
fn group_count_mismatch_is_refused_at_handshake() {
    let (servers, members) = spawn_sharded(3);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");

    // A client that believes the deployment is unsharded: its Hello carries
    // groups=1, the servers run groups=2 — the handshake refuses, so the
    // submit times out instead of committing into a mis-addressed group.
    let mut stale =
        NetClient::new(CLUSTER_ID, ClientId(77_000), members.clone(), TimeDelta::from_millis(100));
    let r = stale.submit(bytes::Bytes::from_static(b"x=1"), Duration::from_millis(1500));
    assert!(r.is_err(), "group-count-mismatched client must not commit");
}

/// A traced process records every group it hosts into the one buffer its
/// caller made: each caller handle drains both groups' events, group `g`'s
/// replica `i` as `group_node(g, i)`, and the transport's clock samples
/// under the plain replica ids.
#[test]
fn a_callers_trace_buffer_holds_every_group_of_its_process() {
    let (servers, members, buffers) = spawn_with_groups(&[GROUPS; 3], true);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");
    for g in 0..GROUPS {
        let mut client = client_for(g, 3, &members);
        client
            .submit(bytes::Bytes::from(format!("b{g}=v")), Duration::from_secs(10))
            .expect("submit traced op");
        assert!(client.drain(Duration::from_secs(10)), "group {g} opList did not drain");
    }
    // Long enough for every replica to commit and for a ping round.
    std::thread::sleep(Duration::from_millis(600));

    for (i, buffer) in buffers.iter().enumerate() {
        let events = buffer.take();
        for g in 0..GROUPS {
            let me = group_node(g, NodeId(i as u32));
            let committed = events
                .iter()
                .any(|e| e.node == me && matches!(e.event, ProbeEvent::Committed { .. }));
            assert!(committed, "process {i}: no commit of group {g}");
        }
        for e in &events {
            let (g, replica) = node_group(e.node);
            assert!(g < GROUPS && replica == NodeId(i as u32), "process {i} recorded {e:?}");
            if let ProbeEvent::ClockSample { peer, .. } = e.event {
                assert_eq!((g, node_group(peer).0), (0, 0), "{e:?}");
            }
        }
    }
}

/// The group count is derived (the number of inbox sets a transport is built
/// over), not configured, so nothing stops two members of one membership
/// being started with different counts — except the `Hello` handshake, which
/// must refuse the link: frames over it would be addressed into groups the
/// other side does not have.
#[test]
fn peer_group_count_mismatch_is_refused_at_handshake() {
    let (servers, _, _) = spawn_with_groups(&[1, 2], false);

    let rejects = |s: &NodeServer<KvStore>| -> u64 {
        let snap = s.cluster().transport().scrape().expect("transport scrapes");
        snap.counters["net_handshake_rejects"]
    };
    // Node 0 dials node 1 (lower id dials), node 1 refuses its Hello, and
    // node 0 keeps redialing: rejects accumulate on the accepting side.
    let refused = poll_until(Duration::from_secs(10), || rejects(&servers[1]) > 0);
    assert!(refused, "a 1-group and a 2-group member must not complete a handshake");

    // With no link there is no quorum: nobody is elected, nothing delivered,
    // for longer than two election timeouts.
    std::thread::sleep(Duration::from_millis(700));
    for (i, s) in servers.iter().enumerate() {
        for g in 0..s.groups() {
            let st = s.group(g).status(0);
            assert!(!st.is_leader, "node {i} leads group {g} without a quorum");
            let delivered = s.group(g).registry(0).snapshot().counters["messages"];
            assert_eq!(delivered, 0, "node {i} group {g} was delivered {delivered} messages");
        }
    }
}

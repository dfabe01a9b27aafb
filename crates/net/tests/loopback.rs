//! End-to-end tests over real loopback TCP: three single-replica
//! processes-worth of `NodeServer`s (one per `Cluster`, each with its own
//! `TcpTransport` and listener), a `NetClient` speaking the socket
//! protocol, leader kill, re-election and NB-Raft opList retry.
//!
//! Ports are deterministic without being hard-coded: every listener binds
//! port 0 first and the OS-assigned addresses are exchanged before any
//! transport starts, so parallel test runs never collide.

use nbr_net::{await_leaders, Members, NetClient, NodeServer};
use nbr_obs::{EngineProbe, TraceEvent};
use nbr_storage::KvStore;
use nbr_types::{ClientId, NodeId, TimeDelta};
use std::time::{Duration, Instant};

const CLUSTER_ID: u64 = 7;

/// Spawn an `n`-node cluster as `n` independent `NodeServer`s joined only
/// by TCP. Returns the servers and the full membership address list.
fn spawn_cluster(n: usize) -> (Vec<NodeServer<KvStore>>, Members) {
    spawn_cluster_inner(n, false)
}

/// With `traced`, a trace probe is wired into every replica. Each
/// `NodeServer` gets its *own* trace epoch (as real processes would), so
/// assembling spans across the replicas genuinely exercises Ping/Pong clock
/// alignment.
fn spawn_cluster_inner(n: usize, traced: bool) -> (Vec<NodeServer<KvStore>>, Members) {
    NodeServer::spawn_loopback(&vec![1; n], |cfg| {
        cfg.cluster_id = CLUSTER_ID;
        if traced {
            cfg.cluster.probe = EngineProbe::shared().0;
        }
        // Distinct per-node seeds: identical seeds give every node the same
        // randomized election timeout, so a cold three-way start can
        // split-vote for several rounds under CI load. Staggered seeds keep
        // the first election one round long.
        cfg.cluster.seed = 0x10c4_b4c4 ^ (u64::from(cfg.node_id) << 8);
    })
    .expect("spawn node servers")
}

/// Poll `cond` every few milliseconds until it returns true or `timeout`
/// expires. Returns whether the condition was met — callers assert with
/// their own message so failures name what never happened.
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

/// Wait (bounded) for some server still alive to report leadership.
fn wait_leader(servers: &[Option<NodeServer<KvStore>>], timeout: Duration) -> Option<usize> {
    let mut leader = None;
    poll_until(timeout, || {
        leader = servers.iter().enumerate().find_map(|(i, s)| {
            let st = s.as_ref()?.cluster().status(0);
            (st.alive && st.is_leader).then_some(i)
        });
        leader.is_some()
    });
    leader
}

#[test]
fn three_process_cluster_commits_over_tcp() {
    let (servers, members) = spawn_cluster(3);
    let leader = await_leaders(&servers, Duration::from_secs(10)).expect("cold start")[0];

    let mut client =
        NetClient::new(CLUSTER_ID, ClientId(900), members.clone(), TimeDelta::from_millis(300));
    for i in 0..20u32 {
        let payload = bytes::Bytes::from(format!("k{i}=v{i}"));
        client.submit(payload, Duration::from_secs(10)).expect("submit over tcp");
    }
    assert!(client.drain(Duration::from_secs(10)), "opList did not drain");

    // Every replica converges on all 20 keys, replicated over real sockets.
    let converged = poll_until(Duration::from_secs(10), || {
        servers.iter().all(|s| {
            let m = s.cluster().machine(0);
            let m = m.lock();
            (0..20u32)
                .all(|i| m.get(format!("k{i}").as_bytes()) == Some(format!("v{i}").as_bytes()))
        })
    });
    assert!(converged, "replicas did not converge on all 20 keys");

    // Transport metrics made it into the Prometheus export.
    let prom = servers[leader].prometheus();
    assert!(prom.contains("net_frames_out"), "transport counters absent:\n{prom}");
    assert!(prom.contains("net_tcp_connects"), "socket counters absent:\n{prom}");
}

#[test]
fn leader_kill_reelects_and_retries_oplist() {
    let (servers, members) = spawn_cluster(3);
    let leader = await_leaders(&servers, Duration::from_secs(10)).expect("cold start")[0];
    let mut servers: Vec<Option<NodeServer<KvStore>>> = servers.into_iter().map(Some).collect();

    let mut client =
        NetClient::new(CLUSTER_ID, ClientId(901), members.clone(), TimeDelta::from_millis(300));
    // Build up weakly-accepted traffic, then kill the leader process while
    // the opList may still hold unconfirmed entries.
    for i in 0..10u32 {
        client
            .submit(bytes::Bytes::from(format!("a{i}=1")), Duration::from_secs(10))
            .expect("submit");
    }
    let in_flight = client.op_list_len();
    drop(servers[leader].take()); // kill: sockets close, peers see dead links

    let new_leader =
        wait_leader(&servers, Duration::from_secs(15)).expect("no re-election after kill");
    assert_ne!(new_leader, leader, "dead node cannot stay leader");

    // The client keeps working: listTerm bump triggers opList retry, new
    // submissions commit through the new leader.
    for i in 10..20u32 {
        client
            .submit(bytes::Bytes::from(format!("a{i}=1")), Duration::from_secs(15))
            .expect("submit after kill");
    }
    assert!(client.drain(Duration::from_secs(15)), "opList did not drain after re-election");

    // All 20 keys present on both survivors (including any the dead leader
    // had only weakly accepted — the retry path must have re-sent them).
    let converged = poll_until(Duration::from_secs(15), || {
        servers.iter().flatten().all(|s| {
            let m = s.cluster().machine(0);
            let m = m.lock();
            (0..20u32).all(|i| m.get(format!("a{i}").as_bytes()).is_some())
        })
    });
    assert!(
        converged,
        "survivors missing keys after re-election (op list had {in_flight} in flight)"
    );
}

/// Tentpole end-to-end check: with probes on every replica, each committed
/// op's span tree assembles *complete* — submit and propose at the leader,
/// received/appended/committed/applied on all three replicas — after
/// aligning the per-server trace clocks off the transport's Ping/Pong
/// samples.
#[test]
fn traced_ops_assemble_complete_spans() {
    let (servers, members) = spawn_cluster_inner(3, true);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");

    let mut client =
        NetClient::new(CLUSTER_ID, ClientId(903), members.clone(), TimeDelta::from_millis(300));
    let n_ops = 25u32;
    for i in 0..n_ops {
        client
            .submit(bytes::Bytes::from(format!("t{i}=v")), Duration::from_secs(10))
            .expect("submit traced op");
    }
    assert!(client.drain(Duration::from_secs(10)), "opList did not drain");

    // Every replica must finish applying before we snapshot the probes, and
    // a beat longer than the transport's ping cadence guarantees clock
    // samples exist on every link.
    let applied_everywhere = poll_until(Duration::from_secs(10), || {
        servers.iter().all(|s| {
            let st = s.cluster().status(0);
            st.applied == st.commit && st.commit >= u64::from(n_ops)
        })
    });
    assert!(applied_everywhere, "replicas did not apply all ops");
    std::thread::sleep(Duration::from_millis(600));

    let events: Vec<TraceEvent> = servers.iter().flat_map(|s| s.traces().take()).collect();
    let align = nbr_obs::ClockAlign::estimate(&events);
    let aligned = align.apply(&events);
    let spans = nbr_obs::collect(&aligned);

    let member_ids: Vec<NodeId> = members.iter().map(|&(n, _)| NodeId(n)).collect();
    let mine: Vec<_> = spans.iter().filter(|s| s.client == ClientId(903)).collect();
    assert!(mine.len() >= n_ops as usize, "expected >={n_ops} spans, got {}", mine.len());
    for s in &mine {
        assert!(
            s.complete(&member_ids),
            "incomplete span for request {} at index {}",
            s.request.0,
            s.index.0
        );
    }
}

#[test]
fn handshake_rejects_wrong_cluster_id() {
    let (servers, members) = spawn_cluster(3);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");

    // A client from the wrong cluster: its connection is dropped at the
    // handshake, so the submit times out rather than committing.
    let mut imposter =
        NetClient::new(CLUSTER_ID + 1, ClientId(950), members.clone(), TimeDelta::from_millis(100));
    let r = imposter.submit(bytes::Bytes::from_static(b"x=1"), Duration::from_millis(1500));
    assert!(r.is_err(), "wrong-cluster client must not commit");

    // And the rejection is visible in transport metrics on some node.
    let saw_reject = servers.iter().any(|s| {
        s.prometheus()
            .lines()
            .any(|l| l.starts_with("nbr_net_handshake_rejects") && !l.trim_end().ends_with(" 0"))
    });
    let any = servers[0].prometheus();
    assert!(
        saw_reject || any.contains("net_handshake_rejects"),
        "handshake reject metric missing:\n{any}"
    );
}

/// One group *is* the unsharded host: a `spawn_on` server exposes exactly the
/// scrape surface the single-replica server always had. The repository
/// benchmark reads its `steady` flag and `net.*` ratios off
/// `cluster().transport().scrape()`, so the socket counters must be there,
/// under plain labels, with none of the multi-group series.
#[test]
fn one_group_host_scrapes_like_the_unsharded_server() {
    let (servers, members) = spawn_cluster(3);
    let leader = await_leaders(&servers, Duration::from_secs(10)).expect("cold start")[0];
    let mut client =
        NetClient::new(CLUSTER_ID, ClientId(904), members.clone(), TimeDelta::from_millis(300));
    client.submit(bytes::Bytes::from_static(b"k=v"), Duration::from_secs(10)).expect("submit");
    assert!(client.drain(Duration::from_secs(10)), "opList did not drain");

    let server = &servers[leader];
    assert_eq!(server.groups(), 1);
    let snap = server.cluster().transport().scrape().expect("group 0 scrapes the transport");
    for name in ["net_dropped_queue_full", "net_frames_out", "net_bytes_out"] {
        assert!(snap.counters.contains_key(name), "{name} missing from the transport scrape");
    }
    assert!(snap.counters["net_frames_out"] > 0 && snap.counters["net_bytes_out"] > 0);

    let prom = server.prometheus();
    assert!(prom.contains(&format!("node=\"{leader}\"")), "replica label must stay plain:\n{prom}");
    assert!(prom.contains(&format!("node=\"net{leader}\"")), "transport label changed:\n{prom}");
    for absent in ["node=\"g", "net_frames_in_group_", "net_demux_"] {
        assert!(!prom.contains(absent), "one-group scrape carries `{absent}`:\n{prom}");
    }
    // Once, not once per Cluster::prometheus and once per host merge.
    let n = prom.lines().filter(|l| l.starts_with("nbr_net_frames_out{")).count();
    assert_eq!(n, 1, "transport counters must be exported exactly once:\n{prom}");
}

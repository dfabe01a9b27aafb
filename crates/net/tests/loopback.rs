//! End-to-end tests over real loopback TCP: three single-replica
//! processes-worth of `NodeServer`s (one per `Cluster`, each with its own
//! `TcpTransport` and listener), a `NetClient` speaking the socket
//! protocol, leader kill, re-election and NB-Raft opList retry.
//!
//! Ports are deterministic without being hard-coded: every listener binds
//! port 0 first and the OS-assigned addresses are exchanged before any
//! transport starts, so parallel test runs never collide.

use nbr_cluster::{Packet, Transport, TransportInboxes, NODE_INBOX_DEPTH};
use nbr_net::{await_leaders, Members, NetClient, NodeServer, TcpConfig, TcpTransport};
use nbr_obs::{EngineProbe, SharedProbe, TraceEvent};
use nbr_storage::KvStore;
use nbr_types::wire::{encode_frame, encode_frame_into};
use nbr_types::{
    ClientId, ClientRequest, HeartbeatMsg, HelloMsg, LinkFault, LogIndex, Message, NetFrame,
    NodeId, PeerKind, RequestId, RequestVoteMsg, Term, TimeDelta, NET_PROTOCOL_VERSION,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLUSTER_ID: u64 = 7;

/// Spawn an `n`-node cluster as `n` independent `NodeServer`s joined only
/// by TCP. Returns the servers and the full membership address list.
fn spawn_cluster(n: usize) -> (Vec<NodeServer<KvStore>>, Members) {
    let (servers, members, _) = spawn_cluster_inner(n, false);
    (servers, members)
}

/// With `traced`, every `NodeServer` records into a trace buffer of its own
/// (returned in server order) and gets its *own* trace epoch (as real
/// processes would), so assembling spans across the replicas genuinely
/// exercises Ping/Pong clock alignment.
fn spawn_cluster_inner(
    n: usize,
    traced: bool,
) -> (Vec<NodeServer<KvStore>>, Members, Vec<SharedProbe>) {
    let mut buffers = Vec::new();
    let (servers, members) = NodeServer::spawn_loopback(&vec![1; n], |cfg| {
        cfg.cluster_id = CLUSTER_ID;
        if traced {
            let (probe, buffer) = EngineProbe::shared();
            cfg.cluster.probe = probe;
            buffers.push(buffer);
        }
        // Distinct per-node seeds: identical seeds give every node the same
        // randomized election timeout, so a cold three-way start can
        // split-vote for several rounds under CI load. Staggered seeds keep
        // the first election one round long.
        cfg.cluster.seed = 0x10c4_b4c4 ^ (u64::from(cfg.node_id) << 8);
    })
    .expect("spawn node servers");
    (servers, members, buffers)
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
    let (servers, members, buffers) = spawn_cluster_inner(3, true);
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

    let events: Vec<TraceEvent> = buffers.iter().flat_map(SharedProbe::take).collect();
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

/// A replica's handshake identity is the sender of every frame on its
/// connection, so it must be a configured peer. A raw socket that says it is
/// node 99 is refused at the `Hello`, and the vote request it sends next (a
/// term far ahead, which would depose whoever read it) reaches no replica.
#[test]
fn handshake_rejects_a_node_that_is_not_a_peer() {
    let (servers, members) = spawn_cluster(3);
    await_leaders(&servers, Duration::from_secs(10)).expect("cold start");
    let rejects = || {
        let scrape = servers[0].prometheus();
        let line = scrape.lines().find(|l| l.starts_with("nbr_net_handshake_rejects{"));
        line.and_then(|l| l.rsplit(' ').next()?.parse::<u64>().ok()).unwrap_or(0)
    };
    let before = rejects();
    let ahead = servers[0].cluster().status(0).term + 100;

    let mut raw = TcpStream::connect(members[0].1).expect("connect to node 0");
    let mut bytes = Vec::new();
    let hello = NetFrame::Hello(HelloMsg {
        version: NET_PROTOCOL_VERSION,
        cluster_id: CLUSTER_ID,
        groups: 1,
        kind: PeerKind::Node(NodeId(99)),
    });
    encode_frame_into(&hello, &mut bytes);
    let vote = Message::RequestVote(RequestVoteMsg {
        term: Term(ahead),
        candidate: NodeId(99),
        last_log_index: LogIndex(1 << 20),
        last_log_term: Term(ahead),
    });
    let to = NodeId(members[0].0);
    encode_frame_into(&NetFrame::Peer { group: 0, to, msg: vote }, &mut bytes);
    raw.write_all(&bytes).expect("handshake and vote request");

    // Node 0 closes the connection without a word.
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let read = raw.read(&mut [0u8; 64]);
    assert!(
        matches!(&read, Ok(0))
            || read.as_ref().is_err_and(|e| e.kind() == ErrorKind::ConnectionReset),
        "node 0 kept a connection from node 99: {read:?}"
    );
    assert_eq!(rejects(), before + 1, "the refusal is counted");
    // Give a delivered vote request time to land, then check no replica
    // took its term.
    std::thread::sleep(Duration::from_millis(200));
    for (i, s) in servers.iter().enumerate() {
        let term = s.cluster().status(0).term;
        assert!(term < ahead, "node {i} took node 99's term {term}");
    }
}

/// A client session has no writer thread: whoever answers the client writes,
/// and a write that stalls for `WRITE_STALL` closes the session. A raw client
/// that floods requests and pings and never reads is cut off, while a
/// well-behaved client on the same leader keeps committing throughout.
#[test]
fn a_client_that_stops_reading_is_closed_while_others_keep_committing() {
    let (servers, members) = spawn_cluster(3);
    let leader = await_leaders(&servers, Duration::from_secs(10)).expect("cold start")[0];
    let scrape = || servers[leader].cluster().transport().scrape().expect("tcp scrapes");
    let sessions = || scrape().gauges.get("net_clients_connected").copied().unwrap_or(0);
    let stalls = || scrape().counters.get("net_write_stalls").copied().unwrap_or(0);

    let mut client =
        NetClient::new(CLUSTER_ID, ClientId(906), members.clone(), TimeDelta::from_millis(300));
    let mut submit = |i: u32| {
        let payload = bytes::Bytes::from(format!("s{i}=v"));
        client.submit(payload, Duration::from_secs(10)).expect("the good client commits");
    };
    submit(0);
    assert!(poll_until(Duration::from_secs(10), || sessions() == 1), "good client's session");

    let mut raw = TcpStream::connect(members[leader].1).expect("connect to the leader");
    let raw_id = ClientId(905);
    let hello = NetFrame::Hello(HelloMsg {
        version: NET_PROTOCOL_VERSION,
        cluster_id: CLUSTER_ID,
        groups: 1,
        kind: PeerKind::Client(raw_id),
    });
    raw.write_all(&encode_frame(&hello)).expect("handshake");
    assert!(poll_until(Duration::from_secs(10), || sessions() == 2), "raw session registered");
    // Requests and pings, as fast as the leader takes them, never reading a
    // reply. The flood ends when the leader closes the session.
    let cut_off = Arc::new(AtomicBool::new(false));
    {
        let cut_off = Arc::clone(&cut_off);
        let to = NodeId(members[leader].0);
        std::thread::spawn(move || {
            let mut burst = Vec::new();
            for request in 0.. {
                burst.clear();
                let req = ClientRequest {
                    client: raw_id,
                    request: RequestId(request),
                    payload: bytes::Bytes::from_static(b"r=1"),
                };
                encode_frame_into(&NetFrame::Request { group: 0, to, req }, &mut burst);
                for _ in 0..256 {
                    encode_frame_into(&NetFrame::Ping { t0: 0 }, &mut burst);
                }
                if raw.write_all(&burst).is_err() {
                    break;
                }
            }
            cut_off.store(true, Ordering::Relaxed);
        });
    }

    let mut i = 1;
    let closed = poll_until(Duration::from_secs(30), || {
        submit(i);
        i += 1;
        cut_off.load(Ordering::Relaxed) && sessions() == 1
    });
    assert!(closed, "raw session still open: {} sessions, {} stalls", sessions(), stalls());
    assert!(stalls() >= 1, "the session closed without a write stall");
    for _ in 0..20 {
        submit(i);
        i += 1;
    }
    assert!(client.drain(Duration::from_secs(10)), "opList did not drain");
}

/// A client holds one connection, to the node it last sent to. Sent to a
/// follower first and redirected to the leader, it closes the follower's
/// session, so once it has committed the cluster holds one client session.
#[test]
fn a_redirected_client_keeps_one_session() {
    let (servers, members) = spawn_cluster(3);
    let leader = await_leaders(&servers, Duration::from_secs(10)).expect("cold start")[0];
    let mut follower_first = members.clone();
    follower_first.rotate_left((leader + 1) % members.len());
    assert_ne!(follower_first[0].0, members[leader].0);

    let mut client =
        NetClient::new(CLUSTER_ID, ClientId(907), follower_first, TimeDelta::from_millis(300));
    let payload = bytes::Bytes::from_static(b"r=1");
    client.submit(payload, Duration::from_secs(10)).expect("commits after the redirect");
    assert!(client.drain(Duration::from_secs(10)), "opList did not drain");

    let sessions = || -> i64 {
        let scrape = |s: &NodeServer<KvStore>| s.cluster().transport().scrape();
        servers
            .iter()
            .filter_map(scrape)
            .filter_map(|t| t.gauges.get("net_clients_connected").copied())
            .sum()
    };
    let one = poll_until(Duration::from_secs(10), || sessions() == 1);
    assert!(one, "{} client sessions open across the cluster", sessions());
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

/// A bare two-node link: transports 0 and 1 joined by one TCP connection
/// whose two directions both emulate `baseline`, clock-sampling every 25 ms.
/// Returns once the connection is up, with node 1's inbox.
fn spawn_link(baseline: LinkFault) -> ([TcpTransport; 2], Receiver<Packet>) {
    let bind = || TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let (l0, l1) = (bind(), bind());
    let (a0, a1) = (l0.local_addr().expect("addr"), l1.local_addr().expect("addr"));
    let spawn = |id: u32, peer, listener| {
        let (tx, inbox) = sync_channel(NODE_INBOX_DEPTH);
        let inboxes = TransportInboxes { nodes: vec![(id, tx)], client: channel().0 };
        let cfg = TcpConfig {
            node_id: id,
            peers: vec![peer],
            baseline,
            keepalive: Duration::from_millis(25),
            ..TcpConfig::default()
        };
        (TcpTransport::spawn(cfg, listener, inboxes), inbox)
    };
    let (t0, _inbox0) = spawn(0, (1, a1), l0);
    let (t1, inbox1) = spawn(1, (0, a0), l1);
    let up = poll_until(Duration::from_secs(10), || {
        [&t0, &t1].iter().all(|t| gauge(t, "net_peer_links_up") == 1)
    });
    assert!(up, "link did not come up");
    ([t0, t1], inbox1)
}

fn gauge(t: &TcpTransport, name: &str) -> i64 {
    t.scrape().expect("tcp scrapes").gauges.get(name).copied().unwrap_or(0)
}

fn counter(t: &TcpTransport, name: &str) -> u64 {
    t.scrape().expect("tcp scrapes").counters.get(name).copied().unwrap_or(0)
}

/// A protocol frame from node 0 that carries `seq`.
fn numbered(seq: u64) -> Packet {
    let msg = Message::Heartbeat(HeartbeatMsg {
        term: Term(1),
        leader: NodeId(0),
        last_index: LogIndex(seq),
        last_term: Term(1),
        leader_commit: LogIndex(0),
    });
    Packet::Peer { from: NodeId(0), msg }
}

fn seq_of(p: Packet) -> u64 {
    match p {
        Packet::Peer { msg: Message::Heartbeat(h), .. } => h.last_index.0,
        other => panic!("unexpected packet {other:?}"),
    }
}

/// The emulated link is a pipe: a frame sent while earlier ones are still in
/// flight crosses alongside them and pays the hop once. A writer that holds
/// each batch for its delay is stop-and-wait instead — a frame queued behind
/// a held batch pays that batch's remaining delay and then its own, up to
/// two hops — and fails every drive below.
#[test]
fn emulated_link_latency_is_per_frame_not_per_batch() {
    const HOP: Duration = Duration::from_millis(20);
    const SLACK: Duration = Duration::from_millis(12);
    const FRAMES: u64 = 40;
    let hop = TimeDelta(HOP.as_nanos() as u64);
    let ([t0, t1], inbox1) = spawn_link(LinkFault { delay: (hop, hop), ..LinkFault::default() });
    // Stamp arrivals on their own thread, so the paced sender cannot delay them.
    let (stamp_tx, stamps) = channel();
    let stamper = std::thread::spawn(move || {
        for p in inbox1 {
            if stamp_tx.send((seq_of(p), Instant::now())).is_err() {
                break;
            }
        }
    });

    // One drive: 40 frames 2 ms apart, so about ten share the link at any
    // instant. Order and "never early" are asserted outright. The upper
    // bounds are the drive's verdict: a host stall longer than SLACK fails
    // one drive for reasons that are not the link's, while a stop-and-wait
    // link fails every drive (its latencies climb to two hops).
    let drive = |base: u64| -> Result<(), String> {
        let mut sent = Vec::new();
        for seq in base..base + FRAMES {
            sent.push(Instant::now());
            t0.send(0, 1, numbered(seq));
            std::thread::sleep(Duration::from_millis(2));
        }
        let arrivals: Vec<(u64, Instant)> = (0..FRAMES)
            .map(|_| stamps.recv_timeout(Duration::from_secs(5)).expect("every frame arrives"))
            .collect();
        let order: Vec<u64> = arrivals.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(order, (base..base + FRAMES).collect::<Vec<_>>(), "arrival order != send order");
        let latency: Vec<Duration> =
            arrivals.iter().zip(&sent).map(|(&(_, at), &s)| at - s).collect();
        assert!(latency.iter().all(|&l| l >= HOP), "a frame crossed early: {latency:?}");
        if let Some(late) = latency.iter().position(|&l| l > HOP + SLACK) {
            return Err(format!("frame {late} crossed a {HOP:?} hop late: {latency:?}"));
        }
        // The link's own clock samples rode the same pipe under that load: a
        // round trip is two hops, not two hops plus the batches queued ahead.
        for (t, peer) in [(&t0, 1), (&t1, 0)] {
            let rtt = Duration::from_nanos(gauge(t, &format!("net_rtt_ns_peer_{peer}")) as u64);
            assert!(rtt >= 2 * HOP, "rtt to peer {peer} reads {rtt:?}, under two hops");
            if rtt > 2 * HOP + SLACK {
                return Err(format!("rtt to peer {peer} reads {rtt:?}"));
            }
        }
        Ok(())
    };
    let late: Vec<String> = (0..3).map_while(|k| drive(k * FRAMES).err()).collect();
    assert!(late.len() < 3, "every drive was late: {late:#?}");
    assert_eq!(counter(&t0, "net_frames_lost") + counter(&t0, "net_dropped_queue_full"), 0);
    drop((t0, t1));
    stamper.join().expect("stamper thread");

    // Loss is still decided and counted per frame, whatever shares a wake-up
    // with it: every frame is either delivered or in `net_frames_lost`.
    let ([t0, _t1], inbox1) =
        spawn_link(LinkFault { drop: 0.5, delay: (hop, hop), ..LinkFault::default() });
    const LOSSY_FRAMES: u64 = 400;
    for seq in 0..LOSSY_FRAMES {
        t0.send(0, 1, numbered(seq));
    }
    let mut delivered = 0;
    let settled = poll_until(Duration::from_secs(10), || {
        delivered += inbox1.try_iter().count() as u64;
        delivered + counter(&t0, "net_frames_lost") == LOSSY_FRAMES
    });
    let lost = counter(&t0, "net_frames_lost");
    assert!(settled, "{delivered} delivered + {lost} lost of {LOSSY_FRAMES} sent");
    assert!((120..=280).contains(&lost), "a 50% link lost {lost} of {LOSSY_FRAMES} frames");
    assert_eq!(counter(&t0, "net_dropped_queue_full"), 0);
}

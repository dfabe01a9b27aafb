//! Layer probes: each times calls into one crate's public functions from a
//! single thread, or drives one layer of the stack in isolation. None of
//! them depends on the workload; they are the cost table beneath every
//! workload's end-to-end numbers.

use crate::lap::{run_lap, LapOpts};
use crate::stats::{median, percentile};
use crate::summary::{summarize, Values};
use crate::workload::{request_pool, Request, Workload};
use bytes::Bytes;
use nbr_cluster::transport::TransportInboxes;
use nbr_cluster::{compress_strong_resps, Cluster, ClusterConfig, NetConfig, Packet, Transport};
use nbr_core::{coalesce_appends, Node, Output, RaftClient, SlidingWindow, VoteList};
use nbr_net::{TcpConfig, TcpTransport};
use nbr_storage::{KvStore, LogStore, MemLog, StateMachine, SyncPolicy, WalLog};
use nbr_types::message::{AppendRespMsg, RequestVoteRespMsg, MAX_APPEND_BATCH};
use nbr_types::wire::{decode_frame_shared, encode_frame, encode_frame_into};
use nbr_types::{
    AcceptState, AppendEntryMsg, ClientId, ClientRequest, ClientResponse, Entry, LogIndex, Message,
    NodeId, Origin, Protocol, RequestId, Term, Time, TimeDelta,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Window the shipped configuration uses.
const WINDOW: usize = 10_000;
/// Operations per timed batch of a micro probe.
const BATCH: usize = 1024;

/// Time `batch()` repeatedly for `slice`; each call prepares its state
/// untimed and returns the time `ops` operations took. Median ns/op over
/// the batches, so a pre-empted batch does not move the number.
fn ns_per_op(slice: Duration, ops: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let until = Instant::now() + slice;
    let mut per_op = Vec::new();
    while per_op.len() < 3 || Instant::now() < until {
        per_op.push(batch().as_nanos() as f64 / ops as f64);
    }
    median(&mut per_op)
}

fn origin(i: u64) -> Option<Origin> {
    Some(Origin { client: ClientId(7), request: RequestId(i) })
}

fn body(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>())
}

/// Entries `from..from + n` of term 1, each preceding the next.
fn run_of(from: u64, n: usize, payload: &Bytes) -> Vec<Entry> {
    (from..from + n as u64)
        .map(|i| {
            let prev = Term(u64::from(i != 1));
            Entry::data(LogIndex(i), Term(1), prev, origin(i), payload.clone())
        })
        .collect()
}

fn append_msg(entries: Vec<Entry>) -> Message {
    Message::AppendEntry(AppendEntryMsg {
        term: Term(1),
        leader: NodeId(0),
        entries,
        leader_commit: LogIndex(0),
        verification: None,
        relay_to: vec![],
    })
}

fn members() -> Vec<NodeId> {
    vec![NodeId(0), NodeId(1), NodeId(2)]
}

fn types(slice: Duration, v: &mut Values) {
    for (size, enc, dec) in [
        (256, "types.encode_ns_256", "types.decode_ns_256"),
        (4096, "types.encode_ns_4k", "types.decode_ns_4k"),
    ] {
        let msg = append_msg(run_of(42, 1, &body(size)));
        let mut buf = Vec::with_capacity(size + 256);
        v.insert(
            enc,
            ns_per_op(slice, BATCH, || {
                let t = Instant::now();
                for _ in 0..BATCH {
                    buf.clear();
                    encode_frame_into(std::hint::black_box(&msg), &mut buf);
                    std::hint::black_box(buf.len());
                }
                t.elapsed()
            }),
        );
        let frame = Bytes::from(encode_frame(&msg));
        v.insert(
            dec,
            ns_per_op(slice, BATCH, || {
                let t = Instant::now();
                for _ in 0..BATCH {
                    let m =
                        decode_frame_shared::<Message>(std::hint::black_box(&frame), usize::MAX);
                    std::hint::black_box(m.expect("frame decodes"));
                }
                t.elapsed()
            }),
        );
    }
    let msg = append_msg(run_of(42, MAX_APPEND_BATCH, &body(256)));
    let mut buf = Vec::with_capacity(64 * 512);
    v.insert(
        "types.encode_ns_per_entry_b64",
        ns_per_op(slice, 64 * MAX_APPEND_BATCH, || {
            let t = Instant::now();
            for _ in 0..64 {
                buf.clear();
                encode_frame_into(std::hint::black_box(&msg), &mut buf);
                std::hint::black_box(buf.len());
            }
            t.elapsed()
        }),
    );
}

/// A leader of a 3-node group in term 1 with an empty log but its no-op.
fn leader() -> Node<MemLog> {
    let mut node =
        Node::new(NodeId(0), members(), Protocol::NbRaft.config(WINDOW), MemLog::new(), 42);
    let mut out = Vec::new();
    node.campaign(Time::ZERO, &mut out);
    let vote = RequestVoteRespMsg { term: node.term(), from: NodeId(1), granted: true };
    node.handle_message(NodeId(1), Message::RequestVoteResp(vote), Time::ZERO, &mut out);
    assert!(node.is_leader(), "one granted vote of three elects");
    node
}

/// ns per entry for a follower fed `BATCH` in-order entries in messages of
/// `per_msg` entries.
fn follower_append(slice: Duration, window: usize, per_msg: usize) -> f64 {
    let payload = body(256);
    ns_per_op(slice, BATCH, || {
        let mut node =
            Node::new(NodeId(1), members(), Protocol::NbRaft.config(window), MemLog::new(), 43);
        let msgs: Vec<Message> = (0..BATCH / per_msg)
            .map(|m| append_msg(run_of(1 + (m * per_msg) as u64, per_msg, &payload)))
            .collect();
        let mut out = Vec::new();
        let t = Instant::now();
        for (i, m) in msgs.into_iter().enumerate() {
            node.handle_message(NodeId(0), m, Time::from_millis(i as u64), &mut out);
            out.clear();
        }
        let took = t.elapsed();
        assert_eq!(node.last_index(), LogIndex(BATCH as u64), "every entry appended");
        took
    })
}

fn core(slice: Duration, v: &mut Values) {
    let payload = body(256);
    v.insert(
        "core.leader_propose_ns",
        ns_per_op(slice, BATCH, || {
            let mut node = leader();
            let mut out = Vec::new();
            let t = Instant::now();
            for i in 0..BATCH as u64 {
                let req = ClientRequest {
                    client: ClientId(7),
                    request: RequestId(i + 1),
                    payload: payload.clone(),
                };
                node.handle_client(req, Time::from_millis(i), &mut out);
                out.clear();
            }
            let took = t.elapsed();
            assert_eq!(node.stats.proposals, BATCH as u64);
            took
        }),
    );
    v.insert("core.follower_append_ns_b1", follower_append(slice, WINDOW, 1));
    v.insert("core.follower_append_ns_b64", follower_append(slice, WINDOW, MAX_APPEND_BATCH));
    v.insert("core.follower_append_ns_w0", follower_append(slice, 0, 1));
    v.insert(
        "core.window_offer_ns",
        // Out-of-order arrival: 63 entries cached in reverse, then the gap
        // filler flushes the run.
        ns_per_op(slice, BATCH, || {
            let entries = run_of(1, 64, &payload);
            let mut spent = Duration::ZERO;
            for _ in 0..BATCH / 64 {
                let mut win = SlidingWindow::new(WINDOW, LogIndex(0));
                let burst: Vec<Entry> = entries.iter().rev().cloned().collect();
                let t = Instant::now();
                for e in burst {
                    std::hint::black_box(win.offer(e, Term::ZERO));
                }
                spent += t.elapsed();
                assert_eq!(win.occupied(), 0, "the gap filler flushed the window");
            }
            spent
        }),
    );
    v.insert(
        "core.votelist_commit_ns",
        // Life of a tuple: tracked, weakly accepted, committed by one
        // cumulative strong accept.
        ns_per_op(slice, BATCH, || {
            let mut vl = VoteList::new(2);
            let t = Instant::now();
            for i in 1..=BATCH as u64 {
                vl.track(LogIndex(i), Term(1), None, 1, 2);
                std::hint::black_box(vl.weak_accept(LogIndex(i), Term(1), 2));
            }
            let out = vl.strong_accept(LogIndex(BATCH as u64), 4, Term(1));
            let took = t.elapsed();
            assert_eq!(out.committed.len(), BATCH);
            took
        }),
    );
    v.insert(
        "core.client_step_ns",
        ns_per_op(slice, BATCH, || {
            let mut c =
                RaftClient::new(ClientId(7), members(), NodeId(0), TimeDelta::from_millis(300));
            let mut actions = Vec::new();
            let t = Instant::now();
            for i in 1..=BATCH as u64 {
                let now = Time::from_millis(i);
                let request = c.issue(payload.clone(), now, &mut actions);
                let (index, term) = (LogIndex(i), Term(1));
                c.handle_response(ClientResponse::Weak { request, index, term }, now, &mut actions);
                c.handle_response(
                    ClientResponse::Strong { request, index, term },
                    now,
                    &mut actions,
                );
                actions.clear();
            }
            let took = t.elapsed();
            assert_eq!(c.confirmed(), BATCH as u64);
            took
        }),
    );
}

fn storage(slice: Duration, scratch: &std::path::Path, v: &mut Values) -> Result<(), String> {
    let entries = run_of(1, BATCH, &body(256));
    v.insert(
        "storage.memlog_append_ns",
        ns_per_op(slice, BATCH, || {
            let (mut log, batch) = (MemLog::new(), entries.clone());
            let t = Instant::now();
            for e in batch {
                log.append(e).expect("contiguous append");
            }
            t.elapsed()
        }),
    );
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    for (name, sync, ops) in [
        ("storage.wal_append_us_nosync", SyncPolicy::Never, 256),
        ("storage.wal_append_us_fsync", SyncPolicy::Always, 8),
    ] {
        let path = scratch.join("probe.wal");
        let ns = ns_per_op(slice, ops, || {
            let _ = std::fs::remove_file(&path);
            let mut wal = WalLog::open(&path, sync).expect("open wal in the scratch directory");
            let batch = entries[..ops].to_vec();
            let t = Instant::now();
            for e in batch {
                wal.append(e).expect("wal append");
            }
            t.elapsed()
        });
        v.insert(name, ns / 1e3);
    }
    std::fs::remove_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    for (name, size) in [("storage.kv_apply_ns_256", 256), ("storage.kv_apply_ns_4k", 4096)] {
        // The workloads' own requests: one key per device, overwritten.
        let pool: Vec<Request> = request_pool(1, 0, 1, size);
        let mut kv = KvStore::new();
        let mut next = 0u64;
        let ns = ns_per_op(slice, pool.len(), || {
            let batch: Vec<Entry> = pool
                .iter()
                .map(|r| {
                    next += 1;
                    Entry::data(LogIndex(next), Term(1), Term(1), origin(next), r.payload.clone())
                })
                .collect();
            let t = Instant::now();
            for e in &batch {
                std::hint::black_box(kv.apply(e));
            }
            t.elapsed()
        });
        v.insert(name, ns);
    }
    Ok(())
}

fn strong_resp(from: u32, last: u64) -> Packet {
    let state = AcceptState::Strong { last_index: LogIndex(last), last_term: Term(1) };
    Packet::Peer {
        from: NodeId(from),
        msg: Message::AppendResp(AppendRespMsg { term: Term(1), from: NodeId(from), state }),
    }
}

/// What the replica loop does to a 256-packet burst besides the engine:
/// merge per-peer appends into batched frames, drop superseded strong acks.
fn coalesce(slice: Duration, v: &mut Values) {
    let entries = run_of(1, 128, &body(256));
    let outputs: Vec<Output> = entries
        .iter()
        .flat_map(|e| {
            [1, 2].map(|to| Output::Send { to: NodeId(to), msg: append_msg(vec![e.clone()]) })
        })
        .collect();
    let resps: Vec<Packet> =
        (1..=128).flat_map(|i| [strong_resp(1, i), strong_resp(2, i)]).collect();
    let ns = ns_per_op(slice, 1, || {
        let (mut out, mut burst) = (outputs.clone(), resps.clone());
        let t = Instant::now();
        coalesce_appends(&mut out, MAX_APPEND_BATCH);
        compress_strong_resps(&mut burst);
        let took = t.elapsed();
        assert_eq!((out.len(), burst.len()), (4, 2));
        took
    });
    v.insert("cluster.coalesce_ns_burst256", ns);
}

/// Three replicas on the in-process router (no sockets, no injected delay),
/// driven by `clients` closed-loop `ClusterClient`s: `(ops/s, ack p50 ns)`.
fn inproc(clients: usize, run: Duration) -> (f64, u64) {
    let cfg = ClusterConfig {
        net: NetConfig { delay: (Duration::ZERO, Duration::ZERO), ..NetConfig::default() },
        compact_after: Some(8192),
        ..ClusterConfig::default()
    };
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg);
    cluster.wait_for_leader(Duration::from_secs(10)).expect("in-process cluster elects");
    let warmup = run / 4;
    let start = Instant::now();
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let mut client = cluster.client();
                let pool = request_pool(1, t, clients, 256);
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut k = 0;
                    while start.elapsed() < run {
                        let t0 = Instant::now();
                        let r = client
                            .submit(pool[k % pool.len()].payload.clone(), Duration::from_secs(5));
                        if r.is_ok() && start.elapsed() >= warmup {
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                        k += 1;
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    lat.sort_unstable();
    (lat.len() as f64 / (run - warmup).as_secs_f64(), percentile(&lat, 0.5))
}

/// One-way frames/s between two `TcpTransport`s over loopback: node 0 sends
/// single-entry appends of `payload` bytes to node 1 through
/// `Transport::send`, never more than half a send queue ahead of the
/// receiver so that nothing is shed.
fn link(run: Duration, payload: usize) -> Result<f64, String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"));
    let (l0, l1) = (bind()?, bind()?);
    let addr = |l: &TcpListener| l.local_addr().map_err(|e| format!("local addr: {e}"));
    let (a0, a1) = (addr(&l0)?, addr(&l1)?);
    let received = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut sinks = Vec::new();
    let mut spawn = |id: u32, peer: (u32, std::net::SocketAddr), listener: TcpListener| {
        let (tx, rx) = sync_channel::<Packet>(nbr_cluster::NODE_INBOX_DEPTH);
        let (client, _) = channel();
        let (received, stop) = (Arc::clone(&received), Arc::clone(&stop));
        sinks.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if rx.recv_timeout(Duration::from_millis(10)).is_ok() {
                    received.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        let cfg = TcpConfig { node_id: id, peers: vec![peer], ..TcpConfig::default() };
        TcpTransport::spawn(cfg, listener, TransportInboxes { nodes: vec![(id, tx)], client })
    };
    let t0 = spawn(0, (1, a1), l0);
    let t1 = spawn(1, (0, a0), l1);
    let msg = append_msg(run_of(1, 1, &body(payload)));
    let in_flight = TcpConfig::default().send_queue as u64 / 2;
    let (mut sent, mut first) = (0u64, None);
    let until = Instant::now() + run;
    while Instant::now() < until {
        if sent - received.load(Ordering::Relaxed) < in_flight {
            t0.send(0, 1, Packet::Peer { from: NodeId(0), msg: msg.clone() });
            sent += 1;
        } else {
            std::thread::yield_now();
        }
        // The link is up once the first frame has arrived; time from there.
        if first.is_none() && received.load(Ordering::Relaxed) > 0 {
            first = Some((Instant::now(), received.load(Ordering::Relaxed)));
        }
    }
    let got = received.load(Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    drop((t0, t1));
    for s in sinks {
        s.join().map_err(|_| "link sink thread panicked")?;
    }
    let (since, base) = first.ok_or("no frame crossed the link")?;
    Ok((got - base) as f64 / since.elapsed().as_secs_f64())
}

/// One lap of a `replicas`-node TCP cluster under a 256 B closed loop.
fn net_lap(replicas: usize, clients: usize, run: Duration) -> Result<Values, String> {
    let w = Workload {
        name: "probe",
        why: "",
        clients,
        payload: 256,
        pace: None,
        link_delay: Duration::ZERO,
        loss_pct: 0.0,
    };
    let o = LapOpts { seed: 1, replicas, warmup: run / 4, measure: run - run / 4, traced: false };
    let lap = run_lap(&w, &o)?;
    lap.gate.clone()?;
    Ok(summarize(&w, &[lap], 0))
}

/// Run every probe, spending about `budget` in total. `scratch` is a
/// directory the WAL probes may create, fill and remove.
pub fn run(budget: Duration, scratch: &std::path::Path) -> Result<Values, String> {
    let mut v = Values::new();
    // Half the budget for the six probes that run threads and sockets, half
    // for the 23 single-threaded ones.
    let long = budget / 12;
    let short = budget / 46;
    types(short, &mut v);
    core(short, &mut v);
    storage(short, scratch, &mut v)?;
    coalesce(short, &mut v);
    v.insert("cluster.inproc_ops_per_s", inproc(16, long).0);
    v.insert("cluster.inproc_ack_p50_us", inproc(1, long).1 as f64 / 1e3);
    v.insert("net.link_frames_per_s", link(long, 256)?);
    v.insert("net.link_mb_per_s_4k", link(long, 4096)? * 4096.0 / 1e6);
    v.insert("net.single_node_ops_per_s", net_lap(1, 16, long)?["ops_per_s"]);
    v.insert("net.client_rtt_us", net_lap(1, 1, long)?["ack_p50_ms"] * 1e3);
    Ok(v)
}

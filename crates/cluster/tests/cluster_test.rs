//! End-to-end tests on the real-thread cluster: elections, replication into
//! real state machines, leader failover, WAL crash recovery, and the NB-Raft
//! weak-ack path under an out-of-order network.

use bytes::Bytes;
use nbr_cluster::{Cluster, ClusterConfig, FaultPlane, NetConfig, StorageMode};
use nbr_core::NodeStats;
use nbr_storage::{KvStore, LogStore, SyncPolicy, TsStore, WalLog};
use nbr_types::{Fault, Protocol, TimeDelta, TimeoutConfig};
use std::io::Write;
use std::time::{Duration, Instant};

fn cfg(protocol: Protocol, window: usize) -> ClusterConfig {
    let mut protocol = protocol.config(window);
    protocol.timeouts = TimeoutConfig {
        election_min: TimeDelta::from_millis(150),
        election_max: TimeDelta::from_millis(300),
        heartbeat_interval: TimeDelta::from_millis(40),
    };
    ClusterConfig { protocol, ..ClusterConfig::default() }
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("nbr-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn elects_a_leader_and_replicates_kv() {
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg(Protocol::NbRaft, 1024));
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..50 {
        client
            .submit(Bytes::from(format!("key{i}=value{i}")), Duration::from_secs(5))
            .expect("submit");
    }
    assert!(client.drain(Duration::from_secs(5)), "opList drains");
    // What the driver shared with the TCP client reports once drained: free
    // to issue again, and every request covered by a confirmation watermark.
    assert!(client.await_ready(Duration::from_secs(1)));
    assert_eq!(client.take_confirmed().iter().map(|r| r.0).max(), Some(client.issued()));
    assert!(client.take_confirmed().is_empty(), "watermarks are handed over once");
    // All replicas converge: noop + 50 entries applied.
    assert!(cluster.wait_for_applied(51, Duration::from_secs(10)), "replicas converge");
    for node in 0..3 {
        let m = cluster.machine(node);
        let kv = m.lock();
        assert_eq!(kv.get(b"key7"), Some(b"value7".as_ref()), "node {node}");
        assert_eq!(kv.len(), 50, "node {node}");
    }
    let _ = leader;
}

#[test]
fn survives_leader_crash_and_keeps_committed_data() {
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg(Protocol::NbRaft, 1024));
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..20 {
        client.submit(Bytes::from(format!("a{i}=b{i}")), Duration::from_secs(5)).expect("submit");
    }
    client.drain(Duration::from_secs(5));
    cluster.crash(leader);
    // A new leader emerges among the survivors.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let new_leader = loop {
        if let Some(l) = cluster.wait_for_leader(Duration::from_secs(1)) {
            if l != leader {
                break l;
            }
        }
        assert!(std::time::Instant::now() < deadline, "no new leader elected");
    };
    // Committed data survives and new writes work.
    client
        .submit(Bytes::from_static(b"after=crash"), Duration::from_secs(10))
        .expect("submit after failover");
    client.drain(Duration::from_secs(5));
    let m = cluster.machine(new_leader);
    std::thread::sleep(Duration::from_millis(300));
    let kv = m.lock();
    assert_eq!(kv.get(b"a5"), Some(b"b5".as_ref()));
    assert_eq!(kv.get(b"after"), Some(b"crash".as_ref()));
}

#[test]
fn wal_recovery_after_crash_restart() {
    let dir = tmpdir("walrec");
    let mut c = cfg(Protocol::Raft, 0);
    c.storage = StorageMode::Wal(dir.clone());
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..10 {
        client.submit(Bytes::from(format!("k{i}=v{i}")), Duration::from_secs(5)).expect("submit");
    }
    // Crash a follower, write more, restart it, and check it catches up
    // from its recovered log rather than from scratch.
    let leader = cluster.wait_for_leader(Duration::from_secs(1)).unwrap();
    let follower = (0..3).find(|&i| i != leader).unwrap();
    cluster.crash(follower);
    std::thread::sleep(Duration::from_millis(200));
    for i in 10..20 {
        client.submit(Bytes::from(format!("k{i}=v{i}")), Duration::from_secs(5)).expect("submit");
    }
    cluster.restart(follower);
    assert!(cluster.wait_for_applied(21, Duration::from_secs(10)), "restarted node catches up");
    let m = cluster.machine(follower);
    let kv = m.lock();
    assert_eq!(kv.get(b"k15"), Some(b"v15".as_ref()));
    // WAL files exist on disk.
    assert!(dir.join(format!("node-{follower}.wal")).exists());
}

/// A kill -9 can cut the WAL mid-record, the hard state's included. The
/// torn record is dropped and the replica boots from the last whole one:
/// never at term 0 with no vote, which would let it vote twice in one term.
#[test]
fn a_torn_hard_state_record_boots_from_the_last_whole_one() {
    let dir = tmpdir("torn-hs");
    let mut c = cfg(Protocol::Raft, 0);
    c.storage = StorageMode::Wal(dir.clone());
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let term = cluster.status(follower).term;
    assert!(term > 0, "the follower has seen a leader's term");
    cluster.crash(follower);
    // The first bytes of a `HardState` record: a 17-byte body announced
    // (tag, term, vote), its CRC, the tag and half the term.
    let wal = dir.join(format!("node-{}.wal", cluster.node_id(follower)));
    let mut torn = 17u32.to_le_bytes().to_vec();
    torn.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 4, 0, 0, 0, 9, 0, 0, 0]);
    std::fs::OpenOptions::new().append(true).open(&wal).unwrap().write_all(&torn).unwrap();
    // What the replica will boot from, read off a copy of its file.
    let copy = tmpdir("torn-hs-copy").join("wal");
    std::fs::copy(&wal, &copy).unwrap();
    let (booted, _) = WalLog::open(&copy, SyncPolicy::Never).unwrap().hard_state();
    assert!(booted.0 >= term, "recovered term {} after term {term}", booted.0);
    cluster.restart(follower);
    let deadline = Instant::now() + Duration::from_secs(2);
    while cluster.status(follower).term < term && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = cluster.status(follower);
    assert!(status.alive, "the follower booted");
    assert!(status.term >= term, "booted at term {} after term {term}", status.term);
    let hs_files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "hs"))
        .count();
    assert_eq!(hs_files, 0, "hard state lives in the WAL");
}

#[test]
fn nbraft_weak_acks_under_jittery_network() {
    // Large delay jitter forces out-of-order arrival; NB-Raft should answer
    // a meaningful share of requests with weak acks.
    let mut c = cfg(Protocol::NbRaft, 4096);
    c.net = NetConfig {
        delay: (Duration::from_micros(100), Duration::from_millis(3)),
        drop_rate: 0.0,
        seed: 3,
    };
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");

    // Several concurrent clients to create disorder.
    let mut handles = Vec::new();
    for t in 0..4 {
        let mut client = cluster.client();
        handles.push(std::thread::spawn(move || {
            let mut weak = 0u32;
            for i in 0..50 {
                let (_, was_weak) = client
                    .submit(Bytes::from(format!("t{t}k{i}=x")), Duration::from_secs(10))
                    .expect("submit");
                if was_weak {
                    weak += 1;
                }
            }
            client.drain(Duration::from_secs(10));
            weak
        }));
    }
    let weak_total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(weak_total > 0, "NB-Raft should weak-ack under jitter (got {weak_total})");
    assert!(cluster.wait_for_applied(201, Duration::from_secs(15)));
}

#[test]
fn raft_never_weak_acks() {
    let mut c = cfg(Protocol::Raft, 0);
    c.net = NetConfig {
        delay: (Duration::from_micros(100), Duration::from_millis(2)),
        drop_rate: 0.0,
        seed: 5,
    };
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..30 {
        let (_, weak) =
            client.submit(Bytes::from(format!("k{i}=v")), Duration::from_secs(10)).expect("submit");
        assert!(!weak, "original Raft must not weak-ack");
    }
}

#[test]
fn message_drops_are_repaired() {
    let mut c = cfg(Protocol::NbRaft, 1024);
    c.net.drop_rate = 0.05; // 5% loss
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..40 {
        client
            .submit(Bytes::from(format!("d{i}=x")), Duration::from_secs(15))
            .expect("submit despite drops");
    }
    client.drain(Duration::from_secs(15));
    assert!(cluster.wait_for_applied(41, Duration::from_secs(20)), "repair catches everyone up");
}

#[test]
fn time_series_ingestion_end_to_end() {
    // The IoT path: TsStore state machine ingesting point batches.
    let cluster: Cluster<TsStore> = Cluster::spawn(3, cfg(Protocol::NbRaft, 1024));
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    let mut gen = nbr_workload::RequestGenerator::new(
        nbr_workload::WorkloadConfig {
            devices: 4,
            sensors_per_device: 2,
            request_size: 1024,
            sample_interval_ms: 100,
        },
        0,
        1,
    );
    for _ in 0..30 {
        client.submit(gen.next_request(), Duration::from_secs(5)).expect("ingest");
    }
    client.drain(Duration::from_secs(5));
    assert!(cluster.wait_for_applied(31, Duration::from_secs(10)));
    for node in 0..3 {
        let m = cluster.machine(node);
        let ts = m.lock();
        assert!(ts.total_points() > 0, "node {node} ingested points");
        assert_eq!(ts.series_count(), 8, "node {node} has all series");
    }
    // Follower read: query a range on a non-leader replica.
    let leader = cluster.wait_for_leader(Duration::from_secs(1)).unwrap();
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let m = cluster.machine(follower);
    let ts = m.lock();
    let pts = ts.query_range(0, 0, u64::MAX);
    assert!(!pts.is_empty(), "follower read works for full-copy protocols");
}

#[test]
fn craft_cluster_commits_and_leader_applies() {
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg(Protocol::CRaft, 0));
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..20 {
        client.submit(Bytes::from(format!("c{i}=frag")), Duration::from_secs(10)).expect("submit");
    }
    client.drain(Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(300));
    // The leader applies full payloads...
    let m = cluster.machine(leader);
    assert_eq!(m.lock().len(), 20);
    // ...while followers hold fragments and cannot apply (no follower read).
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let fm = cluster.machine(follower);
    assert_eq!(fm.lock().len(), 0, "CRaft followers store fragments, not data");
}

#[test]
fn partition_heals_and_cluster_continues() {
    let plane = FaultPlane::shared(3);
    let mut c = cfg(Protocol::NbRaft, 1024);
    c.faults = Some(plane.clone());
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let follower = (0..3).find(|&i| i != leader).unwrap() as u32;
    plane.apply(&Fault::Partition { a: vec![leader as u32], b: vec![follower], symmetric: true });
    let mut client = cluster.client();
    for i in 0..10 {
        client
            .submit(Bytes::from(format!("p{i}=x")), Duration::from_secs(10))
            .expect("majority still commits");
    }
    let router = cluster.transport().scrape().expect("the router scrapes");
    assert!(router.counters["net_dropped_partition"] > 0, "the cut must have eaten packets");
    plane.apply(&Fault::Heal);
    client.drain(Duration::from_secs(10));
    assert!(
        cluster.wait_for_applied(11, Duration::from_secs(15)),
        "partitioned follower repaired after heal"
    );
}

/// An in-memory replica restarts on the log it crashed with. Cut off from
/// the others, so nothing can repair it, it must come back with its term and
/// entries, not as an empty replica that could vote twice in one term.
#[test]
fn a_memory_replica_restarts_on_the_log_it_crashed_with() {
    let plane = FaultPlane::shared(3);
    let mut c = cfg(Protocol::NbRaft, 1024);
    c.faults = Some(plane.clone());
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..10 {
        client.submit(Bytes::from(format!("m{i}=x")), Duration::from_secs(5)).expect("submit");
    }
    client.drain(Duration::from_secs(5));
    assert!(cluster.wait_for_applied(11, Duration::from_secs(5)), "replicas converge");
    let leader = cluster.wait_for_leader(Duration::from_secs(1)).expect("leader");
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let others = (0..3).filter(|&i| i != follower).map(|i| i as u32).collect();
    plane.apply(&Fault::Partition { a: vec![follower as u32], b: others, symmetric: true });
    let before = cluster.status(follower);
    cluster.crash(follower);
    cluster.restart(follower);
    let after = cluster.status(follower);
    assert!(after.alive, "{after:?}");
    assert!(
        after.last_index >= before.last_index && after.term >= before.term,
        "before the crash {before:?}, after the restart {after:?}"
    );
}

#[test]
fn compaction_ships_snapshots_to_restarted_followers() {
    // Aggressive compaction: the log never retains more than ~20 applied
    // entries, so a follower that misses a stretch must be caught up with a
    // state machine snapshot rather than entry replay.
    let dir = tmpdir("compact");
    let mut c = cfg(Protocol::NbRaft, 1024);
    c.storage = StorageMode::Wal(dir.clone());
    c.compact_after = Some(20);
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();

    for i in 0..30 {
        client.submit(Bytes::from(format!("pre{i}=x")), Duration::from_secs(5)).expect("submit");
    }
    client.drain(Duration::from_secs(5));
    let leader = cluster.wait_for_leader(Duration::from_secs(1)).unwrap();
    let follower = (0..3).find(|&i| i != leader).unwrap();
    cluster.crash(follower);

    // Enough traffic that the missed range is compacted away on the leader.
    for i in 0..80 {
        client.submit(Bytes::from(format!("mid{i}=y")), Duration::from_secs(5)).expect("submit");
    }
    client.drain(Duration::from_secs(5));

    cluster.restart(follower);
    assert!(
        cluster.wait_for_applied(111, Duration::from_secs(20)),
        "restarted follower caught up via snapshot + suffix"
    );
    let m = cluster.machine(follower);
    let kv = m.lock();
    assert_eq!(kv.get(b"pre5"), Some(b"x".as_ref()), "pre-crash state restored");
    assert_eq!(kv.get(b"mid70"), Some(b"y".as_ref()), "post-crash state replayed");
    assert_eq!(kv.len(), 110);
}

/// A follower that compacted its own log, crashed and came straight back
/// rebuilds its machine from the snapshot its WAL kept, then applies the
/// suffix: no leader has a reason to ship it a snapshot, since its log
/// still reaches the leader's.
#[test]
fn a_replica_restarted_after_compacting_its_own_log_rebuilds_its_machine() {
    let dir = tmpdir("compact-self");
    let mut c = cfg(Protocol::NbRaft, 1024);
    c.storage = StorageMode::Wal(dir);
    c.compact_after = Some(20);
    let cluster: Cluster<KvStore> = Cluster::spawn(3, c);
    cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..50 {
        client.submit(Bytes::from(format!("k{i}=v{i}")), Duration::from_secs(5)).expect("submit");
    }
    client.drain(Duration::from_secs(5));
    // Everyone has applied noop + 50 entries, so everyone compacted.
    assert!(cluster.wait_for_applied(51, Duration::from_secs(5)), "replicas converge");
    let leader = cluster.wait_for_leader(Duration::from_secs(1)).unwrap();
    let follower = (0..3).find(|&i| i != leader).unwrap();
    cluster.crash(follower);
    cluster.restart(follower);
    for i in 50..55 {
        client.submit(Bytes::from(format!("k{i}=v{i}")), Duration::from_secs(5)).expect("submit");
    }
    client.drain(Duration::from_secs(5));
    assert!(
        cluster.wait_for_applied(56, Duration::from_secs(5)),
        "restarted follower applies again: {:?}",
        cluster.status(follower)
    );
    assert!(cluster.status(follower).alive);
    // A leader change on a loaded host adds a noop, so index 56 may not be
    // the last op yet.
    let m = cluster.machine(follower);
    let deadline = Instant::now() + Duration::from_secs(5);
    while m.lock().len() < 55 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let kv = m.lock();
    assert_eq!(kv.len(), 55);
    for i in 0..55 {
        assert_eq!(kv.get(format!("k{i}").as_bytes()), Some(format!("v{i}").as_bytes()));
    }
}

#[test]
fn linearizable_reads_from_leader_and_follower() {
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg(Protocol::NbRaft, 1024));
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    client.submit(Bytes::from_static(b"city=beijing"), Duration::from_secs(5)).expect("submit");
    client.drain(Duration::from_secs(5));

    // Leader read sees the committed write.
    let v = cluster
        .linearizable_read(leader, Duration::from_secs(5), |kv| kv.get(b"city").map(|v| v.to_vec()))
        .expect("leader read");
    assert_eq!(v.as_deref(), Some(b"beijing".as_ref()));

    // Follower read (ReadIndex): waits for the follower to apply through the
    // confirmed index, then serves locally.
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let v = cluster
        .linearizable_read(follower, Duration::from_secs(5), |kv| {
            kv.get(b"city").map(|v| v.to_vec())
        })
        .expect("follower read");
    assert_eq!(v.as_deref(), Some(b"beijing".as_ref()));
}

#[test]
fn reads_on_crashed_node_fail_fast() {
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg(Protocol::NbRaft, 1024));
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let follower = (0..3).find(|&i| i != leader).unwrap();
    cluster.crash(follower);
    std::thread::sleep(Duration::from_millis(100));
    let r = cluster.linearizable_read(follower, Duration::from_secs(2), |kv| kv.len());
    assert!(r.is_err(), "crashed node cannot serve reads");
}

/// Every `NodeStats` row reaches each replica's registry, carrying what the
/// engine counted: `K` committed ops are appended and applied on every
/// replica and proposed on the leader.
#[test]
fn every_node_stats_counter_reaches_each_replica_registry() {
    const K: u64 = 40;
    let cluster: Cluster<KvStore> = Cluster::spawn(3, cfg(Protocol::NbRaft, 1024));
    let leader = cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
    let mut client = cluster.client();
    for i in 0..K {
        client.submit(Bytes::from(format!("k{i}=v{i}")), Duration::from_secs(5)).expect("submit");
    }
    assert!(client.drain(Duration::from_secs(5)), "opList drains");
    assert!(cluster.wait_for_applied(K + 1, Duration::from_secs(10)), "replicas converge");

    let counter = |node: usize, name: &str| {
        cluster.registry(node).snapshot().counters.get(name).copied().unwrap_or(0)
    };
    // The replica loop publishes after each burst; give the last one time.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline
        && !((0..3).all(|i| counter(i, "appends") >= K && counter(i, "applied") >= K)
            && counter(leader, "proposals") >= K)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    for node in 0..3 {
        let counters = cluster.registry(node).snapshot().counters;
        for name in NodeStats::NAMES {
            assert!(counters.contains_key(name), "node {node} exports no {name}");
        }
        assert!(counters["appends"] >= K, "node {node} appends {}", counters["appends"]);
        assert!(counters["applied"] >= K, "node {node} applied {}", counters["applied"]);
    }
    assert!(counter(leader, "proposals") >= K, "leader {leader} proposals below {K}");
}

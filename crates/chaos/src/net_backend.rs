//! Net backend: run a scenario against real TCP transports.
//!
//! Spawns one [`NodeServer`] per replica in-process (real sockets on
//! loopback, WAL-backed storage in a scratch directory), drives client
//! traffic over [`NetClient`], applies the schedule in wall-clock time to
//! the cluster's shared [`FaultPlane`] (crash/recover go to the replica's
//! own controls), then polls the convergence oracles within the scenario's
//! bounded recovery window.
//!
//! Parity caveats vs the sim backend: the fault *table* is the same code on
//! both, but wall-clock scheduling makes fault instants approximate (±ms),
//! per-frame drop draws come from the transport's own seeded RNGs, a link's
//! row is read once per writer wake-up rather than per message (loss is
//! still decided per frame, and each frame is delivered `delay` after it is
//! sent, in order, as in the sim — only the jitter draw is shared by the
//! frames of one wake-up), and `campaign` and `crash clients` have no
//! live-cluster control — schedules using them are sim-only. Whichever
//! replica wins the bootstrap election, the schedule's node ids are rotated
//! so that its node 0 is that leader, as node 0 is in the sim. The schedule,
//! oracle set, and seed plumbing are identical.

use crate::corpus::Scenario;
use crate::oracle::{end_state, min_live_commit, Check, Verdict};
use crate::schedule::Schedule;
use nbr_cluster::{FaultPlane, NodeStatus, StorageMode};
use nbr_net::{await_leaders, NetClient, NodeServer};
use nbr_obs::{EngineProbe, TraceEvent};
use nbr_storage::{KvStore, StateMachine};
use nbr_types::{checksum::crc32, ClientId, NodeAction, Target, TimeDelta};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLUSTER_ID: u64 = 0xC4A0;

/// Run a scenario on the TCP backend and judge it. `scratch` holds the WAL
/// directories and is wiped before and after. When `span_dir` is given and
/// a verdict fails, the run's per-op span trees (clock-aligned across the
/// replicas) are written there as `{scenario}-spans.jsonl` for post-mortem.
pub fn run_scenario_net(
    s: &Scenario,
    seed: u64,
    scratch: &std::path::Path,
    span_dir: Option<&std::path::Path>,
) -> Verdict {
    let mut v = Verdict::new(s.name, "net", seed);
    if !s.net_capable() {
        v.check("net-capable", false, "schedule uses sim-only faults (campaign, crash clients)");
        return v;
    }
    let _ = std::fs::remove_dir_all(scratch);
    if let Err(e) = std::fs::create_dir_all(scratch) {
        v.check("setup", false, format!("scratch dir: {e}"));
        return v;
    }

    // The shipped replica configuration (whose real-time timeouts the sim
    // backend borrows) at the scenario's window, WAL-backed, every replica
    // probed: election-safety evidence during the run, span-tree artifacts
    // when a verdict fails. One fault plane for the whole membership.
    let plane = FaultPlane::shared(s.nodes as usize);
    let (probe, buffer) = EngineProbe::shared();
    let spawned = NodeServer::<KvStore>::spawn_loopback(&vec![1; s.nodes as usize], |cfg| {
        cfg.cluster_id = CLUSTER_ID;
        cfg.cluster.protocol.window = s.window;
        cfg.cluster.storage = StorageMode::Wal(scratch.join(format!("node-{}", cfg.node_id)));
        cfg.cluster.seed = seed ^ (u64::from(cfg.node_id) << 16);
        cfg.cluster.probe = probe.clone();
        cfg.faults = Some(Arc::clone(&plane));
    });
    let (servers, members) = match spawned {
        Ok(c) => c,
        Err(e) => {
            v.check("setup", false, format!("spawn: {e}"));
            return v;
        }
    };

    // Establish a leader before the schedule clock starts, mirroring the
    // sim's deterministic bootstrap campaign at t=0.
    let Ok(&[leader]) = await_leaders(&servers, Duration::from_secs(5)).as_deref() else {
        v.check("bootstrap-leader", false, "a leader within 5s of spawn");
        drop(servers);
        let _ = std::fs::remove_dir_all(scratch);
        return v;
    };
    let detail =
        format!("replica {leader} leads; schedule node i runs on ({leader} + i) % {}", s.nodes);
    v.check("bootstrap-leader", true, detail);

    // Closed-loop client traffic on background threads for the whole
    // schedule (short per-request timeouts: requests are *expected* to fail
    // during partitions; the loop just keeps offering load).
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let mut client_threads = Vec::new();
    for ci in 0..2u64 {
        let members = members.clone();
        let stop = Arc::clone(&stop);
        let acked = Arc::clone(&acked);
        let t = std::thread::Builder::new()
            .name(format!("chaos-client-{ci}"))
            .spawn(move || {
                let mut cl = NetClient::new(
                    CLUSTER_ID,
                    ClientId(100 + ci),
                    members,
                    TimeDelta::from_millis(300),
                );
                let payload = bytes::Bytes::from(vec![b'c'; 64]);
                while !stop.load(Ordering::Relaxed) {
                    // A timed-out submit leaves its request outstanding (the
                    // closed-loop client allows exactly one): block until it
                    // is first-acked before issuing the next.
                    if !cl.await_ready(Duration::from_millis(100)) {
                        continue;
                    }
                    if cl.submit(payload.clone(), Duration::from_millis(400)).is_ok() {
                        acked.fetch_add(1, Ordering::Relaxed);
                    }
                }
                cl.drain(Duration::from_millis(500));
            })
            .expect("spawn chaos client");
        client_threads.push(t);
    }

    // The schedule, in wall-clock time from here.
    // (time order, ties in file order: the sort is stable).
    let mut events = rotated(s.parsed(), leader as u32, s.nodes).events;
    events.sort_by_key(|ev| ev.at);
    let t0 = Instant::now();
    for ev in &events {
        let target = Duration::from_nanos(ev.at.as_nanos());
        let elapsed = t0.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        // The plane takes link, clock and disk faults as they are; crash
        // and recover go to the replica, `crash leader` to whichever one
        // says it leads now. (`campaign` and `crash clients` cannot be done
        // to a live cluster; such schedules are not `net_capable`.)
        let replica = |node: usize| servers.get(node).map(NodeServer::cluster);
        match plane.apply(&ev.fault) {
            Some(NodeAction::Crash(target)) => {
                let node = match target {
                    Target::Node(n) => Some(n as usize),
                    // A zero wait is one look at who leads now.
                    Target::Leader => await_leaders(&servers, Duration::ZERO)
                        .ok()
                        .and_then(|l| l.first().copied()),
                    Target::Clients => None,
                };
                node.and_then(replica).into_iter().for_each(|r| r.crash(0));
            }
            Some(NodeAction::Recover(n)) => {
                replica(n as usize).into_iter().for_each(|r| r.restart(0))
            }
            Some(NodeAction::Campaign(_)) | None => {}
        }
    }
    // Let traffic continue for the rest of the scenario's nominal length.
    let total = Duration::from_millis(s.duration_ms);
    let elapsed = t0.elapsed();
    if total > elapsed {
        std::thread::sleep(total - elapsed);
    }
    stop.store(true, Ordering::Relaxed);
    for t in client_threads {
        let _ = t.join();
    }

    // Convergence poll: within the bounded recovery window every replica
    // must be alive, exactly one leader, terms equal, and commit == applied
    // everywhere with equal state-machine digests.
    let deadline = Instant::now() + Duration::from_millis(s.recovery_ms());
    let mut rows: Vec<NodeStatus>;
    let mut digests: BTreeSet<u32>;
    let mut converged;
    loop {
        rows = servers.iter().map(|srv| srv.cluster().status(0)).collect();
        digests =
            servers.iter().map(|srv| crc32(&srv.cluster().machine(0).lock().snapshot())).collect();
        converged = rows.iter().all(|r| r.alive)
            && rows.iter().filter(|r| r.is_leader).count() == 1
            && rows.iter().all(|r| r.term == rows[0].term && r.commit == rows[0].commit)
            && rows.iter().all(|r| r.applied == r.commit)
            && digests.len() == 1
            && (!s.expect_progress || min_live_commit(&rows) > 0);
        if converged || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    v.check(
        "recovery-converged",
        converged,
        format!("within {}ms of schedule end", s.recovery_ms()),
    );
    // Probe evidence: election-safety is term-keyed, so the members' events
    // need no clock alignment for the oracle itself.
    let trace: Vec<TraceEvent> = buffer.take();
    let commits: BTreeSet<u64> = rows.iter().map(|r| r.commit).collect();
    let convergence = Check {
        name: "state-convergence".into(),
        pass: commits.len() <= 1 && digests.len() <= 1,
        detail: format!("commits: {commits:?}, digests: {digests:?}"),
    };
    let total_acked = acked.load(Ordering::Relaxed);
    end_state(&mut v, &trace, &rows, convergence, s.expect_progress.then_some(total_acked));
    v.metric("acked", total_acked as f64);
    v.metric("final_commit", commits.iter().max().copied().unwrap_or(0) as f64);

    // Span-tree artifact on failure: align the per-replica clocks off the
    // transport's Ping/Pong samples, then persist every assembled op span
    // so the failing schedule can be replayed against real latencies.
    if !v.pass() {
        if let Some(dir) = span_dir {
            let align = nbr_obs::ClockAlign::estimate(&trace);
            let aligned = align.apply(&trace);
            let spans = nbr_obs::collect(&aligned);
            let path = dir.join(format!("{}-spans.jsonl", s.name));
            let ok = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, nbr_obs::spans_jsonl(&spans)))
                .is_ok();
            if ok {
                v.metric("span_artifact_ops", spans.len() as f64);
            }
        }
    }

    drop(servers);
    let _ = std::fs::remove_dir_all(scratch);
    v
}

/// `schedule` with every node id it names rotated so that its node 0, the
/// sim's bootstrap leader, is replica `leader` of `n`: `i → (leader + i) % n`.
fn rotated(mut schedule: Schedule, leader: u32, n: u32) -> Schedule {
    for ev in &mut schedule.events {
        ev.fault.nodes_mut().into_iter().for_each(|id| *id = (leader + *id) % n);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_puts_scenario_node_zero_on_the_elected_leader() {
        let text =
            "at 1ms partition {0}|{1,2}\nat 2ms crash 0\nat 3ms crash leader\nat 4ms recover 2\n";
        let s = Schedule::parse(text).expect("parse");
        let want =
            "at 1ms partition {2}|{0,1}\nat 2ms crash 2\nat 3ms crash leader\nat 4ms recover 1\n";
        assert_eq!(rotated(s.clone(), 2, 3).render(), want);
        assert_eq!(rotated(s.clone(), 0, 3), s, "leader 0: the schedule as written");
    }
}

//! The curated scenario corpus.
//!
//! Each scenario names a fault pattern from the chaos-engineering
//! literature on Raft deployments (asymmetric partitions, gray links,
//! clock skew, slow disks, crash-recovery, duplicate leaders) expressed in
//! the schedule DSL, plus which oracles apply. The same scenario text
//! drives both backends; `nbraft-cli chaos list` prints this table.

use crate::schedule::{Fault, Schedule};
use nbr_types::Target;

/// A named chaos scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (CLI argument, JSONL key).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Replication group size.
    pub nodes: u32,
    /// Closed-loop clients.
    pub clients: usize,
    /// Non-blocking window size for the main run.
    pub window: usize,
    /// Total run length (virtual ms in the sim; the net backend runs the
    /// schedule in real time and then polls convergence within
    /// [`Scenario::recovery_ms`]).
    pub duration_ms: u64,
    /// The fault schedule (DSL text).
    pub schedule: &'static str,
    /// Require `confirmed > 0` (client progress) at the end.
    pub expect_progress: bool,
    /// Require the gap-hint repair path to have fired (gray-link runs; this
    /// is the regression canary for the window-gap repair fix).
    pub expect_gap_hints: bool,
    /// Run a paired window-0 (blocking) sim and assert `t_wait` separation.
    pub check_twait: bool,
    /// Member of the quick net smoke tier in CI.
    pub net_smoke: bool,
}

impl Scenario {
    /// Parse this scenario's schedule (corpus text is validated by tests,
    /// so this cannot fail for shipped scenarios).
    pub fn parsed(&self) -> Schedule {
        Schedule::parse(self.schedule).expect("corpus schedule parses")
    }

    /// Whether the net backend can carry out every fault in the schedule:
    /// all but `campaign`, which needs a hand inside the engine, and
    /// `crash clients`, whose client machine only the sim models.
    pub fn net_capable(&self) -> bool {
        !self.parsed().events.iter().any(|e| {
            matches!(e.fault, Fault::Campaign { .. } | Fault::Crash { target: Target::Clients })
        })
    }

    /// Bounded recovery window after the last scheduled fault within which
    /// the liveness oracles must hold (net backend poll budget).
    pub fn recovery_ms(&self) -> u64 {
        // Several election timeouts (150–300ms) plus catch-up replication.
        4_000
    }
}

/// The full corpus.
pub fn corpus() -> Vec<Scenario> {
    let base = Scenario {
        name: "",
        about: "",
        nodes: 3,
        clients: 16,
        window: 256,
        duration_ms: 2_400,
        schedule: "",
        expect_progress: true,
        expect_gap_hints: false,
        check_twait: false,
        net_smoke: false,
    };
    vec![
        Scenario {
            name: "follower-isolated",
            about: "symmetric minority partition: one follower cut off, then healed",
            schedule: "at 300ms partition {1}|{0,2}\nat 900ms heal\n",
            net_smoke: true,
            ..base.clone()
        },
        Scenario {
            name: "leader-isolated",
            about: "symmetric partition of the bootstrap leader: duplicate-leader window, re-election, stale leader steps down on heal",
            schedule: "at 300ms partition {0}|{1,2}\nat 1100ms heal\n",
            duration_ms: 2_800,
            ..base.clone()
        },
        Scenario {
            name: "split-asymmetric",
            about: "one-way partition: the leader can send nothing but still hears the cluster",
            schedule: "at 300ms partition {0}->{1,2}\nat 1000ms heal\n",
            duration_ms: 2_600,
            ..base.clone()
        },
        Scenario {
            name: "gray-link-leader",
            about: "lossy+laggy leader/follower link: window absorbs gaps, gap-hint repair fires",
            schedule: "at 200ms graylink 0<->1 drop 25% delay 3ms\nat 1600ms heal\n",
            expect_gap_hints: true,
            check_twait: true,
            net_smoke: true,
            ..base.clone()
        },
        Scenario {
            name: "gray-link-mesh",
            about: "every link mildly lossy: sustained reordering across the whole mesh",
            schedule: "at 200ms graylink 0<->1 drop 12%\nat 200ms graylink 0<->2 drop 12%\nat 200ms graylink 1<->2 drop 12%\nat 1600ms heal\n",
            // No check_twait here: with every link lossy, window-0 runs
            // reject out-of-order entries outright (near-zero recorded
            // wait) while windowed runs park them for repair, so the
            // per-entry wait comparison inverts. Throughput, not t_wait,
            // is the meaningful axis on this scenario.
            ..base.clone()
        },
        Scenario {
            name: "clock-skew-follower",
            about: "one follower's clock runs 400ms ahead: spurious campaigns must not break safety",
            schedule: "at 300ms skew 2 +400ms\n",
            ..base.clone()
        },
        Scenario {
            name: "clock-skew-leader",
            about: "the leader's clock runs 400ms ahead",
            schedule: "at 300ms skew 0 +400ms\n",
            ..base.clone()
        },
        Scenario {
            name: "slow-disk-follower",
            about: "one follower's WAL stalls 3ms per write, then heals",
            schedule: "at 300ms slow-disk 1 3ms\nat 1400ms heal-disk 1\n",
            ..base.clone()
        },
        Scenario {
            name: "slow-disk-leader",
            about: "the leader's WAL stalls 3ms per write, then heals",
            schedule: "at 300ms slow-disk 0 3ms\nat 1400ms heal-disk 0\n",
            ..base.clone()
        },
        Scenario {
            name: "crash-recover-follower",
            about: "kill a follower mid-traffic, recover it from its durable log",
            schedule: "at 400ms crash 1\nat 1100ms recover 1\n",
            duration_ms: 2_600,
            net_smoke: true,
            ..base.clone()
        },
        Scenario {
            name: "crash-recover-leader",
            about: "kill the leader mid-commit, re-elect, recover it as a follower",
            schedule: "at 400ms crash 0\nat 1100ms recover 0\n",
            duration_ms: 2_800,
            ..base.clone()
        },
        Scenario {
            name: "rolling-restarts",
            about: "two followers crash and recover in sequence",
            schedule: "at 300ms crash 1\nat 800ms recover 1\nat 1000ms crash 2\nat 1500ms recover 2\n",
            duration_ms: 2_800,
            ..base.clone()
        },
        Scenario {
            name: "flapping-partition",
            about: "short alternating minority partitions",
            schedule: "at 300ms partition {1}|{0,2}\nat 500ms heal\nat 700ms partition {2}|{0,1}\nat 900ms heal\n",
            ..base.clone()
        },
        Scenario {
            name: "campaign-storm",
            about: "stale-configuration probe: forced elections on two followers in sequence",
            schedule: "at 400ms campaign 1\nat 800ms campaign 2\n",
            ..base.clone()
        },
        Scenario {
            name: "gray-plus-crash",
            about: "combined fault: gray leader link while another follower crash-recovers",
            schedule: "at 200ms graylink 0<->2 drop 20%\nat 600ms crash 1\nat 1200ms recover 1\nat 1500ms heal\n",
            duration_ms: 2_800,
            ..base
        },
    ]
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    corpus().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_schedules_parse_and_fit() {
        let all = corpus();
        assert!(all.len() >= 12, "corpus has {} scenarios", all.len());
        for s in &all {
            let sched = s.parsed();
            assert!(sched.max_node() < s.nodes, "{}: node id out of range", s.name);
            assert!(
                sched.end().as_nanos() / 1_000_000 < s.duration_ms,
                "{}: schedule outlives the run",
                s.name
            );
            // Render round-trip holds for every shipped schedule.
            assert_eq!(Schedule::parse(&sched.render()).expect("reparse"), sched, "{}", s.name);
        }
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        assert!(all.iter().filter(|s| s.net_smoke).all(Scenario::net_capable));
        let sim_only: Vec<_> = all.iter().filter(|s| !s.net_capable()).map(|s| s.name).collect();
        assert_eq!(sim_only, ["campaign-storm"]);
    }

    #[test]
    fn a_client_crash_is_sim_only() {
        let base = find("crash-recover-leader").expect("in the corpus");
        assert!(base.net_capable());
        let s = Scenario { schedule: "at 400ms crash leader\nat 400ms crash clients\n", ..base };
        assert!(!s.net_capable());
    }
}

//! nbr-chaos: deterministic fault-schedule harness with post-scenario
//! invariant checking.
//!
//! A chaos run is `(scenario, seed) -> Verdict`. Scenarios are written in a
//! small line-oriented DSL ([`schedule`]) — partitions (symmetric or
//! one-way), gray links with probabilistic drop and added delay, clock
//! skew, slow disks, crashes with WAL recovery, and forced campaigns. The
//! DSL is the text form of [`Fault`] (`nbr_types::Fault`, re-exported here),
//! the workspace's one fault vocabulary, and what a fault *does* is
//! `nbr_types::FaultTable::apply` — so this crate holds the parser and
//! renderer, the corpus and the oracles, and no per-backend translation.
//! The same schedule drives two backends:
//!
//! * [`sim_backend`] hands the parsed `(time, Fault)` pairs to `nbr-sim`
//!   as they are and runs the discrete-event simulator: bit-deterministic
//!   (the seed-7 corpus verdicts are a committed golden), cheap enough for
//!   seed sweeps, with probe-trace election-safety checking, the
//!   simulator's exactly-once client oracle and paired window-0 `t_wait`
//!   comparisons.
//! * [`net_backend`] spawns real `nbr-net` TCP replicas with WAL storage
//!   and applies the schedule in wall-clock time to the cluster's shared
//!   `nbr_cluster::FaultPlane`, which the transports and replica loops
//!   read; only crash and recover are carried out here, on the replica.
//!
//! After every run the [`oracle`] checks judge the end state: election
//! safety, single-leader and term agreement among live nodes, committed
//! prefix / state-machine convergence within a bounded recovery window,
//! client progress, and (where the scenario demands it) gap-hint repair
//! activity and non-blocking `t_wait` separation. Verdicts serialize to
//! JSONL for CI artifacts; `nbraft-cli chaos` is the front end.

pub mod corpus;
pub mod net_backend;
pub mod oracle;
pub mod schedule;
pub mod sim_backend;

pub use corpus::{corpus, find, Scenario};
pub use net_backend::run_scenario_net;
pub use oracle::{write_jsonl, Check, Verdict};
pub use schedule::{Fault, Schedule, ScheduledFault};
pub use sim_backend::run_scenario_sim;

//! # nbr-core — the NB-Raft protocol family
//!
//! Sans-I/O state machines reproducing *"Non-Blocking Raft for High
//! Throughput IoT Data"* (ICDE 2023). One [`Node`] engine implements all
//! seven protocols of the paper's evaluation, selected via
//! [`nbr_types::ProtocolConfig`]:
//!
//! | Protocol | Window | Replication | Verification |
//! |---|---|---|---|
//! | Raft | 0 | full copies | – |
//! | NB-Raft | `w` | full copies | – |
//! | CRaft | 0 | RS fragments | – |
//! | NB-Raft + CRaft | `w` | RS fragments | – |
//! | ECRaft | 0 | RS fragments (adaptive) | – |
//! | KRaft | 0 | K-bucket relay | – |
//! | VGRaft | 0 | full copies | digest + signature |
//!
//! The original Raft really is the special case `w == 0` of the same code —
//! property tests in `tests/` assert trace equivalence.
//!
//! Key pieces:
//!
//! * [`window::SlidingWindow`] — the follower's out-of-order cache
//!   (Section III-A, Figures 6–9).
//! * [`votelist::VoteList`] — the leader's weak/strong vote tracking
//!   (Section III-B, Figures 10–12).
//! * [`client::RaftClient`] — the client's `opList`/`listTerm` retry logic
//!   (Section III-C).
//! * [`node::Node`] — the replica engine tying it together with elections,
//!   commit, catch-up repair, CRaft fragment recovery and VGRaft
//!   verification.
//!
//! The engine is driven by a harness: `nbr-sim` (deterministic discrete-event
//! simulation, used for the paper's figures) or `nbr-cluster` (real threads
//! and real crypto/coding work). It records protocol events into the one
//! probe type, [`EngineProbe`]: [`Node::new`] passes `Off`, and a harness
//! that traces hands [`Node::with_probe`] a `Shared` handle.

pub mod client;
pub mod event;
pub mod fragments;
pub mod node;
pub mod stats;
pub mod votelist;
pub mod window;

pub use client::{ClientAction, RaftClient};
pub use event::{coalesce_appends, settle_outputs, Output};
pub use nbr_obs::{EngineProbe, ProbeEvent};
pub use node::{Node, NodeStatus, Role};
pub use stats::NodeStats;
pub use votelist::{VoteList, VoteOutcome, VoteTuple};
pub use window::{SlidingWindow, WindowOutcome};

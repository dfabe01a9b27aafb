//! Observability for the NB-Raft reproduction.
//!
//! Four pieces, layered so the engine stays sans-I/O:
//!
//! - [`probe`]: the [`ProbeEvent`] taxonomy and the one probe,
//!   [`EngineProbe`], that `nbr_core::Node`, the transport and the harnesses
//!   record into: `Off` records nothing, `Shared` appends to the process's
//!   one trace buffer ([`SharedProbe`]).
//! - [`registry`]: named counters/gauges/histogram timers per node, with
//!   deterministic name-sorted [`Snapshot`]s.
//! - [`export`]: the snapshot renderer — Prometheus text exposition.
//! - [`trace`] + [`analyze`](mod@analyze): the JSONL trace format and its replay into
//!   per-entry timelines and the `t_wait(F)` report (`nbraft-cli trace`).
//! - [`span`]: cross-node span assembly — keepalive-based clock alignment,
//!   per-op span trees and the critical-path phase report
//!   (`nbraft-cli trace --critical-path`).
//! - [`shard`]: the group namespace of node ids that
//!   [`EngineProbe::in_group`] records under, keeping the span assembler's
//!   `(node, index)` joins exact when one process hosts a replica of every
//!   Raft group.

pub mod analyze;
pub mod export;
pub mod probe;
pub mod registry;
pub mod shard;
pub mod span;
pub mod trace;

pub use analyze::{analyze, timelines, Lifecycle, TraceReport};
pub use probe::{EngineProbe, ProbeEvent, SharedProbe, TraceEvent};
pub use registry::{Counter, Gauge, Registry, Snapshot, Timer, TimerStats};
pub use shard::{group_node, node_group, GROUP_NODE_STRIDE};
pub use span::{collect, critical_path, spans_jsonl, ClockAlign, CriticalPath, OpSpan};

//! Observability for the NB-Raft reproduction.
//!
//! Four pieces, layered so the engine stays sans-I/O:
//!
//! - [`probe`]: the [`Probe`] trait and [`ProbeEvent`] taxonomy that
//!   `nbr_core::Node` emits into. [`NoProbe`] (the engine default) compiles
//!   to a no-op; [`EngineProbe`]/[`SharedProbe`] buffer events for harnesses.
//! - [`registry`]: named counters/gauges/histogram timers per node, with
//!   deterministic name-sorted [`Snapshot`]s.
//! - [`export`]: the snapshot renderer — Prometheus text exposition.
//! - [`trace`] + [`analyze`]: the JSONL trace format and its replay into
//!   per-entry timelines and the `t_wait(F)` report (`nbraft-cli trace`).
//! - [`span`]: cross-node span assembly — keepalive-based clock alignment,
//!   per-op span trees and the critical-path phase report
//!   (`nbraft-cli trace --critical-path`).
//! - [`shard`]: group namespacing for merged multi-group traces, keeping
//!   the span assembler's `(node, index)` joins exact when one process
//!   hosts a replica of every Raft group.

pub mod analyze;
pub mod export;
pub mod probe;
pub mod registry;
pub mod shard;
pub mod span;
pub mod trace;

pub use analyze::{analyze, timelines, Lifecycle, TraceReport};
pub use probe::{EngineProbe, NoProbe, Probe, ProbeEvent, SharedProbe, TraceBuffer, TraceEvent};
pub use registry::{Counter, Gauge, Registry, Snapshot, Timer, TimerStats};
pub use shard::{group_node, namespace_events, node_group, GROUP_NODE_STRIDE};
pub use span::{collect, critical_path, spans_jsonl, ClockAlign, CriticalPath, OpSpan};

//! Storage substrate for the NB-Raft reproduction.
//!
//! Provides the pieces the paper's deployment takes from Apache IoTDB:
//!
//! * [`log::LogStore`] — a replica's whole durable state: the replicated
//!   log, the Raft hard state (term, vote) and the snapshot the compacted
//!   prefix became. [`log::MemLog`] is the volatile store (used by the
//!   simulator, where a clone is a crashed replica's durable image) and
//!   [`wal::WalLog`] the durable, crash-recovering one (used by the
//!   real-thread cluster).
//! * [`state_machine::StateMachine`] — deterministic apply with per-client
//!   request deduplication; [`state_machine::KvStore`] for convergence tests
//!   and [`tsdb::TsStore`], a memtable-plus-chunks time-series store standing
//!   in for IoTDB's ingestion engine.

pub mod log;
pub mod state_machine;
pub mod tsdb;
pub mod wal;

pub use log::{LogStore, MemLog};
pub use state_machine::{DedupTable, KvStore, StateMachine};
pub use tsdb::{decode_batch, encode_batch, Point, TsStore, POINT_BYTES};
pub use wal::{SyncPolicy, WalLog};

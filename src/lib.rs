//! # nbraft — Non-Blocking Raft for high-throughput IoT data
//!
//! A from-scratch Rust reproduction of *"Non-Blocking Raft for High
//! Throughput IoT Data"* (ICDE 2023): the NB-Raft protocol, the original
//! Raft baseline it generalizes, the comparator protocols it is evaluated
//! against (CRaft, ECRaft, KRaft, VGRaft), and the full evaluation harness —
//! a deterministic discrete-event simulator that regenerates every figure of
//! the paper, plus a real-thread cluster runtime with durable storage and
//! fault injection.
//!
//! This facade re-exports the workspace crates under stable paths:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `nbr-types` | ids, entries, messages, config, wire codec |
//! | [`core`] | `nbr-core` | sans-I/O protocol engines + client |
//! | [`storage`] | `nbr-storage` | logs, WAL, snapshots, KV/time-series state machines |
//! | [`erasure`] | `nbr-erasure` | GF(2^8) Reed–Solomon (CRaft family) |
//! | [`crypto`] | `nbr-crypto` | SHA-256 / HMAC / signatures (VGRaft) |
//! | [`petri`] | `nbr-petri` | timed Petri nets + the paper's Figure 3 model |
//! | [`sim`] | `nbr-sim` | discrete-event cluster simulator |
//! | [`cluster`] | `nbr-cluster` | real-thread cluster runtime |
//! | [`workload`] | `nbr-workload` | TPCx-IoT-style generators |
//! | [`metrics`] | `nbr-metrics` | latency histograms |
//!
//! ## Quickstart
//!
//! ```no_run
//! use nbraft::cluster::{Cluster, ClusterConfig};
//! use nbraft::storage::KvStore;
//! use std::time::Duration;
//!
//! // A 3-replica NB-Raft cluster with real threads.
//! let cluster: Cluster<KvStore> = Cluster::spawn(3, ClusterConfig::default());
//! cluster.wait_for_leader(Duration::from_secs(5)).expect("leader elected");
//! let mut client = cluster.client();
//! let (req, weak) = client
//!     .submit(bytes::Bytes::from_static(b"temperature=21.5"), Duration::from_secs(5))
//!     .expect("replicated");
//! println!("request {req:?} acknowledged (weak early-return: {weak})");
//! ```
//!
//! See `examples/` for complete scenarios and `crates/bench` for the
//! paper-figure regeneration harness.

pub use nbr_cluster as cluster;
pub use nbr_core as core;
pub use nbr_crypto as crypto;
pub use nbr_erasure as erasure;
pub use nbr_metrics as metrics;
pub use nbr_obs as obs;
pub use nbr_petri as petri;
pub use nbr_sim as sim;
pub use nbr_storage as storage;
pub use nbr_types as types;
pub use nbr_workload as workload;

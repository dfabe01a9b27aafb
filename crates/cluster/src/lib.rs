//! Real-thread in-process cluster runtime for the NB-Raft protocol family.
//!
//! Each replica runs on its own OS thread with real storage (optionally a
//! crash-recovering WAL), real Reed–Solomon/SHA-256 work, and an in-process
//! [`network::Network`] with seeded delay jitter and drops, plus whatever the
//! cluster's shared [`FaultPlane`] injects at runtime (cuts, gray links,
//! clock skew, disk stalls — the same `nbr_types::Fault`s the simulator takes). Use
//! this harness to *demonstrate* the system (examples, integration tests,
//! failure drills); use `nbr-sim` to *measure* it at paper scale.

pub mod client;
pub mod cluster;
pub mod faults;
pub mod network;
pub mod sync;
pub mod transport;

pub use client::{ClientDriver, ClientLink};
pub use cluster::{
    compress_strong_resps, Cluster, ClusterClient, ClusterConfig, ClusterLink, StorageMode,
};
pub use faults::FaultPlane;
pub use nbr_core::NodeStatus;
pub use network::{NetConfig, Network, Packet, CLIENT_ENDPOINT};
pub use transport::{Endpoints, Transport, TransportInboxes, NODE_INBOX_DEPTH};

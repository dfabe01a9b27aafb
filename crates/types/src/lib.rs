//! Core types shared by every NB-Raft crate.
//!
//! This crate defines the vocabulary of the system reproduced from the paper
//! *"Non-Blocking Raft for High Throughput IoT Data"* (ICDE 2023):
//!
//! * identifiers ([`NodeId`], [`ClientId`], [`Term`], [`LogIndex`]),
//! * log entries ([`Entry`], [`Payload`], [`Fragment`]),
//! * protocol messages exchanged between replicas ([`Message`]) and between
//!   clients and the leader ([`ClientRequest`], [`ClientResponse`]),
//! * the accept states that distinguish NB-Raft from Raft
//!   ([`AcceptState::Weak`] vs [`AcceptState::Strong`]),
//! * protocol configuration ([`ProtocolConfig`], [`Protocol`]) covering all
//!   seven evaluated protocols (Raft, NB-Raft, CRaft, NB-Raft + CRaft,
//!   ECRaft, KRaft, VGRaft),
//! * a simulation-friendly clock ([`Time`], [`TimeDelta`]),
//! * the fault vocabulary and its interpreter ([`Fault`], [`FaultTable`]):
//!   injected loss, delay, partition, skew and disk stall as plain data,
//! * a hand-rolled, length-checked binary [`wire`] codec with CRC32 framing.
//!
//! Everything here is I/O-free and deterministic so the same types serve the
//! discrete-event simulator (`nbr-sim`) and the real-thread cluster runtime
//! (`nbr-cluster`).

pub mod checksum;
pub mod config;
pub mod entry;
pub mod error;
pub mod fault;
pub mod ids;
pub mod message;
pub mod netframe;
pub mod time;
pub mod wire;

pub use config::{Protocol, ProtocolConfig, ReplicationMode, TimeoutConfig};
pub use entry::{Entry, Fragment, Origin, Payload};
pub use error::{Error, Result};
pub use fault::{Fault, FaultTable, LinkFault, NodeAction, Target};
pub use ids::{ClientId, LogIndex, NodeId, RequestId, Term};
pub use message::{
    AcceptState, AppendEntryMsg, AppendRespMsg, ClientRequest, ClientResponse, HeartbeatMsg,
    HeartbeatRespMsg, InstallSnapshotMsg, InstallSnapshotRespMsg, Message, PullFragmentsMsg,
    PushFragmentsMsg, ReadIndexReqMsg, ReadIndexRespMsg, RequestVoteMsg, RequestVoteRespMsg,
    Verification, MAX_APPEND_BATCH,
};
pub use netframe::{HelloMsg, NetFrame, PeerKind, MAX_GROUPS, NET_PROTOCOL_VERSION};
pub use time::{Time, TimeDelta};

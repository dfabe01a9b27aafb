//! # nbr-net — real TCP transport and multi-process cluster runtime
//!
//! Everything below `nbr-cluster` in this workspace is sans-I/O; this
//! crate is where NB-Raft meets actual sockets. It provides:
//!
//! * [`TcpTransport`] — an implementation of [`nbr_cluster::Transport`]
//!   carrying the standard `len || crc || body` wire framing (via the
//!   [`nbr_types::netframe::NetFrame`] envelope) over per-peer TCP
//!   connections: supervised reconnect with capped exponential backoff and
//!   jitter, frames written by the thread that makes them on a healthy idle
//!   link (each write bounded by a few-ms stall limit) and otherwise by the
//!   link's writer thread through a bounded queue with write coalescing and
//!   explicit drop accounting, keepalives, handshake validation. One
//!   transport carries every Raft group a process hosts: the group is part
//!   of the address, and the group count is the number of inbox sets it
//!   was built over. Network emulation and chaos are one mechanism: each
//!   send and each writer wake-up reads one [`nbr_types::LinkFault`] — the
//!   configured baseline ([`TcpConfig::baseline`]) under this direction's
//!   row of the cluster's shared [`nbr_cluster::FaultPlane`], if any —
//!   and emulates the link as a pipe: loss is decided per frame, and each
//!   frame is delivered `delay` after it is sent, in order.
//! * [`NodeServer`] — the one-process-per-node runtime behind
//!   `nbraft-cli serve [--groups N]`: this node's replica of each of N
//!   groups (one by default), each the unmodified `nbr-cluster` replica
//!   loop, all on one transport. Traced, every group and the transport
//!   record into the one buffer of the caller's `ClusterConfig::probe`,
//!   group `g` through its `in_group(g)` handle, and the caller drains the
//!   `SharedProbe` it made. [`NodeServer::spawn_loopback`] +
//!   [`await_leaders`] bring a whole membership up inside one process
//!   (tests, `bench-net`, the chaos net backend).
//! * [`NetClient`] — a synchronous client that drives the sans-I/O
//!   [`nbr_core::RaftClient`] engine over one TCP connection to its current
//!   target, read by the calling thread, preserving NB-Raft's
//!   opList/listTerm retry semantics across leader failures.
//! * [`MetricsServer`] — a minimal HTTP endpoint exposing replica and
//!   transport metrics in Prometheus text format.
//!
//! The same [`nbr_cluster::Cluster`] drives simulations over the
//! in-process router and real deployments over this transport; the only
//! difference is the transport handed to `Cluster::spawn_on`.

pub mod client;
pub(crate) mod clock;
mod delay_line;
pub mod metrics;
pub mod server;
pub mod transport;

pub use client::NetClient;
pub use metrics::MetricsServer;
pub use server::{await_leaders, Members, NodeServer, ServeConfig};
pub use transport::{TcpConfig, TcpTransport};

//! Measurement utilities for the NB-Raft reproduction.
//!
//! All the paper's figures report throughput (Kop/s) and latency (ms)
//! series; this crate provides the fixed-memory [`Histogram`] and the
//! [`Throughput`] tracker.

pub mod histogram;
pub mod throughput;

pub use histogram::Histogram;
pub use throughput::Throughput;

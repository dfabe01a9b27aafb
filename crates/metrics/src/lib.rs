//! Measurement utilities for the NB-Raft reproduction.
//!
//! All the paper's figures report throughput (Kop/s) and latency (ms)
//! series; this crate provides the fixed-memory latency [`Histogram`]
//! (throughput is a completion count over the run's duration, which each
//! harness keeps itself).

pub mod histogram;

pub use histogram::Histogram;

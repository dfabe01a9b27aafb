//! Deterministic discrete-event simulation of NB-Raft clusters.
//!
//! This crate is the evaluation substrate of the reproduction: it runs the
//! *real* protocol engines from `nbr-core` over modelled network/CPU
//! resources, reproducing the conditions of the paper's testbed (10 Gb/s
//! LAN with up to 1024 client threads; Alibaba Cloud geo-distribution) that
//! a single development machine cannot provide physically.
//!
//! * [`cost::CostModel`] — Table I service costs and resource capacities.
//! * [`cost::GeoMatrix`] — the five-city latency matrix of Section V-H.
//! * [`driver::SimConfig`] / [`driver::run`] — one experiment run, yielding
//!   throughput, latency percentiles, `t_wait(F)`, and failure-loss figures.
//!
//! Every run is deterministic given its seed.

pub mod cost;
pub mod driver;

pub use cost::{CostModel, GeoMatrix};
pub use driver::{run, SimConfig, SimResult, Simulator};

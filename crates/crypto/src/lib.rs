//! Cryptographic primitives for the VGRaft baseline, built from scratch.
//!
//! VGRaft (Zhou & Ying, ICCT'21) hardens Raft against Byzantine faults by
//! hashing and signing every entry and having a per-round *verification
//! group* check the signatures. The paper under reproduction shows this
//! computational overhead makes VGRaft the slowest protocol in every
//! throughput figure. To charge that cost honestly, the real-thread cluster
//! harness computes real SHA-256 digests and MACs via this crate.
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (NIST-vector tested).
//! * [`hmac`] — HMAC-SHA256 (RFC 4231-vector tested).
//! * [`sign`] — derived-key signature scheme: a verifier derives the
//!   signer's key from the cluster secret and the signer's node id.

pub mod hmac;
pub mod sha256;
pub mod sign;

pub use hmac::{hmac_sha256, mac_eq};
pub use sha256::{sha256, Sha256};
pub use sign::{Keypair, Signature};

//! Tier-1 runs of the hot-path property tests. `cargo test -q` at the
//! workspace root builds only this package, so the crates' own test files
//! for the CRC32 kernel (property test + pinned wire frame), the replica
//! loop's inbound compression and the outbound step every harness applies
//! are compiled in here as modules; `cargo test --workspace` also runs them
//! in their home crates.

#[path = "../crates/types/tests/checksum_proptest.rs"]
mod checksum_proptest;

#[path = "../crates/cluster/tests/compress_proptest.rs"]
mod compress_proptest;

#[path = "../crates/core/tests/settle_proptest.rs"]
mod settle_proptest;

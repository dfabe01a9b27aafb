//! Tier-1 runs of the hot-path property tests. `cargo test -q` at the
//! workspace root builds only this package, so the crates' own test files
//! for the CRC32 kernel (property test + pinned wire frame) and the replica
//! loop's compression passes are compiled in here as modules; `cargo test
//! --workspace` also runs them in their home crates.

#[path = "../crates/types/tests/checksum_proptest.rs"]
mod checksum_proptest;

#[path = "../crates/cluster/tests/compress_proptest.rs"]
mod compress_proptest;

//! Microbenchmarks of the built-from-scratch substrates: Reed–Solomon
//! coding, SHA-256/HMAC and CRC32. These quantify the CPU costs the
//! simulator charges (CostModel calibration inputs). The wire codec is
//! measured by the repository benchmark's `types.encode/decode_ns_*` probes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nbr_crypto::{hmac_sha256, sha256};
use nbr_erasure::ReedSolomon;
use nbr_types::checksum::crc32;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

fn bench_reed_solomon(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed_solomon");
    for &size in &[1024usize, 4096, 65536, 131072] {
        let data = payload(size);
        g.throughput(Throughput::Bytes(size as u64));
        // The paper's default group: 3 replicas → RS(2, 3).
        let rs = ReedSolomon::new(2, 3).unwrap();
        g.bench_with_input(BenchmarkId::new("encode_2of3", size), &data, |b, d| {
            b.iter(|| rs.encode(d));
        });
        let shards = rs.encode(&data);
        let subset = vec![shards[1].clone(), shards[2].clone()];
        g.bench_with_input(BenchmarkId::new("reconstruct_parity", size), &subset, |b, s| {
            b.iter(|| rs.reconstruct(s, size).unwrap());
        });
        // A 9-replica group: RS(5, 9), the paper's largest.
        let rs9 = ReedSolomon::new(5, 9).unwrap();
        g.bench_with_input(BenchmarkId::new("encode_5of9", size), &data, |b, d| {
            b.iter(|| rs9.encode(d));
        });
    }
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    for &size in &[1024usize, 4096, 65536] {
        let data = payload(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d));
        });
        g.bench_with_input(BenchmarkId::new("hmac_sha256", size), &data, |b, d| {
            b.iter(|| hmac_sha256(b"cluster-key", d));
        });
    }
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    // The frame sizes the TCP workloads actually checksum: acks and
    // heartbeats, 256 B appends, the paper's 4 KiB records, batched frames.
    let mut g = c.benchmark_group("crc32");
    for &size in &[64usize, 256, 4096, 65536] {
        let data = payload(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("crc32", size), &data, |b, d| {
            b.iter(|| crc32(d));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_reed_solomon, bench_crypto, bench_crc32);
criterion_main!(benches);

//! Microbenchmarks of the built-from-scratch substrates: Reed–Solomon
//! coding, SHA-256/HMAC, CRC32 and the wire codec. These quantify the CPU
//! costs the simulator charges (CostModel calibration inputs).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nbr_crypto::{hmac_sha256, sha256};
use nbr_erasure::ReedSolomon;
use nbr_types::checksum::crc32;
use nbr_types::wire::{decode_frame, decode_frame_shared, encode_frame, encode_frame_into};
use nbr_types::*;

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

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    for &size in &[128usize, 4096, 65536] {
        let msg = Message::AppendEntry(AppendEntryMsg {
            term: Term(3),
            leader: NodeId(0),
            entries: vec![Entry::data(
                LogIndex(42),
                Term(3),
                Term(2),
                Some(Origin { client: ClientId(7), request: RequestId(9) }),
                Bytes::from(payload(size)),
            )],
            leader_commit: LogIndex(40),
            verification: None,
            relay_to: vec![],
        });
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("encode", size), &msg, |b, m| {
            b.iter(|| encode_frame(m));
        });
        // Amortized encode: the reusable output buffer skips the per-frame
        // allocation — this is what the transport's writer loop does.
        g.bench_with_input(BenchmarkId::new("encode_into_reused", size), &msg, |b, m| {
            let mut buf = Vec::with_capacity(size + 256);
            b.iter(|| {
                buf.clear();
                encode_frame_into(m, &mut buf);
                buf.len()
            });
        });
        let frame = encode_frame(&msg);
        g.bench_with_input(BenchmarkId::new("decode", size), &frame, |b, f| {
            b.iter(|| decode_frame::<Message>(f).unwrap().unwrap());
        });
        let shared = Bytes::from(frame.clone());
        g.bench_with_input(BenchmarkId::new("decode_shared", size), &shared, |b, f| {
            b.iter(|| decode_frame_shared::<Message>(f, usize::MAX).unwrap().unwrap());
        });
    }
    g.finish();
}

fn bench_wire_batched(c: &mut Criterion) {
    // Batched appends: the hot-path frame shape after replication batching.
    let mut g = c.benchmark_group("wire_codec_batched");
    for &batch in &[1usize, 8, 64] {
        let entries: Vec<Entry> = (0..batch as u64)
            .map(|i| {
                Entry::data(
                    LogIndex(42 + i),
                    Term(3),
                    if i == 0 { Term(2) } else { Term(3) },
                    Some(Origin { client: ClientId(7), request: RequestId(9 + i) }),
                    Bytes::from(payload(256)),
                )
            })
            .collect();
        let msg = Message::AppendEntry(AppendEntryMsg {
            term: Term(3),
            leader: NodeId(0),
            entries,
            leader_commit: LogIndex(40),
            verification: None,
            relay_to: vec![],
        });
        g.throughput(Throughput::Bytes((batch * 256) as u64));
        g.bench_with_input(BenchmarkId::new("encode_into_reused", batch), &msg, |b, m| {
            let mut buf = Vec::with_capacity(batch * 512);
            b.iter(|| {
                buf.clear();
                encode_frame_into(m, &mut buf);
                buf.len()
            });
        });
        let shared = Bytes::from(encode_frame(&msg));
        g.bench_with_input(BenchmarkId::new("decode_shared", batch), &shared, |b, f| {
            b.iter(|| decode_frame_shared::<Message>(f, usize::MAX).unwrap().unwrap());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_reed_solomon,
    bench_crypto,
    bench_crc32,
    bench_wire,
    bench_wire_batched
);
criterion_main!(benches);

//! A small time-series store standing in for Apache IoTDB.
//!
//! The paper deploys NB-Raft as the consensus module of IoTDB, whose state
//! machine ingests batches of `(series, timestamp, value)` points and, like
//! IoTDB, "batches data in memory and flushes later" (Section II-F). This
//! module reproduces that shape: a per-series memtable absorbs appends and
//! is frozen into immutable sorted chunks past a size threshold.
//!
//! The ingestion payload format (produced by `nbr-workload`) is a flat batch:
//!
//! ```text
//! batch  := count:u32le  point*  padding*
//! point  := series:u64le  timestamp:u64le  value:f64le
//! ```
//!
//! Padding (to reach a target request size, as the TPCx-IoT-style workload
//! does) is ignored by the decoder.

use crate::state_machine::{DedupTable, StateMachine};
use bytes::Bytes;
use nbr_types::{Entry, LogIndex, Payload, Result};
use std::collections::BTreeMap;

/// One data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Series identifier (device × sensor).
    pub series: u64,
    /// Timestamp in milliseconds.
    pub timestamp: u64,
    /// Measured value.
    pub value: f64,
}

/// Size of one encoded point.
pub const POINT_BYTES: usize = 8 + 8 + 8;

/// Encode a batch of points, padding with zero bytes up to `min_len`.
pub fn encode_batch(points: &[Point], min_len: usize) -> Bytes {
    let mut out = Vec::with_capacity((4 + points.len() * POINT_BYTES).max(min_len));
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for p in points {
        out.extend_from_slice(&p.series.to_le_bytes());
        out.extend_from_slice(&p.timestamp.to_le_bytes());
        out.extend_from_slice(&p.value.to_le_bytes());
    }
    if out.len() < min_len {
        out.resize(min_len, 0);
    }
    Bytes::from(out)
}

/// Decode a batch; trailing padding is ignored.
pub fn decode_batch(data: &[u8]) -> Result<Vec<Point>> {
    let err = || nbr_types::Error::Storage("corrupt point batch".into());
    if data.len() < 4 {
        return Err(err());
    }
    let n = u32::from_le_bytes(data[..4].try_into().map_err(|_| err())?) as usize;
    if data.len() < 4 + n * POINT_BYTES {
        return Err(err());
    }
    let mut out = Vec::with_capacity(n);
    let mut pos = 4usize;
    for _ in 0..n {
        let series = u64::from_le_bytes(data[pos..pos + 8].try_into().map_err(|_| err())?);
        let timestamp = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().map_err(|_| err())?);
        let value = f64::from_le_bytes(data[pos + 16..pos + 24].try_into().map_err(|_| err())?);
        out.push(Point { series, timestamp, value });
        pos += POINT_BYTES;
    }
    Ok(out)
}

/// Immutable sorted run of `(timestamp, value)` pairs.
#[derive(Debug, Clone, Default)]
struct Chunk {
    points: Vec<(u64, f64)>,
}

/// Per-series storage: an active memtable plus frozen chunks.
#[derive(Debug, Clone, Default)]
struct Series {
    memtable: Vec<(u64, f64)>,
    chunks: Vec<Chunk>,
    count: u64,
}

/// The time-series state machine.
#[derive(Debug, Clone)]
pub struct TsStore {
    series: BTreeMap<u64, Series>,
    dedup: DedupTable,
    applied: LogIndex,
    /// Memtable points per series before a flush to a chunk.
    flush_threshold: usize,
    total_points: u64,
}

impl Default for TsStore {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl TsStore {
    /// Create with the given per-series memtable flush threshold.
    pub fn new(flush_threshold: usize) -> TsStore {
        TsStore {
            series: BTreeMap::new(),
            dedup: DedupTable::default(),
            applied: LogIndex::ZERO,
            flush_threshold: flush_threshold.max(1),
            total_points: 0,
        }
    }

    fn ingest(&mut self, p: Point) {
        let s = self.series.entry(p.series).or_default();
        s.memtable.push((p.timestamp, p.value));
        s.count += 1;
        self.total_points += 1;
        if s.memtable.len() >= self.flush_threshold {
            let mut run = std::mem::take(&mut s.memtable);
            run.sort_by_key(|&(ts, _)| ts);
            s.chunks.push(Chunk { points: run });
        }
    }

    /// Total ingested points across all series.
    pub fn total_points(&self) -> u64 {
        self.total_points
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Points ingested for one series.
    pub fn series_points(&self, series: u64) -> u64 {
        self.series.get(&series).map_or(0, |s| s.count)
    }

    /// Range query: all `(timestamp, value)` pairs of `series` with
    /// `start <= timestamp < end`, in timestamp order. This is the follower
    /// read path — the capability CRaft forfeits (paper Table II).
    pub fn query_range(&self, series: u64, start: u64, end: u64) -> Vec<(u64, f64)> {
        let Some(s) = self.series.get(&series) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, f64)> = Vec::new();
        for chunk in &s.chunks {
            // Chunks are sorted: binary search the window.
            let lo = chunk.points.partition_point(|&(ts, _)| ts < start);
            let hi = chunk.points.partition_point(|&(ts, _)| ts < end);
            out.extend_from_slice(&chunk.points[lo..hi]);
        }
        out.extend(s.memtable.iter().copied().filter(|&(ts, _)| ts >= start && ts < end));
        out.sort_by_key(|&(ts, _)| ts);
        out
    }

    /// Latest point of a series (max timestamp), if any.
    pub fn latest(&self, series: u64) -> Option<(u64, f64)> {
        let s = self.series.get(&series)?;
        let mem = s.memtable.iter().copied().max_by_key(|&(ts, _)| ts);
        let chunk =
            s.chunks.iter().filter_map(|c| c.points.last().copied()).max_by_key(|&(ts, _)| ts);
        match (mem, chunk) {
            (Some(a), Some(b)) => Some(if a.0 >= b.0 { a } else { b }),
            (a, b) => a.or(b),
        }
    }
}

impl StateMachine for TsStore {
    fn apply(&mut self, entry: &Entry) -> Bytes {
        assert!(
            entry.index > self.applied,
            "apply must be monotone: {} after {}",
            entry.index,
            self.applied
        );
        self.applied = entry.index;
        let Payload::Data(data) = &entry.payload else {
            return Bytes::new();
        };
        if let Some(origin) = entry.origin {
            if !self.dedup.insert(origin.client, origin.request) {
                return Bytes::from_static(b"dup");
            }
        }
        match decode_batch(data) {
            Ok(points) => {
                let n = points.len() as u32;
                for p in points {
                    self.ingest(p);
                }
                Bytes::from(n.to_le_bytes().to_vec())
            }
            Err(_) => Bytes::from_static(b"err"),
        }
    }

    fn applied_index(&self) -> LogIndex {
        self.applied
    }

    fn snapshot(&self) -> Bytes {
        // series count, then per series: id, point count, sorted points.
        let mut out = Vec::new();
        out.extend_from_slice(&(self.series.len() as u64).to_le_bytes());
        for (&id, s) in &self.series {
            let mut pts: Vec<(u64, f64)> = s
                .chunks
                .iter()
                .flat_map(|c| c.points.iter().copied())
                .chain(s.memtable.iter().copied())
                .collect();
            pts.sort_by_key(|&(ts, _)| ts);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(pts.len() as u64).to_le_bytes());
            for (ts, v) in pts {
                out.extend_from_slice(&ts.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Bytes::from(out)
    }

    fn dedup(&self) -> &DedupTable {
        &self.dedup
    }

    fn restore(&mut self, checkpoint: &Bytes, last_applied: LogIndex) -> Result<()> {
        let err = || nbr_types::Error::Storage("corrupt ts snapshot".into());
        let b = &checkpoint[..];
        if b.len() < 8 {
            return Err(err());
        }
        let nseries = u64::from_le_bytes(b[..8].try_into().map_err(|_| err())?);
        let mut pos = 8usize;
        let mut series = BTreeMap::new();
        let mut total = 0u64;
        for _ in 0..nseries {
            if b.len() < pos + 16 {
                return Err(err());
            }
            let id = u64::from_le_bytes(b[pos..pos + 8].try_into().map_err(|_| err())?);
            let npts =
                u64::from_le_bytes(b[pos + 8..pos + 16].try_into().map_err(|_| err())?) as usize;
            pos += 16;
            if b.len() < pos + npts * 16 {
                return Err(err());
            }
            let mut points = Vec::with_capacity(npts);
            for _ in 0..npts {
                let ts = u64::from_le_bytes(b[pos..pos + 8].try_into().map_err(|_| err())?);
                let v = f64::from_le_bytes(b[pos + 8..pos + 16].try_into().map_err(|_| err())?);
                points.push((ts, v));
                pos += 16;
            }
            total += npts as u64;
            series.insert(
                id,
                Series { memtable: Vec::new(), chunks: vec![Chunk { points }], count: npts as u64 },
            );
        }
        self.dedup = DedupTable::decode(&b[pos..]).ok_or_else(err)?;
        self.series = series;
        self.applied = last_applied;
        self.total_points = total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::Term;

    fn entry_with_points(i: u64, points: &[Point]) -> Entry {
        Entry::data(LogIndex(i), Term(1), Term(0), None, encode_batch(points, 0))
    }

    fn pt(series: u64, ts: u64, v: f64) -> Point {
        Point { series, timestamp: ts, value: v }
    }

    #[test]
    fn batch_codec_round_trip() {
        let pts = vec![pt(1, 100, 1.5), pt(2, 200, -3.25), pt(1, 101, f64::MAX)];
        let enc = encode_batch(&pts, 0);
        assert_eq!(decode_batch(&enc).unwrap(), pts);
    }

    #[test]
    fn batch_padding_respected_and_ignored() {
        let pts = vec![pt(1, 1, 2.0)];
        let enc = encode_batch(&pts, 4096);
        assert_eq!(enc.len(), 4096, "padded to request size");
        assert_eq!(decode_batch(&enc).unwrap(), pts);
    }

    #[test]
    fn corrupt_batch_rejected() {
        assert!(decode_batch(b"").is_err());
        assert!(decode_batch(&[9, 0, 0, 0, 1]).is_err(), "count larger than data");
    }

    #[test]
    fn ingest_and_query() {
        let mut ts = TsStore::new(4);
        let mut idx = 0;
        for t in 0..10u64 {
            idx += 1;
            ts.apply(&entry_with_points(idx, &[pt(7, t * 10, t as f64)]));
        }
        assert_eq!(ts.total_points(), 10);
        assert_eq!(ts.series_count(), 1);
        assert_eq!(ts.series_points(7), 10);
        let r = ts.query_range(7, 20, 60);
        assert_eq!(r, vec![(20, 2.0), (30, 3.0), (40, 4.0), (50, 5.0)]);
        assert_eq!(ts.latest(7), Some((90, 9.0)));
        assert!(ts.query_range(99, 0, 100).is_empty());
    }

    #[test]
    fn memtable_flush_preserves_query_results() {
        // Threshold 3 forces multiple chunk flushes; out-of-order timestamps
        // within the memtable must still come back sorted.
        let mut ts = TsStore::new(3);
        let stamps = [5u64, 1, 9, 2, 8, 3, 7, 4, 6];
        for (i, &s) in stamps.iter().enumerate() {
            ts.apply(&entry_with_points(i as u64 + 1, &[pt(1, s, s as f64)]));
        }
        let r = ts.query_range(1, 0, 100);
        let got: Vec<u64> = r.iter().map(|&(t, _)| t).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut ts = TsStore::new(2);
        for i in 1..=9u64 {
            ts.apply(&entry_with_points(i, &[pt(i % 3, i * 100, i as f64)]));
        }
        let mut fresh = TsStore::new(2);
        fresh.restore(&ts.checkpoint(), LogIndex(9)).unwrap();
        assert_eq!(fresh.total_points(), ts.total_points());
        assert_eq!(fresh.series_count(), ts.series_count());
        assert_eq!(fresh.query_range(1, 0, u64::MAX), ts.query_range(1, 0, u64::MAX));
        assert_eq!(fresh.checkpoint(), ts.checkpoint(), "the image is canonical");
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut ts = TsStore::default();
        assert!(ts.restore(&Bytes::from_static(b"xx"), LogIndex(1)).is_err());
        let mut good = TsStore::default();
        good.apply(&entry_with_points(1, &[pt(1, 1, 1.0)]));
        let snap = good.checkpoint();
        assert!(ts.restore(&snap.slice(..snap.len() - 3), LogIndex(1)).is_err());
    }

    #[test]
    fn duplicate_batches_are_deduped() {
        use nbr_types::{ClientId, Origin, RequestId};
        let mut ts = TsStore::default();
        let origin = Some(Origin { client: ClientId(1), request: RequestId(1) });
        let mk = |i: u64| {
            Entry::data(LogIndex(i), Term(1), Term(0), origin, encode_batch(&[pt(1, 1, 1.0)], 0))
        };
        ts.apply(&mk(1));
        let r = ts.apply(&mk(2));
        assert_eq!(&r[..], b"dup");
        assert_eq!(ts.total_points(), 1);
    }

    /// A replica restored from a snapshot skips the duplicates every other
    /// replica skips, and ends with the same image.
    #[test]
    fn a_restored_store_skips_a_duplicate_applied_before_its_snapshot() {
        use nbr_types::{ClientId, Origin, RequestId};
        let origin = Some(Origin { client: ClientId(7), request: RequestId(1) });
        let mk = |i: u64| {
            Entry::data(LogIndex(i), Term(1), Term(0), origin, encode_batch(&[pt(1, i, 1.0)], 0))
        };
        let mut ts = TsStore::default();
        ts.apply(&mk(1));
        let mut restored = TsStore::default();
        restored.restore(&ts.checkpoint(), LogIndex(1)).unwrap();
        assert_eq!(&restored.apply(&mk(2))[..], b"dup");
        assert_eq!(&ts.apply(&mk(2))[..], b"dup");
        assert_eq!(restored.total_points(), 1);
        assert_eq!(restored.checkpoint(), ts.checkpoint());
    }

    #[test]
    fn multi_point_batches() {
        let mut ts = TsStore::default();
        let pts: Vec<Point> = (0..100).map(|i| pt(i % 5, i, i as f64)).collect();
        ts.apply(&entry_with_points(1, &pts));
        assert_eq!(ts.total_points(), 100);
        assert_eq!(ts.series_count(), 5);
        assert_eq!(ts.series_points(0), 20);
    }
}

//! Facade-level integration of the storage stack: WAL crash recovery, the
//! compaction snapshot the WAL keeps as its prefix, and the time-series
//! machine working together the way a deployment would use them.

use bytes::Bytes;
use nbraft::storage::{encode_batch, LogStore, Point, StateMachine, SyncPolicy, TsStore, WalLog};
use nbraft::types::{ClientId, Entry, LogIndex, NodeId, Origin, RequestId, Term};
use nbraft::workload::{RequestGenerator, WorkloadConfig};

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("nbraft-stack-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn wal_plus_snapshot_restart_cycle() {
    let dir = tmp("cycle");
    let wal_path = dir.join("replica.wal");

    // Phase 1: ingest workload batches through the WAL into the TSDB.
    let mut gen = RequestGenerator::new(
        WorkloadConfig {
            devices: 3,
            sensors_per_device: 2,
            request_size: 512,
            sample_interval_ms: 50,
        },
        0,
        1,
    );
    let total_points;
    {
        let mut wal = WalLog::open(&wal_path, SyncPolicy::Never).unwrap();
        let mut ts = TsStore::new(8);
        for i in 1..=40u64 {
            let entry = Entry::data(
                LogIndex(i),
                Term(1),
                Term(if i == 1 { 0 } else { 1 }),
                None,
                gen.next_request(),
            );
            wal.append(entry.clone()).unwrap();
            ts.apply(&entry);
        }
        total_points = ts.total_points();
        // Snapshot at applied=25: the WAL folds its prefix into the image.
        let mut replay = TsStore::new(8);
        let mut idx = LogIndex(1);
        while idx <= LogIndex(25) {
            replay.apply(&wal.get(idx).unwrap());
            idx = idx.next();
        }
        wal.compact_to(LogIndex(25), replay.checkpoint()).unwrap();
        assert_eq!(wal.first_index(), LogIndex(26));
    } // "crash": everything volatile dropped

    // Phase 2: restart — restore the WAL's snapshot, replay its suffix.
    let wal = WalLog::open(&wal_path, SyncPolicy::Never).unwrap();
    let (last_index, last_term, image) = wal.snapshot().expect("snapshot exists");
    assert_eq!((last_index, last_term), (LogIndex(25), Term(1)));
    let mut ts = TsStore::new(8);
    ts.restore(&image, last_index).unwrap();
    assert_eq!(ts.applied_index(), LogIndex(25));
    let mut idx = last_index.next();
    while idx <= wal.last_index() {
        ts.apply(&wal.get(idx).unwrap());
        idx = idx.next();
    }
    assert_eq!(ts.applied_index(), LogIndex(40));
    assert_eq!(ts.total_points(), total_points, "no point lost across the restart");
    assert_eq!(ts.series_count(), 6);
    // Queries work over merged snapshot + replayed data.
    assert!(!ts.query_range(0, 0, u64::MAX).is_empty());
}

#[test]
fn tsdb_point_batches_round_trip_through_entries() {
    // The exact bytes a client submits are the bytes the machine decodes.
    let pts = vec![
        Point { series: 9, timestamp: 1111, value: 3.25 },
        Point { series: 9, timestamp: 2222, value: -7.5 },
    ];
    let payload = encode_batch(&pts, 256);
    assert_eq!(payload.len(), 256);
    let mut ts = TsStore::default();
    ts.apply(&Entry::data(LogIndex(1), Term(1), Term(0), None, payload));
    assert_eq!(ts.query_range(9, 0, 3000), vec![(1111, 3.25), (2222, -7.5)]);
}

#[test]
fn wal_record_from_the_bytewise_crc_build_replays_and_rewrites_identically() {
    // The file `WalLog` left at commit d854cb8 (PR 14, bytewise CRC) after
    // appending `entry` below: one 90-byte record, `len || crc || body`. A
    // kernel that computed any other CRC would drop it as a torn tail.
    const GOLDEN_WAL: &[u8] = b"\
        \x5a\x00\x00\x00\xaf\x42\x5c\xcd\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\
        \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x07\x00\x00\x00\x00\
        \x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x01\x28\x00\x00\x00\x07\x26\x45\x64\x83\
        \xa2\xc1\xe0\xff\x1e\x3d\x5c\x7b\x9a\xb9\xd8\xf7\x16\x35\x54\x73\x92\xb1\xd0\xef\x0e\
        \x2d\x4c\x6b\x8a\xa9\xc8\xe7\x06\x25\x44\x63\x82\xa1\xc0";
    let entry = Entry::data(
        LogIndex(1),
        Term(3),
        Term(0),
        Some(Origin { client: ClientId(7), request: RequestId(9) }),
        bytes::Bytes::from((0..40usize).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>()),
    );

    let dir = tmp("golden-wal");
    let old = dir.join("old.wal");
    std::fs::write(&old, GOLDEN_WAL).unwrap();
    let wal = WalLog::open(&old, SyncPolicy::Never).unwrap();
    assert_eq!(wal.last_index(), LogIndex(1));
    assert_eq!(wal.get(LogIndex(1)), Some(entry.clone()));
    assert_eq!(wal.file_len(), GOLDEN_WAL.len() as u64, "nothing truncated as torn");

    let new = dir.join("new.wal");
    WalLog::open(&new, SyncPolicy::Never).unwrap().append(entry).unwrap();
    assert_eq!(std::fs::read(&new).unwrap(), GOLDEN_WAL);

    // Every other record `WalLog` writes, as the hand-written record codec
    // laid them out: the `[hard state, snapshot]` prefix of a rewrite, two
    // appends, a truncation and a hard-state change.
    const GOLDEN_RECORDS: &str = "\
        1100000031f282ff04000000040000000000000001010000001e000000740b46\
        e7050000003200000000000000040000000000000006000000696d674035301e\
        00000019f9c53a00000000330000000000000005000000000000000400000000\
        000000000023000000d593dfdb00000000340000000000000005000000000000\
        000500000000000000000101000000780c00000087d7f7e10100000034000000\
        000000000d0000009e55d7bc04000000060000000000000000";
    let golden: Vec<u8> = (0..GOLDEN_RECORDS.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_RECORDS[i..i + 2], 16).unwrap())
        .collect();
    let old = dir.join("records.wal");
    std::fs::write(&old, &golden).unwrap();
    let wal = WalLog::open(&old, SyncPolicy::Never).unwrap();
    assert_eq!((wal.first_index(), wal.last_index()), (LogIndex(51), LogIndex(51)));
    assert_eq!(wal.get(LogIndex(51)), Some(Entry::noop(LogIndex(51), Term(5), Term(4))));
    assert_eq!(wal.snapshot(), Some((LogIndex(50), Term(4), Bytes::from_static(b"img@50"))));
    assert_eq!(wal.hard_state(), (Term(6), None));
    assert_eq!(wal.file_len(), golden.len() as u64, "nothing truncated as torn");

    let new = dir.join("records-new.wal");
    let mut wal = WalLog::open(&new, SyncPolicy::Never).unwrap();
    wal.set_hard_state(Term(4), Some(NodeId(1))).unwrap();
    wal.reset(LogIndex(50), Term(4), Bytes::from_static(b"img@50")).unwrap();
    wal.append(Entry::noop(LogIndex(51), Term(5), Term(4))).unwrap();
    wal.append(Entry::data(LogIndex(52), Term(5), Term(5), None, Bytes::from_static(b"x")))
        .unwrap();
    wal.truncate_from(LogIndex(52)).unwrap();
    wal.set_hard_state(Term(6), None).unwrap();
    assert_eq!(std::fs::read(&new).unwrap(), golden);
}

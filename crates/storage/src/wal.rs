//! A file-backed log store: write-ahead records with CRC framing and
//! crash recovery.
//!
//! The paper's persistence model (Section IV) assumes "the log storage is
//! durable, and each log entry is persisted". [`WalLog`] provides that
//! property for the real-thread cluster harness: every mutation is written
//! as a framed record before being applied to the in-memory image, and
//! recovery replays the file, tolerating a torn final record (the crash
//! case) by truncating at the first corrupt frame.
//!
//! The file holds the replica's whole durable state. Appends, truncations
//! and hard-state changes are appended as records; compaction and snapshot
//! installation rewrite the file as `[hard state, snapshot, live suffix]`
//! (written aside, synced, renamed over), which keeps it bounded while
//! compaction runs.

use crate::log::{LogStore, MemLog};
use bytes::Bytes;
use nbr_types::checksum::crc32;
use nbr_types::wire::{encode_frame, Reader, Wire, Writer};
use nbr_types::{Entry, Error, LogIndex, NodeId, Result, Term};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write as IoWrite};
use std::path::{Path, PathBuf};

/// When to `fsync` the WAL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record (maximum durability, slowest).
    Always,
    /// Never sync explicitly; rely on OS writeback. The evaluation default —
    /// the paper's throughput figures measure protocol overhead, and IoTDB
    /// itself batches data in memory and flushes later (Section II-F).
    Never,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WalRecord {
    Append(Entry),
    TruncateFrom(LogIndex),
    /// A compaction without its image, as older versions logged it:
    /// replayed, never written.
    CompactTo(LogIndex),
    /// A boundary without its image, as older versions logged it: replayed,
    /// never written.
    Reset(LogIndex, Term),
    HardState(Term, Option<NodeId>),
    /// The log restarts after `index`; `image` is the state machine there.
    Snapshot {
        index: LogIndex,
        term: Term,
        image: Bytes,
    },
}

impl Wire for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Append(e) => {
                0u32.encode_tag(w);
                e.encode(w);
            }
            WalRecord::TruncateFrom(i) => {
                1u32.encode_tag(w);
                i.encode(w);
            }
            WalRecord::CompactTo(i) => {
                2u32.encode_tag(w);
                i.encode(w);
            }
            WalRecord::Reset(i, t) => {
                3u32.encode_tag(w);
                i.encode(w);
                t.encode(w);
            }
            WalRecord::HardState(t, v) => {
                4u32.encode_tag(w);
                t.encode(w);
                v.encode(w);
            }
            WalRecord::Snapshot { index, term, image } => {
                5u32.encode_tag(w);
                index.encode(w);
                term.encode(w);
                w.bytes(image);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u32::decode_tag(r)? {
            0 => Ok(WalRecord::Append(Entry::decode(r)?)),
            1 => Ok(WalRecord::TruncateFrom(LogIndex::decode(r)?)),
            2 => Ok(WalRecord::CompactTo(LogIndex::decode(r)?)),
            3 => Ok(WalRecord::Reset(LogIndex::decode(r)?, Term::decode(r)?)),
            4 => Ok(WalRecord::HardState(Term::decode(r)?, Option::<NodeId>::decode(r)?)),
            5 => Ok(WalRecord::Snapshot {
                index: LogIndex::decode(r)?,
                term: Term::decode(r)?,
                image: r.bytes_shared()?,
            }),
            v => Err(Error::Codec(format!("invalid wal record tag {v}"))),
        }
    }
}

/// Private helper to put a one-byte tag through the shared Writer/Reader.
trait Tag {
    fn encode_tag(self, w: &mut Writer);
    fn decode_tag(r: &mut Reader<'_>) -> Result<u32>;
}

impl Tag for u32 {
    fn encode_tag(self, w: &mut Writer) {
        // Reuse NodeId's u32 encoding without exposing raw writer internals.
        nbr_types::NodeId(self).encode(w);
    }
    fn decode_tag(r: &mut Reader<'_>) -> Result<u32> {
        Ok(nbr_types::NodeId::decode(r)?.0)
    }
}

/// A durable log store: a [`MemLog`] image plus a WAL file.
#[derive(Debug)]
pub struct WalLog {
    mem: MemLog,
    file: File,
    path: PathBuf,
    sync: SyncPolicy,
    /// Bytes of live records: the file's length.
    appended_bytes: u64,
    /// Injected per-record write stall in nanoseconds (chaos slow-disk
    /// emulation). `None`, or a shared dial reading zero, means healthy.
    stall: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
}

impl WalLog {
    /// Open (creating if missing) a WAL at `path` and recover its contents.
    pub fn open(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<WalLog> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).create(true).append(true).open(&path)?;

        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let (mem, valid_len) = Self::replay(&buf)?;
        if (valid_len as u64) < buf.len() as u64 {
            // Torn tail: truncate the file at the last valid record.
            file.set_len(valid_len as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(WalLog { mem, file, path, sync, appended_bytes: valid_len as u64, stall: None })
    }

    /// Install a shared stall dial: every subsequent record write sleeps for
    /// the dial's current value (nanoseconds) before touching the file — the
    /// chaos harness's slow-disk fault, adjustable while the node runs.
    pub fn set_stall(&mut self, dial: std::sync::Arc<std::sync::atomic::AtomicU64>) {
        self.stall = Some(dial);
    }

    /// Replay records from `buf`, returning the rebuilt image and the
    /// byte offset of the first invalid/incomplete record.
    fn replay(buf: &[u8]) -> Result<(MemLog, usize)> {
        let mut mem = MemLog::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            match nbr_types::wire::decode_frame::<WalRecord>(&buf[pos..]) {
                Ok(Some((rec, used))) => {
                    match rec {
                        WalRecord::Append(e) => mem.append(e)?,
                        WalRecord::TruncateFrom(i) => mem.truncate_from(i)?,
                        WalRecord::CompactTo(i) => mem.compact(i, None)?,
                        WalRecord::Reset(i, t) => mem.reset_to(i, t, None),
                        WalRecord::HardState(t, v) => mem.set_hard_state(t, v)?,
                        WalRecord::Snapshot { index, term, image } => {
                            mem.reset_to(index, term, Some(image))
                        }
                    }
                    pos += used;
                }
                // Incomplete or corrupt tail — stop here and discard the rest.
                Ok(None) | Err(_) => break,
            }
        }
        Ok((mem, pos))
    }

    fn write_record(&mut self, rec: &WalRecord) -> Result<()> {
        if let Some(dial) = &self.stall {
            let ns = dial.load(std::sync::atomic::Ordering::Relaxed);
            if ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
        }
        let frame = encode_frame(rec);
        self.file.write_all(&frame)?;
        if self.sync == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        self.appended_bytes += frame.len() as u64;
        Ok(())
    }

    /// Replace the file with the image's records: hard state, snapshot, live
    /// suffix. Written aside and renamed over, so a crash leaves either the
    /// old file or the new one whole.
    fn rewrite(&mut self) -> Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut out = File::create(&tmp)?;
            let (term, vote) = self.mem.hard_state();
            let mut bytes = encode_frame(&WalRecord::HardState(term, vote));
            if let Some((index, term, image)) = self.mem.snapshot() {
                bytes.extend_from_slice(&encode_frame(&WalRecord::Snapshot { index, term, image }));
            }
            let mut idx = self.mem.first_index();
            while let Some(e) = self.mem.get(idx) {
                bytes.extend_from_slice(&encode_frame(&WalRecord::Append(e)));
                idx = idx.next();
            }
            out.write_all(&bytes)?;
            out.sync_data()?;
            self.appended_bytes = bytes.len() as u64;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        Ok(())
    }

    /// Current WAL file length in bytes (for tests and compaction policy).
    pub fn file_len(&self) -> u64 {
        self.appended_bytes
    }

    /// CRC of the concatenated live entry indices — a cheap integrity probe
    /// used by failure-injection tests.
    pub fn fingerprint(&self) -> u32 {
        let mut bytes = Vec::new();
        let mut idx = self.mem.first_index();
        while idx <= self.mem.last_index() {
            if let Some(e) = self.mem.get(idx) {
                bytes.extend_from_slice(&e.index.0.to_le_bytes());
                bytes.extend_from_slice(&e.term.0.to_le_bytes());
            }
            idx = idx.next();
        }
        crc32(&bytes)
    }
}

impl LogStore for WalLog {
    fn first_index(&self) -> LogIndex {
        self.mem.first_index()
    }
    fn last_index(&self) -> LogIndex {
        self.mem.last_index()
    }
    fn last_term(&self) -> Term {
        self.mem.last_term()
    }
    fn term_of(&self, idx: LogIndex) -> Option<Term> {
        self.mem.term_of(idx)
    }
    fn get(&self, idx: LogIndex) -> Option<Entry> {
        self.mem.get(idx)
    }

    fn append(&mut self, entry: Entry) -> Result<()> {
        self.write_record(&WalRecord::Append(entry.clone()))?;
        self.mem.append(entry)
    }

    fn truncate_from(&mut self, idx: LogIndex) -> Result<()> {
        self.write_record(&WalRecord::TruncateFrom(idx))?;
        self.mem.truncate_from(idx)
    }

    fn compact_to(&mut self, idx: LogIndex, image: Bytes) -> Result<()> {
        if idx < self.mem.first_index() {
            return Ok(()); // already compacted past here
        }
        self.mem.compact_to(idx, image)?;
        self.rewrite()
    }

    fn reset(&mut self, boundary: LogIndex, term: Term, image: Bytes) -> Result<()> {
        self.mem.reset(boundary, term, image)?;
        self.rewrite()
    }

    fn hard_state(&self) -> (Term, Option<NodeId>) {
        self.mem.hard_state()
    }

    fn set_hard_state(&mut self, term: Term, vote: Option<NodeId>) -> Result<()> {
        self.write_record(&WalRecord::HardState(term, vote))?;
        self.mem.set_hard_state(term, vote)
    }

    fn snapshot(&self) -> Option<(LogIndex, Term, Bytes)> {
        self.mem.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(i: u64, t: u64) -> Entry {
        Entry::noop(LogIndex(i), Term(t), Term(if i <= 1 { 0 } else { t }))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nbr-wal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reopen_recovers_entries() {
        let path = tmpdir("reopen").join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalLog::open(&path, SyncPolicy::Always).unwrap();
            for i in 1..=10 {
                wal.append(e(i, 1)).unwrap();
            }
            wal.truncate_from(LogIndex(8)).unwrap();
        }
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.last_index(), LogIndex(7));
        assert_eq!(wal.get(LogIndex(5)).unwrap().index, LogIndex(5));
        assert_eq!(wal.get(LogIndex(8)), None);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmpdir("torn").join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalLog::open(&path, SyncPolicy::Always).unwrap();
            for i in 1..=5 {
                wal.append(e(i, 1)).unwrap();
            }
        }
        // Simulate a crash mid-write: append garbage that looks like the
        // start of a frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0x12, 0x34]).unwrap();
        }
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.last_index(), LogIndex(5));
        // The torn bytes were truncated away; appending works again.
        let mut wal = wal;
        wal.append(e(6, 1)).unwrap();
        drop(wal);
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.last_index(), LogIndex(6));
    }

    #[test]
    fn corrupt_middle_record_stops_replay() {
        let path = tmpdir("corrupt").join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalLog::open(&path, SyncPolicy::Always).unwrap();
            for i in 1..=5 {
                wal.append(e(i, 1)).unwrap();
            }
        }
        // Flip a byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        // Some prefix survived; nothing after the corruption did.
        assert!(wal.last_index() < LogIndex(5));
    }

    #[test]
    fn reset_survives_reopen() {
        let path = tmpdir("reset").join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
            for i in 1..=5 {
                wal.append(e(i, 1)).unwrap();
            }
            wal.reset(LogIndex(50), Term(3), Bytes::from_static(b"img@50")).unwrap();
            wal.append(e(51, 3)).unwrap();
        }
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.first_index(), LogIndex(51));
        assert_eq!(wal.last_index(), LogIndex(51));
        assert_eq!(wal.term_of(LogIndex(50)), Some(Term(3)));
        assert_eq!(wal.snapshot(), Some((LogIndex(50), Term(3), Bytes::from_static(b"img@50"))));
    }

    #[test]
    fn compaction_rewrites_the_file_around_the_snapshot() {
        let path = tmpdir("compact").join("wal.log");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        for i in 1..=100 {
            wal.append(e(i, 1)).unwrap();
        }
        wal.set_hard_state(Term(1), Some(NodeId(2))).unwrap();
        let before = wal.file_len();
        wal.compact_to(LogIndex(90), Bytes::from_static(b"img@90")).unwrap();
        assert!(wal.file_len() < before);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.file_len());
        assert_eq!(wal.first_index(), LogIndex(91));
        assert_eq!(wal.last_index(), LogIndex(100));
        drop(wal);
        // The rewritten file recovers the same range, hard state and image.
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.first_index(), LogIndex(91));
        assert_eq!(wal.last_index(), LogIndex(100));
        assert_eq!(wal.term_of(LogIndex(90)), Some(Term(1)));
        assert_eq!(wal.hard_state(), (Term(1), Some(NodeId(2))));
        assert_eq!(wal.snapshot(), Some((LogIndex(90), Term(1), Bytes::from_static(b"img@90"))));
    }

    #[test]
    fn hard_state_survives_reopen() {
        let path = tmpdir("hs").join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
            assert_eq!(wal.hard_state(), (Term::ZERO, None));
            wal.set_hard_state(Term(4), Some(NodeId(1))).unwrap();
            wal.append(e(1, 4)).unwrap();
            wal.set_hard_state(Term(5), None).unwrap();
        }
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.hard_state(), (Term(5), None));
        assert_eq!(wal.last_index(), LogIndex(1));
    }

    #[test]
    fn a_file_from_before_images_were_kept_still_opens() {
        // Compactions and resets were once logged as bare boundaries.
        let path = tmpdir("legacy").join("wal.log");
        let mut bytes = Vec::new();
        for i in 1..=6 {
            bytes.extend_from_slice(&encode_frame(&WalRecord::Append(e(i, 1))));
        }
        bytes.extend_from_slice(&encode_frame(&WalRecord::CompactTo(LogIndex(4))));
        std::fs::write(&path, &bytes).unwrap();
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!((wal.first_index(), wal.last_index()), (LogIndex(5), LogIndex(6)));
        assert_eq!(wal.snapshot(), None, "no image was logged");

        bytes.extend_from_slice(&encode_frame(&WalRecord::Reset(LogIndex(9), Term(2))));
        std::fs::write(&path, &bytes).unwrap();
        let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!((wal.first_index(), wal.last_term()), (LogIndex(10), Term(2)));
        assert_eq!(wal.file_len(), bytes.len() as u64);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let path = tmpdir("fp").join("wal.log");
        let _ = std::fs::remove_file(&path);
        let mut wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
        wal.append(e(1, 1)).unwrap();
        let f1 = wal.fingerprint();
        wal.append(e(2, 1)).unwrap();
        assert_ne!(wal.fingerprint(), f1);
        wal.truncate_from(LogIndex(2)).unwrap();
        assert_eq!(wal.fingerprint(), f1);
    }

    /// Apply one generated operation, mapped onto one that is valid for the
    /// log's current range. Returns the records it wrote, or `None` when it
    /// rewrote the file.
    fn apply(wal: &mut WalLog, (kind, a, b): (u8, u64, u64)) -> Option<usize> {
        let (first, last) = (wal.first_index().0, wal.last_index().0);
        let image = || Bytes::from(vec![a as u8; (b % 24) as usize]);
        match kind {
            0 | 1 => {
                let prev = wal.last_term();
                let term = Term(prev.0.max(wal.hard_state().0 .0).max(1) + b % 2);
                let payload = Bytes::from(vec![b as u8; (a % 40) as usize]);
                wal.append(Entry::data(LogIndex(last + 1), term, prev, None, payload)).unwrap();
                Some(1)
            }
            2 if last >= first => {
                wal.truncate_from(LogIndex(first + a % (last - first + 1))).unwrap();
                Some(1)
            }
            3 if last >= first => {
                wal.compact_to(LogIndex(first + a % (last - first + 1)), image()).unwrap();
                None
            }
            4 => {
                let term = Term(wal.last_term().0 + b % 2);
                wal.reset(LogIndex(last + a % 4), term, image()).unwrap();
                None
            }
            5 => {
                let term = Term(wal.hard_state().0 .0 + a % 2);
                wal.set_hard_state(term, (b % 4 != 0).then_some(NodeId(b as u32 % 3))).unwrap();
                Some(1)
            }
            _ => Some(0),
        }
    }

    /// Record boundaries of a freshly rewritten file and the image replay
    /// holds after each: hard state, then snapshot, then each live entry.
    fn rewritten(image: &MemLog) -> Vec<(u64, MemLog)> {
        let mut state = MemLog::new();
        let mut at = 0u64;
        let mut marks = vec![(at, state.clone())];
        let (term, vote) = image.hard_state();
        at += encode_frame(&WalRecord::HardState(term, vote)).len() as u64;
        state.set_hard_state(term, vote).unwrap();
        marks.push((at, state.clone()));
        if let Some((index, term, image)) = image.snapshot() {
            at += encode_frame(&WalRecord::Snapshot { index, term, image: image.clone() }).len()
                as u64;
            state.reset_to(index, term, Some(image));
            marks.push((at, state.clone()));
        }
        let mut idx = image.first_index();
        while let Some(e) = image.get(idx) {
            at += encode_frame(&WalRecord::Append(e.clone())).len() as u64;
            state.append(e).unwrap();
            marks.push((at, state.clone()));
            idx = idx.next();
        }
        marks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// ROADMAP 5(c): whatever byte a crash cuts the file at, or whichever
        /// byte rots, reopening recovers exactly the state after the last
        /// whole record — entries, hard state and snapshot — and the log
        /// takes appends again.
        #[test]
        fn replay_recovers_the_state_after_the_last_whole_record(
            ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..40),
            at in any::<u64>(),
            flip in any::<bool>(),
        ) {
            let path = tmpdir("replay-prop").join("wal.log");
            let _ = std::fs::remove_file(&path);
            let mut wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
            let mut marks = vec![(0u64, MemLog::new())];
            for &op in &ops {
                match apply(&mut wal, op) {
                    Some(0) => {}
                    Some(_) => marks.push((wal.file_len(), wal.mem.clone())),
                    None => marks = rewritten(&wal.mem),
                }
                prop_assert_eq!(marks.last().unwrap(), &(wal.file_len(), wal.mem.clone()));
            }
            drop(wal);

            let mut bytes = std::fs::read(&path).unwrap();
            let len = bytes.len() as u64;
            let damaged = if flip && len > 0 {
                let at = at % len;
                bytes[at as usize] ^= 1 << (at % 8);
                at
            } else {
                let at = at % (len + 1);
                bytes.truncate(at as usize);
                at
            };
            std::fs::write(&path, &bytes).unwrap();
            let (whole, expect) = marks.iter().rev().find(|(end, _)| *end <= damaged).unwrap();

            let mut wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
            prop_assert_eq!(&wal.mem, expect, "ops {:?}, damage at {} of {}", ops, damaged, len);
            prop_assert_eq!(wal.file_len(), *whole);
            let next = wal.last_index().next();
            wal.append(Entry::noop(next, wal.last_term(), wal.last_term())).unwrap();
            drop(wal);
            let wal = WalLog::open(&path, SyncPolicy::Never).unwrap();
            prop_assert_eq!(wal.last_index(), next);
            prop_assert_eq!(wal.hard_state(), expect.hard_state());
        }
    }
}

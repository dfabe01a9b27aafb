//! The replicated-log storage abstraction and its in-memory implementation.
//!
//! Raft's log is contiguous: `append` only ever extends at `last_index + 1`,
//! `truncate_from` removes a suffix (when a newer leader overwrites
//! uncommitted entries — the paper's Section III-A1), and `compact_to`
//! folds an applied prefix into a state machine snapshot.
//!
//! A store is a replica's whole durable state: besides the entries it keeps
//! the Raft hard state (term and vote) and the snapshot its compacted
//! prefix became, so a restart needs nothing but the store.

use bytes::Bytes;
use nbr_types::{Entry, Error, LogIndex, NodeId, Result, Term};

/// Durable (or simulated-durable) storage for one replica's log, hard state
/// and compaction snapshot.
pub trait LogStore {
    /// First retained index (1 unless compacted).
    fn first_index(&self) -> LogIndex;

    /// Index of the last entry, or [`LogIndex::ZERO`] when empty.
    fn last_index(&self) -> LogIndex;

    /// Term of the last entry, or the compaction boundary's term when empty.
    fn last_term(&self) -> Term;

    /// Term of the entry at `idx`. `Some(Term::ZERO)` for index 0; `None`
    /// for indices outside the retained range.
    fn term_of(&self, idx: LogIndex) -> Option<Term>;

    /// Fetch one entry (cheap clone; payloads are refcounted `Bytes`).
    fn get(&self, idx: LogIndex) -> Option<Entry>;

    /// Append at `last_index + 1`; any other index is a contract violation.
    fn append(&mut self, entry: Entry) -> Result<()>;

    /// Drop all entries with index >= `idx`.
    fn truncate_from(&mut self, idx: LogIndex) -> Result<()>;

    /// Drop all entries with index <= `idx`, keeping `image` (the state
    /// machine's serialized state at exactly `idx`) as the snapshot they
    /// became.
    fn compact_to(&mut self, idx: LogIndex, image: Bytes) -> Result<()>;

    /// Replace the whole log with an empty one whose compaction boundary is
    /// `(boundary, term)` and whose snapshot is `image` — used when
    /// installing a snapshot that supersedes everything we hold. The next
    /// append must be at `boundary + 1`.
    fn reset(&mut self, boundary: LogIndex, term: Term, image: Bytes) -> Result<()>;

    /// The Raft hard state `(current term, vote)`; `(Term::ZERO, None)`
    /// until first set.
    fn hard_state(&self) -> (Term, Option<NodeId>);

    /// Record the hard state. It is durable once this returns, so a replica
    /// that restarts cannot vote twice in one term.
    fn set_hard_state(&mut self, term: Term, vote: Option<NodeId>) -> Result<()>;

    /// The snapshot the compacted prefix became: `(last_index, last_term,
    /// image)`, `None` while nothing was compacted.
    fn snapshot(&self) -> Option<(LogIndex, Term, Bytes)>;

    /// Entries in `[from, to]` inclusive, stopping early once `max_bytes` of
    /// payload have been gathered (at least one entry is returned if any
    /// exists in range).
    fn entries(&self, from: LogIndex, to: LogIndex, max_bytes: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        let mut bytes = 0usize;
        let mut idx = from;
        while idx <= to {
            match self.get(idx) {
                Some(e) => {
                    bytes += e.size_bytes();
                    out.push(e);
                    if bytes >= max_bytes {
                        break;
                    }
                }
                None => break,
            }
            idx = idx.next();
        }
        out
    }

    /// Number of retained entries.
    fn len(&self) -> usize {
        (self.last_index().0 + 1).saturating_sub(self.first_index().0) as usize // check:allow(L4): saturating length arithmetic, cannot wrap
    }

    /// True when no entries are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Volatile, vector-backed log — the store used by the simulator (durability
/// there is a *model*, not a property under test: a clone of a crashed
/// replica's `MemLog` is everything it recovers from).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemLog {
    /// Retained entries; `entries[0]` has index `offset + 1`.
    entries: Vec<Entry>,
    /// Index of the entry immediately before `entries[0]` (0 when nothing
    /// was compacted away).
    offset: u64,
    /// Term of the entry at `offset` (the compaction boundary).
    offset_term: Term,
    /// State machine image at `offset`; `None` when nothing was compacted,
    /// or when a log written before images were kept was.
    image: Option<Bytes>,
    /// Raft hard state `(current term, vote)`.
    hard_state: (Term, Option<NodeId>),
}

impl MemLog {
    /// Empty log.
    pub fn new() -> MemLog {
        MemLog::default()
    }

    /// Reset to an empty log whose compaction boundary is `(boundary, term)`
    /// with snapshot `image` — the next append must be at `boundary + 1`.
    pub(crate) fn reset_to(&mut self, boundary: LogIndex, term: Term, image: Option<Bytes>) {
        self.entries.clear();
        self.offset = boundary.0;
        self.offset_term = term;
        self.image = image;
    }

    /// Drop the entries through `idx`, keeping `image` as their snapshot.
    pub(crate) fn compact(&mut self, idx: LogIndex, image: Option<Bytes>) -> Result<()> {
        if idx.0 <= self.offset {
            return Ok(()); // already compacted past here
        }
        if idx > self.last_index() {
            return Err(Error::Storage(format!(
                "cannot compact beyond last index: {idx} > {}",
                self.last_index()
            )));
        }
        let drop = (idx.0 - self.offset) as usize; // check:allow(L4): guarded by idx.0 > offset above
        self.offset_term = self.entries[drop - 1].term;
        self.entries.drain(..drop);
        self.offset = idx.0;
        self.image = image;
        Ok(())
    }

    fn slot(&self, idx: LogIndex) -> Option<usize> {
        if idx.0 <= self.offset {
            return None;
        }
        let s = (idx.0 - self.offset - 1) as usize; // check:allow(L4): guarded by idx.0 > offset above
        (s < self.entries.len()).then_some(s)
    }
}

impl LogStore for MemLog {
    fn first_index(&self) -> LogIndex {
        LogIndex(self.offset + 1)
    }

    fn last_index(&self) -> LogIndex {
        LogIndex(self.offset + self.entries.len() as u64)
    }

    fn last_term(&self) -> Term {
        self.entries.last().map_or(self.offset_term, |e| e.term)
    }

    fn term_of(&self, idx: LogIndex) -> Option<Term> {
        if idx == LogIndex::ZERO {
            return Some(Term::ZERO);
        }
        if idx.0 == self.offset {
            return Some(self.offset_term);
        }
        self.slot(idx).map(|s| self.entries[s].term)
    }

    fn get(&self, idx: LogIndex) -> Option<Entry> {
        self.slot(idx).map(|s| self.entries[s].clone())
    }

    fn append(&mut self, entry: Entry) -> Result<()> {
        let expect = self.last_index().next();
        if entry.index != expect {
            return Err(Error::Storage(format!(
                "non-contiguous append: got {}, expected {}",
                entry.index, expect
            )));
        }
        self.entries.push(entry);
        Ok(())
    }

    fn truncate_from(&mut self, idx: LogIndex) -> Result<()> {
        if idx.0 <= self.offset {
            return Err(Error::Storage(format!("cannot truncate into compacted prefix at {idx}")));
        }
        let keep = (idx.0 - self.offset - 1) as usize; // check:allow(L4): guarded by idx.0 > offset above
        if keep < self.entries.len() {
            self.entries.truncate(keep);
        }
        Ok(())
    }

    fn compact_to(&mut self, idx: LogIndex, image: Bytes) -> Result<()> {
        self.compact(idx, Some(image))
    }

    fn reset(&mut self, boundary: LogIndex, term: Term, image: Bytes) -> Result<()> {
        self.reset_to(boundary, term, Some(image));
        Ok(())
    }

    fn hard_state(&self) -> (Term, Option<NodeId>) {
        self.hard_state
    }

    fn set_hard_state(&mut self, term: Term, vote: Option<NodeId>) -> Result<()> {
        self.hard_state = (term, vote);
        Ok(())
    }

    fn snapshot(&self) -> Option<(LogIndex, Term, Bytes)> {
        self.image.as_ref().map(|image| (LogIndex(self.offset), self.offset_term, image.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u64, t: u64, p: u64) -> Entry {
        Entry::noop(LogIndex(i), Term(t), Term(p))
    }

    fn filled(n: u64) -> MemLog {
        let mut log = MemLog::new();
        for i in 1..=n {
            log.append(e(i, 1, if i == 1 { 0 } else { 1 })).unwrap();
        }
        log
    }

    #[test]
    fn empty_log_boundaries() {
        let log = MemLog::new();
        assert_eq!(log.hard_state(), (Term::ZERO, None));
        assert_eq!(log.snapshot(), None);
        assert_eq!(log.first_index(), LogIndex(1));
        assert_eq!(log.last_index(), LogIndex::ZERO);
        assert_eq!(log.last_term(), Term::ZERO);
        assert_eq!(log.term_of(LogIndex::ZERO), Some(Term::ZERO));
        assert_eq!(log.term_of(LogIndex(1)), None);
        assert!(log.is_empty());
    }

    #[test]
    fn append_and_get() {
        let log = filled(5);
        assert_eq!(log.last_index(), LogIndex(5));
        assert_eq!(log.len(), 5);
        assert_eq!(log.get(LogIndex(3)).unwrap().index, LogIndex(3));
        assert_eq!(log.get(LogIndex(6)), None);
    }

    #[test]
    fn non_contiguous_append_rejected() {
        let mut log = filled(2);
        assert!(log.append(e(4, 1, 1)).is_err());
        assert!(log.append(e(2, 1, 1)).is_err());
        assert!(log.append(e(3, 1, 1)).is_ok());
    }

    #[test]
    fn truncate_suffix() {
        let mut log = filled(5);
        log.truncate_from(LogIndex(3)).unwrap();
        assert_eq!(log.last_index(), LogIndex(2));
        assert_eq!(log.get(LogIndex(3)), None);
        // Truncating beyond the end is a no-op.
        log.truncate_from(LogIndex(10)).unwrap();
        assert_eq!(log.last_index(), LogIndex(2));
    }

    #[test]
    fn compaction_keeps_boundary_term() {
        let mut log = filled(5);
        log.compact_to(LogIndex(3), Bytes::from_static(b"img@3")).unwrap();
        assert_eq!(log.first_index(), LogIndex(4));
        assert_eq!(log.last_index(), LogIndex(5));
        assert_eq!(log.snapshot(), Some((LogIndex(3), Term(1), Bytes::from_static(b"img@3"))));
        assert_eq!(log.term_of(LogIndex(3)), Some(Term(1)));
        assert_eq!(log.term_of(LogIndex(2)), None);
        assert_eq!(log.get(LogIndex(3)), None);
        assert_eq!(log.get(LogIndex(4)).unwrap().index, LogIndex(4));
        // Compacting again below the boundary is a no-op.
        log.compact_to(LogIndex(2), Bytes::new()).unwrap();
        assert_eq!(log.first_index(), LogIndex(4));
        assert_eq!(log.snapshot().map(|s| s.2), Some(Bytes::from_static(b"img@3")));
    }

    #[test]
    fn compact_whole_log_then_append() {
        let mut log = filled(3);
        log.compact_to(LogIndex(3), Bytes::new()).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.last_index(), LogIndex(3));
        assert_eq!(log.last_term(), Term(1));
        log.append(e(4, 2, 1)).unwrap();
        assert_eq!(log.last_index(), LogIndex(4));
        assert_eq!(log.last_term(), Term(2));
    }

    #[test]
    fn reset_establishes_boundary() {
        let mut log = filled(5);
        log.reset(LogIndex(42), Term(7), Bytes::from_static(b"img@42")).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.first_index(), LogIndex(43));
        assert_eq!(log.last_index(), LogIndex(42));
        assert_eq!(log.last_term(), Term(7));
        assert_eq!(log.term_of(LogIndex(42)), Some(Term(7)));
        assert_eq!(log.snapshot(), Some((LogIndex(42), Term(7), Bytes::from_static(b"img@42"))));
        log.append(e(43, 7, 7)).unwrap();
        assert_eq!(log.last_index(), LogIndex(43));
    }

    #[test]
    fn a_clone_carries_hard_state_and_snapshot() {
        let mut log = filled(4);
        log.set_hard_state(Term(3), Some(NodeId(2))).unwrap();
        log.compact_to(LogIndex(2), Bytes::from_static(b"img@2")).unwrap();
        let copy = log.clone();
        assert_eq!(copy.hard_state(), (Term(3), Some(NodeId(2))));
        assert_eq!(copy.snapshot(), log.snapshot());
        assert_eq!(copy, log);
    }

    #[test]
    fn compact_beyond_last_rejected() {
        let mut log = filled(2);
        assert!(log.compact_to(LogIndex(3), Bytes::new()).is_err());
    }

    #[test]
    fn truncate_into_compacted_rejected() {
        let mut log = filled(5);
        log.compact_to(LogIndex(3), Bytes::new()).unwrap();
        assert!(log.truncate_from(LogIndex(2)).is_err());
        assert!(log.truncate_from(LogIndex(4)).is_ok());
    }

    #[test]
    fn entries_respects_byte_budget() {
        let log = filled(10);
        let all = log.entries(LogIndex(2), LogIndex(8), usize::MAX);
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].index, LogIndex(2));
        // Tiny budget still yields one entry.
        let one = log.entries(LogIndex(2), LogIndex(8), 1);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn entries_stops_at_gap() {
        let log = filled(3);
        let out = log.entries(LogIndex(2), LogIndex(9), usize::MAX);
        assert_eq!(out.len(), 2);
    }
}

//! The follower's sliding window (paper Section III-A).
//!
//! If the follower's last appended entry has index `i`, window slot `j`
//! (0-based here) caches the not-yet-appendable entry with index `i + 1 + j`.
//! Entries landing in the window are answered with `WEAK_ACCEPT`; when the
//! gap entry `i + 1` arrives and matches, the maximal contiguous prefix of
//! the window is *flushed* to the log (Figure 9) and a single cumulative
//! `STRONG_ACCEPT` reported.
//!
//! Invariant maintained by the insertion checks of Section III-A2a: **every
//! adjacent pair of occupied slots is continuity-consistent** (the left entry
//! [`Entry::precedes`] the right one). Flushing a non-null prefix therefore
//! never appends an inconsistent run. Property tests assert this invariant
//! under arbitrary operation sequences.
//!
//! Original Raft is the degenerate `capacity == 0` window: nothing can be
//! cached, so every out-of-order entry stays blocked (parked) exactly as in
//! the paper's blue waiting loop of Figure 3(c).

use nbr_types::{Entry, LogIndex, Term};
use std::collections::VecDeque;

/// Outcome of offering an entry to the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowOutcome {
    /// `diff == 1` and the previous-entry check passed: the offered entry
    /// plus the now-contiguous window prefix must be appended to the log.
    /// The caller reports `(STRONG_ACCEPT, last flushed index/term)`.
    Flush(Vec<Entry>),
    /// `1 < diff <= capacity`: cached; report `WEAK_ACCEPT(index, term)`.
    Cached,
    /// `diff == 1` but the previous-entry check failed: the follower's log
    /// does not end with the entry the leader thinks it does. Report
    /// `LOG_MISMATCH` so the leader re-sends earlier entries.
    Mismatch,
    /// `diff > capacity`: beyond the window. The caller parks the returned
    /// entry and retries after the window moves right (Section III-A3).
    Beyond(Entry),
}

/// The sliding window of cached out-of-order entries.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    /// Capacity `w`; 0 reproduces original Raft.
    capacity: usize,
    /// `slots[j]` caches the entry with index `base + j`, where
    /// `base = last appended index + 1`.
    slots: VecDeque<Option<Entry>>,
    /// Index cached by `slots[0]`.
    base: LogIndex,
    /// Number of occupied slots (for cheap introspection).
    occupied: usize,
}

impl SlidingWindow {
    /// Create a window of the given capacity over a log whose last appended
    /// index is `last_log_index`.
    pub fn new(capacity: usize, last_log_index: LogIndex) -> SlidingWindow {
        SlidingWindow { capacity, slots: VecDeque::new(), base: last_log_index.next(), occupied: 0 }
    }

    /// Capacity `w`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Index cached by the first slot (last appended + 1).
    pub fn base(&self) -> LogIndex {
        self.base
    }

    /// Borrow the cached entry for `index`, if present.
    pub fn get(&self, index: LogIndex) -> Option<&Entry> {
        let diff = index.diff(self.base);
        if diff < 0 {
            return None;
        }
        self.slots.get(diff as usize).and_then(|s| s.as_ref())
    }

    fn ensure_len(&mut self, len: usize) {
        debug_assert!(len <= self.capacity);
        while self.slots.len() < len {
            self.slots.push_back(None);
        }
    }

    fn set(&mut self, slot: usize, entry: Option<Entry>) {
        self.ensure_len(slot + 1);
        let old = self.slots[slot].take();
        if old.is_some() {
            self.occupied -= 1;
        }
        if entry.is_some() {
            self.occupied += 1;
        }
        self.slots[slot] = entry;
    }

    /// Remove the slot content at `slot` and everything after it.
    fn clear_from(&mut self, slot: usize) {
        for j in slot..self.slots.len() {
            if self.slots[j].take().is_some() {
                self.occupied -= 1;
            }
        }
    }

    /// Offer an out-of-order entry with `diff >= 1` (the `diff <= 0`
    /// replace/truncate path is handled by the follower before calling this).
    ///
    /// `last_log_term` is the term of the follower's last appended entry,
    /// used for the `diff == 1` previous-entry check of Section III-A2b.
    pub fn offer(&mut self, entry: Entry, last_log_term: Term) -> WindowOutcome {
        let diff = entry.index.diff(self.base) + 1; // paper's diff: vs last appended
        debug_assert!(diff >= 1, "offer requires diff >= 1, got {diff}");
        let slot = (diff - 1) as usize; // 0-based window position

        if slot >= self.capacity && diff != 1 {
            return WindowOutcome::Beyond(entry);
        }

        if diff == 1 {
            // Previous entry is the last appended log entry.
            if entry.prev_term != last_log_term {
                return WindowOutcome::Mismatch;
            }
            // Slot 0 caches this same index; the freshly offered entry wins.
            if self.slots.front().is_some_and(|s| s.is_some()) {
                self.set(0, None);
            }
            // Flush: the offered entry plus the maximal contiguous cached run
            // starting at slot 1 (index base + 1).
            let mut run = vec![entry];
            let mut j = 1usize;
            while let Some(next) = self.slots.get(j).and_then(|s| s.as_ref()) {
                if !run.last().is_some_and(|tail| tail.precedes(next)) {
                    // Inconsistent successor: drop it and its suffix
                    // (Section III-A2a applied at flush time).
                    self.clear_from(j);
                    break;
                }
                if let Some(e) = self.slots.get_mut(j).and_then(|s| s.take()) {
                    self.occupied -= 1;
                    run.push(e);
                }
                j += 1;
            }
            // Slide the window right past the flushed run.
            let advance = run.len();
            for _ in 0..advance.min(self.slots.len()) {
                self.slots.pop_front();
            }
            self.base = self.base.plus(advance as u64);
            return WindowOutcome::Flush(run);
        }

        // 1 < diff <= capacity: insert at `slot`, pruning both neighbours
        // for continuity (Section III-A2a).
        self.prune_predecessor_of(&entry, slot);
        self.prune_successors_of(&entry, slot + 1);
        self.set(slot, Some(entry));
        WindowOutcome::Cached
    }

    /// Remove the predecessor at `slot - 1` when it is present but not the
    /// previous entry of `entry`.
    fn prune_predecessor_of(&mut self, entry: &Entry, slot: usize) {
        if slot == 0 {
            return;
        }
        let pred_slot = slot - 1;
        if let Some(pred) = self.slots.get(pred_slot).and_then(|s| s.as_ref()) {
            if !pred.precedes(entry) {
                self.set(pred_slot, None);
            }
        }
    }

    /// Remove the successor at `succ_slot` — and everything after it — when
    /// it is present but `entry` is not its previous entry (Figure 8: terms
    /// are non-decreasing, so everything following a broken link is stale).
    fn prune_successors_of(&mut self, entry: &Entry, succ_slot: usize) {
        if let Some(succ) = self.slots.get(succ_slot).and_then(|s| s.as_ref()) {
            if !entry.precedes(succ) {
                self.clear_from(succ_slot);
            }
        }
    }

    /// The log was truncated/rewritten so that its last appended entry is now
    /// `(new_last_index, new_last_term)` with `min_term` being the term of
    /// the entry that caused the rewrite. The window moves leftwards
    /// (Figure 7): cached entries are re-positioned; entries with a term
    /// lower than `min_term` or falling outside the window are discarded.
    pub fn shift_to(&mut self, new_last_index: LogIndex, min_term: Term) {
        let new_base = new_last_index.next();
        let mut kept: Vec<Entry> = Vec::with_capacity(self.occupied);
        for slot in self.slots.iter_mut() {
            if let Some(e) = slot.take() {
                kept.push(e);
            }
        }
        self.occupied = 0;
        self.slots.clear();
        self.base = new_base;
        for e in kept {
            if e.term < min_term {
                continue; // stale entry from an older leader (Figure 7)
            }
            let diff = e.index.diff(self.base);
            if diff < 0 {
                continue; // now covered by the appended log
            }
            let slot = diff as usize;
            if slot >= self.capacity {
                continue; // exceeds the window (Figure 7: entry 13 discarded)
            }
            self.set(slot, Some(e));
        }
        // Re-validate adjacency after repositioning (terms were filtered but
        // links may have been broken by drops).
        self.revalidate_adjacency();
    }

    /// Clear the whole window (leadership change with log rewrite).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.occupied = 0;
    }

    fn revalidate_adjacency(&mut self) {
        for j in 1..self.slots.len() {
            let consistent = match (&self.slots[j - 1], &self.slots[j]) {
                (Some(a), Some(b)) => a.precedes(b),
                (Some(_), None) | (None, Some(_)) | (None, None) => true,
            };
            if !consistent {
                // Keep the earlier entry; drop the later one and its suffix
                // (terms are non-decreasing along the log).
                self.clear_from(j);
                break;
            }
        }
    }

    /// Check the adjacency invariant (used by tests).
    pub fn adjacency_consistent(&self) -> bool {
        for j in 1..self.slots.len() {
            if let (Some(a), Some(b)) = (&self.slots[j - 1], &self.slots[j]) {
                if !a.precedes(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Indices currently cached (ascending), for introspection.
    pub fn cached_indices(&self) -> Vec<LogIndex> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.as_ref().map(|_| self.base.plus(j as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entry (index, term, prev_term) in the paper's Figure 6 notation.
    fn e(i: u64, t: u64, p: u64) -> Entry {
        Entry::noop(LogIndex(i), Term(t), Term(p))
    }

    /// Figure 6 setup: five appended entries ending with (7,4,4); window of
    /// six positions starting at index 8.
    fn fig6_window() -> SlidingWindow {
        SlidingWindow::new(6, LogIndex(7))
    }

    #[test]
    fn raft_is_window_zero() {
        let mut w = SlidingWindow::new(0, LogIndex(5));
        // In-order entry still flushes.
        assert_eq!(w.offer(e(6, 1, 1), Term(1)), WindowOutcome::Flush(vec![e(6, 1, 1)]));
        // Out-of-order entry cannot be cached.
        assert_eq!(w.offer(e(9, 1, 1), Term(1)), WindowOutcome::Beyond(e(9, 1, 1)));
        assert_eq!(w.occupied(), 0);
    }

    #[test]
    fn cache_and_weak_accept() {
        let mut w = fig6_window();
        assert_eq!(w.offer(e(10, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.occupied(), 1);
        assert_eq!(w.get(LogIndex(10)).unwrap().term, Term(5));
        assert_eq!(w.cached_indices(), vec![LogIndex(10)]);
    }

    #[test]
    fn beyond_window_rejected() {
        let mut w = fig6_window();
        // Base 8, capacity 6 => indices 8..=13 fit; 14 is beyond.
        assert_eq!(w.offer(e(14, 5, 5), Term(4)), WindowOutcome::Beyond(e(14, 5, 5)));
        assert_eq!(w.offer(e(13, 5, 5), Term(4)), WindowOutcome::Cached);
    }

    #[test]
    fn figure8_insertion_prunes_neighbours() {
        // Window holds (10,5,4), (12,5,5), (13,5,5); inserting (11,7,6)
        // removes all three: 10 is not its previous entry, and 11 is not the
        // previous entry of 12 (and transitively 13).
        let mut w = fig6_window();
        assert_eq!(w.offer(e(10, 5, 4), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(12, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(13, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(11, 7, 6), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.cached_indices(), vec![LogIndex(11)]);
        assert!(w.adjacency_consistent());
    }

    #[test]
    fn figure9_flush_moves_prefix() {
        // Window caches (9,5,5), (10,6,5); inserting (8,5,4) at the first
        // position flushes all three; follower reports STRONG_ACCEPT(10, 6).
        let mut w = fig6_window();
        assert_eq!(w.offer(e(9, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(10, 6, 5), Term(4)), WindowOutcome::Cached);
        match w.offer(e(8, 5, 4), Term(4)) {
            WindowOutcome::Flush(run) => {
                let idx: Vec<u64> = run.iter().map(|e| e.index.0).collect();
                assert_eq!(idx, vec![8, 9, 10]);
                assert_eq!(run.last().unwrap().term, Term(6));
            }
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(w.base(), LogIndex(11));
        assert_eq!(w.occupied(), 0);
    }

    #[test]
    fn flush_stops_at_gap() {
        let mut w = fig6_window();
        assert_eq!(w.offer(e(10, 4, 4), Term(4)), WindowOutcome::Cached); // gap at 9
        match w.offer(e(8, 4, 4), Term(4)) {
            WindowOutcome::Flush(run) => assert_eq!(run.len(), 1),
            other => panic!("expected flush, got {other:?}"),
        }
        // 10 remains cached, now at base 9 + 1.
        assert_eq!(w.base(), LogIndex(9));
        assert_eq!(w.cached_indices(), vec![LogIndex(10)]);
    }

    #[test]
    fn diff_one_mismatch_reported() {
        let mut w = fig6_window();
        // Entry 8 whose prev_term (3) does not match last log term (4).
        assert_eq!(w.offer(e(8, 5, 3), Term(4)), WindowOutcome::Mismatch);
        assert_eq!(w.occupied(), 0);
    }

    #[test]
    fn figure7_shift_left_discards() {
        // Cached: (9,4,4) [term < 5 → dropped], (13,5,5) [out of window after
        // shift → dropped], (11,5,5) [kept].
        let mut w = fig6_window();
        assert_eq!(w.offer(e(9, 4, 4), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(11, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(13, 5, 5), Term(4)), WindowOutcome::Cached);
        // New entry (6,5,4) replaced index 6; log now ends at 6 with term 5.
        w.shift_to(LogIndex(6), Term(5));
        assert_eq!(w.base(), LogIndex(7));
        // Window now covers 7..=12: 9 dropped by term, 13 dropped by range.
        assert_eq!(w.cached_indices(), vec![LogIndex(11)]);
        assert!(w.adjacency_consistent());
    }

    #[test]
    fn flush_prunes_inconsistent_immediate_successor() {
        let mut w = fig6_window();
        // Cache (9,3,3): stale entry whose prev_term will not match the
        // incoming (8,5,4) of term 5.
        assert_eq!(w.offer(e(9, 3, 3), Term(4)), WindowOutcome::Cached);
        match w.offer(e(8, 5, 4), Term(4)) {
            WindowOutcome::Flush(run) => {
                assert_eq!(run.len(), 1, "stale successor must not flush");
                assert_eq!(run[0].index, LogIndex(8));
            }
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(w.occupied(), 0, "stale successor dropped");
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut w = fig6_window();
        assert_eq!(w.offer(e(10, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(10, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.occupied(), 1);
    }

    #[test]
    fn higher_term_duplicate_replaces() {
        let mut w = fig6_window();
        assert_eq!(w.offer(e(10, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(10, 6, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.get(LogIndex(10)).unwrap().term, Term(6));
        assert_eq!(w.occupied(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut w = fig6_window();
        w.offer(e(10, 4, 4), Term(4));
        w.clear();
        assert_eq!(w.occupied(), 0);
        assert!(w.cached_indices().is_empty());
    }

    #[test]
    fn offer_at_full_capacity_then_beyond() {
        // Fill every slot 1..capacity with a consistent chain (slot 0 cannot
        // be cached: diff == 1 always flushes), then confirm the window is
        // saturated and further-out entries bounce.
        let mut w = fig6_window();
        for i in 9..=13u64 {
            assert_eq!(w.offer(e(i, 5, 5), Term(4)), WindowOutcome::Cached);
        }
        assert_eq!(w.occupied(), 5);
        assert_eq!(w.offer(e(14, 5, 5), Term(4)), WindowOutcome::Beyond(e(14, 5, 5)));
        assert_eq!(w.occupied(), 5, "a bounced entry must not evict cached ones");
        // A conflicting re-offer inside the full window evicts the stale
        // suffix instead of growing past capacity.
        assert_eq!(w.offer(e(11, 7, 6), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.cached_indices(), vec![LogIndex(9), LogIndex(11)]);
        assert!(w.adjacency_consistent());
    }

    #[test]
    fn lower_term_duplicate_also_replaces() {
        // `offer` is last-writer-wins for a duplicate index: the freshest
        // leader message is authoritative even if its term is lower (the
        // higher-term copy must then have been from a deposed leader's
        // in-flight duplicate; neighbour pruning keeps adjacency consistent).
        let mut w = fig6_window();
        assert_eq!(w.offer(e(10, 6, 6), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(10, 5, 5), Term(4)), WindowOutcome::Cached);
        assert_eq!(w.get(LogIndex(10)).unwrap().term, Term(5));
        assert_eq!(w.occupied(), 1);
        assert!(w.adjacency_consistent());
    }

    #[test]
    fn window_wraps_after_repeated_flush_and_refill() {
        // Two full cache-then-flush cycles: the second reuses slots freed by
        // the first, so the base and slot ring must stay aligned.
        let mut w = SlidingWindow::new(3, LogIndex(0));
        // Cycle 1: cache 2,3 then flush 1..=3.
        assert_eq!(w.offer(e(2, 1, 1), Term(0)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(3, 1, 1), Term(0)), WindowOutcome::Cached);
        match w.offer(e(1, 1, 0), Term(0)) {
            WindowOutcome::Flush(run) => assert_eq!(run.len(), 3),
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(w.base(), LogIndex(4));
        assert_eq!(w.occupied(), 0);
        // Cycle 2: the window now covers 4..=6; 7 is beyond again.
        assert_eq!(w.offer(e(7, 1, 1), Term(1)), WindowOutcome::Beyond(e(7, 1, 1)));
        assert_eq!(w.offer(e(5, 1, 1), Term(0)), WindowOutcome::Cached);
        assert_eq!(w.offer(e(6, 1, 1), Term(0)), WindowOutcome::Cached);
        match w.offer(e(4, 1, 1), Term(1)) {
            WindowOutcome::Flush(run) => {
                let idx: Vec<u64> = run.iter().map(|e| e.index.0).collect();
                assert_eq!(idx, vec![4, 5, 6]);
            }
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(w.base(), LogIndex(7));
        assert_eq!(w.occupied(), 0);
        assert!(w.adjacency_consistent());
    }

    #[test]
    fn window_zero_still_detects_mismatch() {
        // Stock-Raft degeneration keeps the diff == 1 previous-entry check.
        let mut w = SlidingWindow::new(0, LogIndex(5));
        assert_eq!(w.offer(e(6, 2, 1), Term(2)), WindowOutcome::Mismatch);
        assert_eq!(w.offer(e(6, 2, 2), Term(2)), WindowOutcome::Flush(vec![e(6, 2, 2)]));
        assert_eq!(w.base(), LogIndex(7));
    }

    #[test]
    fn chain_flush_after_many_caches() {
        // Fill slots 2..=6 with a consistent chain, then complete it.
        let mut w = SlidingWindow::new(10, LogIndex(0));
        for i in (2..=6).rev() {
            assert_eq!(
                w.offer(e(i, 1, if i == 1 { 0 } else { 1 }), Term(0)),
                WindowOutcome::Cached
            );
        }
        match w.offer(e(1, 1, 0), Term(0)) {
            WindowOutcome::Flush(run) => {
                assert_eq!(run.len(), 6);
                assert_eq!(run.last().unwrap().index, LogIndex(6));
            }
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(w.base(), LogIndex(7));
    }
}

//! The leader's `VoteList` (paper Section III-B): an ordered list of
//! `(logIndex, Weakly Accepted Nodes, Strongly Accepted Nodes)` tuples
//! tracking which replicas have *received* versus *appended* each
//! uncommitted entry.
//!
//! * A `WEAK_ACCEPT` from follower `f` updates only the tuple with the same
//!   index; when weak ∪ strong reaches a majority the leader may answer the
//!   client early (Figure 10).
//! * A `STRONG_ACCEPT` with `lastIndex` is *cumulative*: `f` is added to the
//!   strong set of every tuple with index ≤ `lastIndex` (Figure 12), because
//!   the window flush preserves log continuity.
//! * Tuples whose strong set reaches the commit threshold are removed —
//!   "other votes no longer matter".
//!
//! Node sets are bitmaps indexed by membership position (≤ 64 replicas,
//! far above the paper's maximum of 9).

use nbr_types::{LogIndex, Origin, Term};
use std::collections::BTreeMap;

/// Per-entry vote state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteTuple {
    /// Term of the tracked entry.
    pub term: Term,
    /// Client that issued the entry, if any.
    pub origin: Option<Origin>,
    /// Bitmap of weakly-accepted members.
    pub weak: u64,
    /// Bitmap of strongly-accepted members (includes the leader).
    pub strong: u64,
    /// Strong accepts required to commit this entry (protocol-dependent:
    /// majority for Raft/NB-Raft, `k + F` for the CRaft family).
    pub commit_threshold: u32,
    /// Whether a WEAK_ACCEPT has already been sent to the client (send at
    /// most once per entry).
    pub weak_replied: bool,
}

impl VoteTuple {
    /// Members in weak ∪ strong.
    pub fn accepted_count(&self) -> u32 {
        (self.weak | self.strong).count_ones()
    }

    /// Members in strong.
    pub fn strong_count(&self) -> u32 {
        self.strong.count_ones()
    }

    /// Commit-ready?
    pub fn committable(&self) -> bool {
        self.strong_count() >= self.commit_threshold
    }
}

/// Events produced by feeding one acceptance into the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteOutcome {
    /// Entries that became committable, in index order, with their origins.
    /// The caller advances the commit index to the largest and replies
    /// `STRONG_ACCEPT` to each origin client.
    pub committed: Vec<(LogIndex, Term, Option<Origin>)>,
    /// Entries that just reached a weak majority (reply `WEAK_ACCEPT` once).
    pub weak_ready: Vec<(LogIndex, Term, Option<Origin>)>,
}

impl VoteOutcome {
    fn empty() -> VoteOutcome {
        VoteOutcome { committed: Vec::new(), weak_ready: Vec::new() }
    }
}

/// The ordered vote list.
#[derive(Debug, Clone, Default)]
pub struct VoteList {
    tuples: BTreeMap<LogIndex, VoteTuple>,
    /// Quorum size for weak-majority checks (majority of the group).
    quorum: u32,
}

impl VoteList {
    /// Create for a group where a weak majority is `quorum` members.
    pub fn new(quorum: u32) -> VoteList {
        VoteList { tuples: BTreeMap::new(), quorum }
    }

    /// Track a freshly indexed entry. `leader_bit` is the leader's membership
    /// bitmask (the leader appended locally, so it is strongly accepted).
    pub fn track(
        &mut self,
        index: LogIndex,
        term: Term,
        origin: Option<Origin>,
        leader_bit: u64,
        commit_threshold: u32,
    ) {
        self.tuples.insert(
            index,
            VoteTuple {
                term,
                origin,
                weak: 0,
                strong: leader_bit,
                commit_threshold,
                weak_replied: false,
            },
        );
    }

    /// Number of open tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples are open.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Borrow a tuple (tests / introspection).
    pub fn get(&self, index: LogIndex) -> Option<&VoteTuple> {
        self.tuples.get(&index)
    }

    /// The weak-majority threshold this list was built with.
    pub fn quorum(&self) -> u32 {
        self.quorum
    }

    /// Iterate all open tuples in index order (model checker / tests).
    pub fn iter(&self) -> impl Iterator<Item = (LogIndex, &VoteTuple)> {
        self.tuples.iter().map(|(&i, t)| (i, t))
    }

    /// Record a `WEAK_ACCEPT` for `index` from the member with bit `bit`
    /// (Section III-B2). Only the matching tuple is touched.
    pub fn weak_accept(&mut self, index: LogIndex, term: Term, bit: u64) -> VoteOutcome {
        let mut out = VoteOutcome::empty();
        if let Some(tp) = self.tuples.get_mut(&index) {
            if tp.term != term {
                return out; // acceptance of a different incarnation
            }
            tp.weak |= bit;
            if !tp.weak_replied && tp.accepted_count() >= self.quorum {
                tp.weak_replied = true;
                out.weak_ready.push((index, tp.term, tp.origin));
            }
        }
        out
    }

    /// Record a cumulative `STRONG_ACCEPT` up to `last_index` from the
    /// member with bit `bit` (Section III-B3b). `current_term` gates
    /// commitment: only entries of the leader's current term commit by
    /// counting (standard Raft safety); earlier entries commit transitively
    /// when a later current-term entry commits.
    pub fn strong_accept(
        &mut self,
        last_index: LogIndex,
        bit: u64,
        current_term: Term,
    ) -> VoteOutcome {
        let mut out = VoteOutcome::empty();
        for (&idx, tp) in self.tuples.range_mut(..=last_index) {
            tp.strong |= bit;
            // Strong accept also implies reception for the weak check.
            if !tp.weak_replied && tp.accepted_count() >= self.quorum {
                tp.weak_replied = true;
                out.weak_ready.push((idx, tp.term, tp.origin));
            }
        }
        // Find the highest committable current-term entry; everything below
        // it commits transitively.
        let mut commit_up_to: Option<LogIndex> = None;
        for (&idx, tp) in self.tuples.range(..=last_index) {
            if tp.term == current_term && tp.committable() {
                commit_up_to = Some(idx);
            }
        }
        if let Some(limit) = commit_up_to {
            let committed: Vec<LogIndex> = self.tuples.range(..=limit).map(|(&i, _)| i).collect();
            for idx in committed {
                if let Some(tp) = self.tuples.remove(&idx) {
                    out.committed.push((idx, tp.term, tp.origin));
                }
            }
        }
        out
    }

    /// Lower the commit threshold of every open tuple to at most
    /// `threshold` — the CRaft full-copy fallback / ECRaft degradation when
    /// replicas fail (entries coded for `k + F` acks can no longer gather
    /// them). Re-evaluates commitability under the new thresholds.
    pub fn lower_thresholds(&mut self, threshold: u32, current_term: Term) -> VoteOutcome {
        for tp in self.tuples.values_mut() {
            if tp.commit_threshold > threshold {
                tp.commit_threshold = threshold;
            }
        }
        self.strong_accept(LogIndex(u64::MAX), 0, current_term)
    }

    /// Indices of all open tuples, ascending.
    pub fn open_indices(&self) -> Vec<LogIndex> {
        self.tuples.keys().copied().collect()
    }

    /// Leadership lost (Figure 11): clear everything, returning the origins
    /// of open tuples so the leader can reply `LEADER_CHANGED`.
    pub fn clear(&mut self) -> Vec<Option<Origin>> {
        let origins = self.tuples.values().map(|t| t.origin).collect();
        self.tuples.clear();
        origins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::{ClientId, RequestId};

    const LEADER: u64 = 1 << 0;
    const N1: u64 = 1 << 1;
    const N2: u64 = 1 << 2;

    fn origin(c: u64) -> Option<Origin> {
        Some(Origin { client: ClientId(c), request: RequestId(1) })
    }

    /// Figure 10: three replicas; one WEAK_ACCEPT plus the leader's strong
    /// accept forms a majority → weak reply.
    #[test]
    fn figure10_weak_majority() {
        let mut vl = VoteList::new(2);
        vl.track(LogIndex(7), Term(2), origin(1), LEADER, 2);
        let out = vl.weak_accept(LogIndex(7), Term(2), N1);
        assert_eq!(out.weak_ready, vec![(LogIndex(7), Term(2), origin(1))]);
        assert!(out.committed.is_empty());
        // A second weak accept must not trigger a duplicate reply.
        let out = vl.weak_accept(LogIndex(7), Term(2), N2);
        assert!(out.weak_ready.is_empty());
    }

    /// Figure 12: STRONG_ACCEPT(5) marks strong for indices ≤ 5 and commits.
    #[test]
    fn figure12_cumulative_strong() {
        let mut vl = VoteList::new(2);
        for i in 3..=6u64 {
            vl.track(LogIndex(i), Term(2), origin(i), LEADER, 2);
        }
        let out = vl.strong_accept(LogIndex(5), N1, Term(2));
        let committed: Vec<u64> = out.committed.iter().map(|(i, _, _)| i.0).collect();
        assert_eq!(committed, vec![3, 4, 5]);
        assert_eq!(vl.len(), 1, "index 6 still open");
        assert!(vl.get(LogIndex(6)).is_some());
    }

    #[test]
    fn strong_implies_weak_reply() {
        let mut vl = VoteList::new(2);
        vl.track(LogIndex(1), Term(1), origin(1), LEADER, 3);
        // Threshold 3 (e.g. CRaft): one strong ack is not enough to commit
        // but reaches the weak majority.
        let out = vl.strong_accept(LogIndex(1), N1, Term(1));
        assert!(out.committed.is_empty());
        assert_eq!(out.weak_ready.len(), 1);
        // Second follower commits it.
        let out = vl.strong_accept(LogIndex(1), N2, Term(1));
        assert_eq!(out.committed.len(), 1);
        assert!(out.weak_ready.is_empty(), "weak already replied");
    }

    #[test]
    fn old_term_entries_commit_transitively() {
        let mut vl = VoteList::new(2);
        // Entry 1 from term 1 (re-replicated by a term-2 leader), entry 2 of
        // current term 2.
        vl.track(LogIndex(1), Term(1), origin(1), LEADER, 2);
        vl.track(LogIndex(2), Term(2), origin(2), LEADER, 2);
        // Strong ack covering only entry 1: no commit (old term).
        let out = vl.strong_accept(LogIndex(1), N1, Term(2));
        assert!(out.committed.is_empty(), "old-term entry must not commit by counting");
        // Strong ack covering entry 2: both commit.
        let out = vl.strong_accept(LogIndex(2), N1, Term(2));
        let committed: Vec<u64> = out.committed.iter().map(|(i, _, _)| i.0).collect();
        assert_eq!(committed, vec![1, 2]);
    }

    #[test]
    fn weak_accept_wrong_term_ignored() {
        let mut vl = VoteList::new(2);
        vl.track(LogIndex(1), Term(2), None, LEADER, 2);
        let out = vl.weak_accept(LogIndex(1), Term(1), N1);
        assert!(out.weak_ready.is_empty());
        assert_eq!(vl.get(LogIndex(1)).unwrap().weak, 0);
    }

    #[test]
    fn weak_accept_unknown_index_ignored() {
        let mut vl = VoteList::new(2);
        let out = vl.weak_accept(LogIndex(9), Term(1), N1);
        assert!(out.weak_ready.is_empty() && out.committed.is_empty());
    }

    #[test]
    fn duplicate_strong_acks_do_not_double_count() {
        let mut vl = VoteList::new(2);
        vl.track(LogIndex(1), Term(1), None, LEADER, 3);
        vl.strong_accept(LogIndex(1), N1, Term(1));
        let out = vl.strong_accept(LogIndex(1), N1, Term(1));
        assert!(out.committed.is_empty(), "same node acking twice is one vote");
        assert_eq!(vl.get(LogIndex(1)).unwrap().strong_count(), 2);
    }

    #[test]
    fn clear_returns_origins_figure11() {
        let mut vl = VoteList::new(2);
        vl.track(LogIndex(1), Term(2), origin(1), LEADER, 2);
        vl.track(LogIndex(2), Term(2), origin(2), LEADER, 2);
        let origins = vl.clear();
        assert_eq!(origins.len(), 2);
        assert!(vl.is_empty());
    }
}

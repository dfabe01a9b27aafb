//! Fragment encoding and reconstruction for the CRaft / ECRaft variants.
//!
//! The leader holds the full payload (it proposed the entry) and sends each
//! follower one Reed–Solomon shard. After a leader change, the new leader may
//! hold only its own shard for some entries; [`FragmentStore`] gathers shards
//! pulled from peers until `k` distinct ones allow reconstruction. CRaft's
//! commit rule (`k + F` acks) guarantees that for any committed entry, `k`
//! shards survive any `F` failures — reconstruction of committed data is
//! always possible.

use bytes::Bytes;
use nbr_erasure::{ReedSolomon, Shard};
use nbr_storage::LogStore;
use nbr_types::{Entry, Fragment, LogIndex, Payload, Term};
use std::collections::BTreeMap;

/// Encode `payload` into `n` shards with `k` data shards, as [`Fragment`]s.
pub fn encode_fragments(payload: &Bytes, k: usize, n: usize) -> Vec<Fragment> {
    debug_assert!(k >= 1 && k <= n && n <= 255);
    let rs = ReedSolomon::new(k, n).expect("validated geometry"); // check:allow(L1): k/n come from ProtocolConfig::fragment_k, always a legal geometry
    rs.encode(payload)
        .into_iter()
        .map(|s| Fragment {
            shard: s.id,
            k: k as u8,
            n: n as u8,
            orig_len: payload.len() as u32,
            data: Bytes::from(s.data),
        })
        .collect()
}

/// Attempt to reconstruct a payload from gathered fragments. Returns `None`
/// until `k` distinct shards of a consistent geometry are present.
pub fn reconstruct(frags: &[Fragment]) -> Option<Bytes> {
    let first = frags.first()?;
    // A k=1 fragment IS the payload (full-copy pseudo-fragment).
    if first.k == 1 {
        return Some(first.data.slice(..(first.orig_len as usize).min(first.data.len())));
    }
    let (k, n, orig_len) = (first.k, first.n, first.orig_len);
    let consistent: Vec<&Fragment> =
        frags.iter().filter(|f| f.k == k && f.n == n && f.orig_len == orig_len).collect();
    let mut seen = [false; 256];
    let mut shards: Vec<Shard> = Vec::new();
    for f in consistent {
        if !seen[f.shard as usize] {
            seen[f.shard as usize] = true;
            shards.push(Shard { id: f.shard, data: f.data.to_vec() });
        }
    }
    if shards.len() < k as usize {
        return None;
    }
    let rs = ReedSolomon::new(k as usize, n as usize).ok()?;
    rs.reconstruct(&shards, orig_len as usize).ok().map(Bytes::from)
}

/// A replica's whole CRaft recovery state: the shards gathered per log
/// index, the payloads decoded from them and the one outstanding pull. Only
/// a fragmenting preset ever fills it; for every other preset it stays
/// empty, with nothing allocated.
#[derive(Debug, Clone, Default, Hash)]
pub struct FragmentStore {
    by_index: BTreeMap<LogIndex, (Term, Vec<Fragment>)>,
    /// Full payloads decoded for fragment entries of our log. Kept after
    /// apply: a leader repairs lagging followers from them.
    payloads: BTreeMap<LogIndex, Bytes>,
    /// The index a `PullFragments` was sent for and has not yet decoded.
    pull: Option<LogIndex>,
}

impl FragmentStore {
    /// Empty store.
    pub fn new() -> FragmentStore {
        FragmentStore::default()
    }

    /// Add a shard for `(index, term)`. Shards of an older term for the same
    /// index are discarded; duplicates of the same shard id are ignored.
    pub fn add(&mut self, index: LogIndex, term: Term, frag: Fragment) {
        let slot = self.by_index.entry(index).or_insert_with(|| (term, Vec::new()));
        if slot.0 < term {
            *slot = (term, Vec::new());
        } else if slot.0 > term {
            return;
        }
        if !slot.1.iter().any(|f| f.shard == frag.shard && f.k == frag.k && f.n == frag.n) {
            slot.1.push(frag);
        }
    }

    /// Try reconstructing the payload for `index` at `term`.
    pub fn try_reconstruct(&self, index: LogIndex, term: Term) -> Option<Bytes> {
        let (t, frags) = self.by_index.get(&index)?;
        if *t != term {
            return None;
        }
        reconstruct(frags)
    }

    /// Take the shards a peer pushed. Only shards of entries `log` holds at
    /// the same term are kept; each is pooled with our own shard of the
    /// entry, and an entry whose shards now decode gets its payload (which
    /// also ends a pull waiting on it).
    pub(crate) fn absorb(&mut self, pushed: Vec<(LogIndex, Term, Fragment)>, log: &impl LogStore) {
        for (index, term, frag) in pushed {
            if log.term_of(index) != Some(term) {
                continue;
            }
            self.add(index, term, frag);
            if self.payloads.contains_key(&index) {
                continue;
            }
            if let Some(Entry { payload: Payload::Fragment(own), .. }) = log.get(index) {
                self.add(index, term, own);
            }
            if let Some(payload) = self.try_reconstruct(index, term) {
                self.payloads.insert(index, payload);
                if self.pull == Some(index) {
                    self.pull = None;
                }
            }
        }
    }

    /// The decoded payload of the fragment entry at `index`, if any.
    pub(crate) fn payload(&self, index: LogIndex) -> Option<&Bytes> {
        self.payloads.get(&index)
    }

    /// Mark a pull for `index` as sent. False when one is already out for
    /// it, so a stalled apply or repair asks its peers once per index.
    pub(crate) fn start_pull(&mut self, index: LogIndex) -> bool {
        if self.pull == Some(index) {
            return false;
        }
        self.pull = Some(index);
        true
    }

    /// Shards held for an index (introspection).
    pub fn shard_count(&self, index: LogIndex) -> usize {
        self.by_index.get(&index).map_or(0, |(_, f)| f.len())
    }

    /// Drop shards for indices at or below `index` (applied). Decoded
    /// payloads stay until the log is truncated or replaced by a snapshot.
    pub fn release_through(&mut self, index: LogIndex) {
        self.by_index = self.by_index.split_off(&index.next());
    }

    /// Drop shards and payloads for indices at or above `index` (the log
    /// was truncated there: what they decode is no longer our entry).
    pub(crate) fn truncate_from(&mut self, index: LogIndex) {
        self.by_index.split_off(&index);
        self.payloads.split_off(&index);
    }

    /// Number of indices tracked.
    pub fn len(&self) -> usize {
        self.by_index.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.by_index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_storage::MemLog;

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i * 13 + 1) as u8).collect::<Vec<u8>>())
    }

    /// A log holding `own` at indices `1..=last`, all of term 1.
    fn shard_log(own: &Fragment, last: u64) -> MemLog {
        let mut log = MemLog::new();
        for i in 1..=last {
            let prev_term = Term(if i == 1 { 0 } else { 1 });
            let payload = Payload::Fragment(own.clone());
            let entry =
                Entry { index: LogIndex(i), term: Term(1), prev_term, origin: None, payload };
            log.append(entry).unwrap();
        }
        log
    }

    /// A store that decoded the entries at `1..=last` of [`shard_log`] from
    /// one pushed shard each.
    fn decoded(frags: &[Fragment], last: u64) -> FragmentStore {
        let log = shard_log(&frags[0], last);
        let mut store = FragmentStore::new();
        store.absorb((1..=last).map(|i| (LogIndex(i), Term(1), frags[2].clone())).collect(), &log);
        store
    }

    #[test]
    fn truncate_from_drops_payloads_at_and_above_its_index() {
        let p = payload(90);
        let frags = encode_fragments(&p, 2, 3);
        let mut store = decoded(&frags, 3);
        assert!((1..=3).all(|i| store.payload(LogIndex(i)) == Some(&p)));
        store.truncate_from(LogIndex(2));
        assert_eq!(store.payload(LogIndex(1)), Some(&p));
        assert_eq!(store.payload(LogIndex(2)), None);
        assert_eq!(store.payload(LogIndex(3)), None);
        assert_eq!(store.shard_count(LogIndex(2)), 0);
    }

    #[test]
    fn release_through_drops_shards_and_keeps_payloads() {
        let p = payload(90);
        let frags = encode_fragments(&p, 2, 3);
        let mut store = decoded(&frags, 3);
        store.release_through(LogIndex(2));
        assert_eq!(store.shard_count(LogIndex(2)), 0);
        assert_eq!(store.shard_count(LogIndex(3)), 2);
        // Applied entries stay repairable: their payloads outlive the shards.
        assert!((1..=3).all(|i| store.payload(LogIndex(i)) == Some(&p)));
    }

    #[test]
    fn a_pull_is_sent_once_per_index_and_ends_when_the_entry_decodes() {
        let p = payload(90);
        let frags = encode_fragments(&p, 2, 3);
        let log = shard_log(&frags[0], 2);
        let mut store = FragmentStore::new();
        assert!(store.start_pull(LogIndex(2)));
        assert!(!store.start_pull(LogIndex(2)), "one pull per index");
        // A shard of another term than the entry we hold is of no use.
        store.absorb(vec![(LogIndex(2), Term(2), frags[1].clone())], &log);
        assert_eq!(store.payload(LogIndex(2)), None);
        assert!(!store.start_pull(LogIndex(2)), "still pulling");
        // With our own shard, one more decodes the entry.
        store.absorb(vec![(LogIndex(2), Term(1), frags[1].clone())], &log);
        assert_eq!(store.payload(LogIndex(2)), Some(&p));
        assert!(store.start_pull(LogIndex(2)), "decoding ended the pull");
    }

    #[test]
    fn encode_reconstruct_round_trip() {
        let p = payload(1000);
        let frags = encode_fragments(&p, 2, 3);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].data.len(), 500);
        // Any two shards reconstruct.
        for pair in [[0, 1], [0, 2], [1, 2]] {
            let subset = vec![frags[pair[0]].clone(), frags[pair[1]].clone()];
            assert_eq!(reconstruct(&subset).unwrap(), p, "pair {pair:?}");
        }
        assert!(reconstruct(&frags[..1]).is_none());
    }

    #[test]
    fn k1_pseudo_fragment_is_payload() {
        let p = payload(64);
        let frag = Fragment { shard: 0, k: 1, n: 1, orig_len: 64, data: p.clone() };
        assert_eq!(reconstruct(&[frag]).unwrap(), p);
    }

    #[test]
    fn store_gathers_until_k() {
        let p = payload(300);
        let frags = encode_fragments(&p, 3, 5);
        let mut store = FragmentStore::new();
        store.add(LogIndex(7), Term(2), frags[4].clone());
        assert!(store.try_reconstruct(LogIndex(7), Term(2)).is_none());
        store.add(LogIndex(7), Term(2), frags[1].clone());
        // Duplicate shard does not help.
        store.add(LogIndex(7), Term(2), frags[1].clone());
        assert_eq!(store.shard_count(LogIndex(7)), 2);
        assert!(store.try_reconstruct(LogIndex(7), Term(2)).is_none());
        store.add(LogIndex(7), Term(2), frags[0].clone());
        assert_eq!(store.try_reconstruct(LogIndex(7), Term(2)).unwrap(), p);
        // Wrong term yields nothing.
        assert!(store.try_reconstruct(LogIndex(7), Term(3)).is_none());
    }

    #[test]
    fn newer_term_replaces_older_shards() {
        let p = payload(90);
        let old = encode_fragments(&p, 2, 3);
        let newer = encode_fragments(&p, 2, 3);
        let mut store = FragmentStore::new();
        store.add(LogIndex(1), Term(1), old[0].clone());
        store.add(LogIndex(1), Term(2), newer[1].clone());
        assert_eq!(store.shard_count(LogIndex(1)), 1, "old-term shard dropped");
        store.add(LogIndex(1), Term(1), old[2].clone());
        assert_eq!(store.shard_count(LogIndex(1)), 1, "stale shard ignored");
    }

    #[test]
    fn release_through_drops_prefix() {
        let p = payload(30);
        let frags = encode_fragments(&p, 2, 3);
        let mut store = FragmentStore::new();
        for i in 1..=4u64 {
            store.add(LogIndex(i), Term(1), frags[0].clone());
        }
        store.release_through(LogIndex(2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.shard_count(LogIndex(2)), 0);
        assert_eq!(store.shard_count(LogIndex(3)), 1);
    }

    #[test]
    fn mixed_geometry_filtered() {
        // Shards from different (k, n) encodings of the same index must not
        // be combined.
        let p = payload(120);
        let a = encode_fragments(&p, 2, 4);
        let b = encode_fragments(&p, 3, 4);
        let mixed = vec![a[0].clone(), b[1].clone(), b[2].clone()];
        // First fragment fixes geometry (2, 4): only a[0] matches => not enough.
        assert!(reconstruct(&mixed).is_none());
        let enough = vec![a[0].clone(), b[1].clone(), a[3].clone()];
        assert_eq!(reconstruct(&enough).unwrap(), p);
    }
}

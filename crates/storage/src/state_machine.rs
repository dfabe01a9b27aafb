//! The replicated state machine interface and a simple key-value machine.
//!
//! Committed entries are applied in index order. Machines must be
//! deterministic (identical apply sequences produce identical snapshots) and
//! idempotent per `(client, request)` pair, because NB-Raft clients retry
//! their whole `opList` on leader change (Section III-C) — a retried request
//! may already be committed. The [`DedupTable`] is part of a machine's state:
//! the compaction image ([`StateMachine::checkpoint`]) carries it, so a
//! replica restored from that image skips the same duplicates as one that
//! applied every entry.

use bytes::Bytes;
use nbr_types::{ClientId, Entry, LogIndex, Payload, RequestId, Result};
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic state machine fed by committed log entries.
pub trait StateMachine {
    /// Apply one committed entry; returns an application-level result blob
    /// (empty for no-ops and fragments).
    fn apply(&mut self, entry: &Entry) -> Bytes;

    /// Index of the last applied entry.
    fn applied_index(&self) -> LogIndex;

    /// Serialize the machine's data, deterministically: replicas that
    /// applied the same writes return equal bytes. Convergence checks
    /// compare these images; the dedup table is not part of them.
    fn snapshot(&self) -> Bytes;

    /// The `(client, request)` pairs this machine has applied.
    fn dedup(&self) -> &DedupTable;

    /// The compaction image: [`Self::snapshot`] followed by
    /// [`Self::dedup`] ([`DedupTable::encode`]).
    fn checkpoint(&self) -> Bytes {
        let mut out = self.snapshot().to_vec();
        self.dedup().encode(&mut out);
        Bytes::from(out)
    }

    /// Replace the state from a [`Self::checkpoint`] taken at
    /// `last_applied`.
    fn restore(&mut self, checkpoint: &Bytes, last_applied: LogIndex) -> Result<()>;
}

/// Tracks `(client, request)` pairs already applied, so retries are no-ops.
///
/// Exact per client: a contiguous floor (every id from 1 up to it applied)
/// plus the ids applied above it. Requests commit out of id order — a
/// request retried after a leader change lands behind its successors — so
/// a high-water mark would refuse the retry of a request that never
/// applied. A client re-sends each request until it commits, so the ids
/// above the floor are at most its unconfirmed requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupTable {
    clients: BTreeMap<ClientId, Applied>,
}

/// One client's applied request ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Applied {
    floor: u64,
    above: BTreeSet<u64>,
}

impl DedupTable {
    /// Record an application; returns `false` if it was already applied.
    pub fn insert(&mut self, client: ClientId, request: RequestId) -> bool {
        let a = self.clients.entry(client).or_default();
        // The next id in order moves the floor without touching the set.
        if request.0 == a.floor + 1 {
            a.floor += 1;
        } else if request.0 <= a.floor || !a.above.insert(request.0) {
            return false;
        }
        while a.above.remove(&(a.floor + 1)) {
            a.floor += 1;
        }
        true
    }

    /// Has this request already been applied?
    pub fn contains(&self, client: ClientId, request: RequestId) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|a| request.0 <= a.floor || a.above.contains(&request.0))
    }

    /// Number of tracked clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True when no client has been seen.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Append the table to a compaction image, as little-endian `u64`s: the
    /// client count, then per client its id, floor, the count of ids above
    /// the floor and those ids.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut put = |word: u64| out.extend_from_slice(&word.to_le_bytes());
        put(self.clients.len() as u64);
        for (client, a) in &self.clients {
            put(client.0);
            put(a.floor);
            put(a.above.len() as u64);
            a.above.iter().for_each(|&r| put(r));
        }
    }

    /// The table [`Self::encode`] wrote as the whole of `b`; `None` when `b`
    /// is truncated or has bytes past the table.
    pub fn decode(b: &[u8]) -> Option<DedupTable> {
        let chunks = b.chunks_exact(8);
        if !chunks.remainder().is_empty() {
            return None;
        }
        let mut words = chunks.filter_map(|w| w.try_into().ok()).map(u64::from_le_bytes);
        let mut clients = BTreeMap::new();
        for _ in 0..words.next()? {
            let (client, floor, n) = (words.next()?, words.next()?, words.next()?);
            let above = (0..n).map(|_| words.next()).collect::<Option<_>>()?;
            clients.insert(ClientId(client), Applied { floor, above });
        }
        words.next().is_none().then_some(DedupTable { clients })
    }
}

/// A minimal deterministic KV machine: payload `key=value` sets, anything
/// else is stored under a synthetic key. Used by integration tests to check
/// replica convergence byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    dedup: DedupTable,
    applied: LogIndex,
}

impl KvStore {
    /// Empty store.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Lookup a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl StateMachine for KvStore {
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
        match data.iter().position(|&b| b == b'=') {
            Some(eq) => {
                self.map.insert(data[..eq].to_vec(), data[eq + 1..].to_vec());
            }
            None => {
                self.map.insert(entry.index.0.to_be_bytes().to_vec(), data.to_vec());
            }
        }
        Bytes::from_static(b"ok")
    }

    fn applied_index(&self) -> LogIndex {
        self.applied
    }

    fn snapshot(&self) -> Bytes {
        // length-prefixed key/value pairs, deterministic (BTreeMap order).
        let mut out = Vec::new();
        out.extend_from_slice(&(self.map.len() as u64).to_le_bytes());
        for (k, v) in &self.map {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        Bytes::from(out)
    }

    fn dedup(&self) -> &DedupTable {
        &self.dedup
    }

    fn restore(&mut self, checkpoint: &Bytes, last_applied: LogIndex) -> Result<()> {
        let mut map = BTreeMap::new();
        let b = &checkpoint[..];
        let err = || nbr_types::Error::Storage("corrupt kv snapshot".into());
        if b.len() < 8 {
            return Err(err());
        }
        let n = u64::from_le_bytes(b[..8].try_into().map_err(|_| err())?) as usize;
        let mut pos = 8usize;
        for _ in 0..n {
            if b.len() < pos + 4 {
                return Err(err());
            }
            let klen = u32::from_le_bytes(b[pos..pos + 4].try_into().map_err(|_| err())?) as usize;
            pos += 4;
            if b.len() < pos + klen + 4 {
                return Err(err());
            }
            let k = b[pos..pos + klen].to_vec();
            pos += klen;
            let vlen = u32::from_le_bytes(b[pos..pos + 4].try_into().map_err(|_| err())?) as usize;
            pos += 4;
            if b.len() < pos + vlen {
                return Err(err());
            }
            let v = b[pos..pos + vlen].to_vec();
            pos += vlen;
            map.insert(k, v);
        }
        self.dedup = DedupTable::decode(&b[pos..]).ok_or_else(err)?;
        self.map = map;
        self.applied = last_applied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbr_types::{Origin, Term};

    fn data_entry(i: u64, payload: &[u8], origin: Option<(u64, u64)>) -> Entry {
        Entry::data(
            LogIndex(i),
            Term(1),
            Term(if i == 1 { 0 } else { 1 }),
            origin.map(|(c, r)| Origin { client: ClientId(c), request: RequestId(r) }),
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn kv_set_and_get() {
        let mut kv = KvStore::new();
        kv.apply(&data_entry(1, b"temp=21.5", None));
        kv.apply(&data_entry(2, b"humidity=40", None));
        assert_eq!(kv.get(b"temp"), Some(b"21.5".as_ref()));
        assert_eq!(kv.get(b"humidity"), Some(b"40".as_ref()));
        assert_eq!(kv.applied_index(), LogIndex(2));
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn keyless_payload_stored_by_index() {
        let mut kv = KvStore::new();
        kv.apply(&data_entry(1, b"blob", None));
        assert_eq!(kv.get(&1u64.to_be_bytes()), Some(b"blob".as_ref()));
    }

    #[test]
    fn duplicate_request_is_ignored() {
        let mut kv = KvStore::new();
        kv.apply(&data_entry(1, b"k=1", Some((7, 1))));
        let r = kv.apply(&data_entry(2, b"k=2", Some((7, 1))));
        assert_eq!(&r[..], b"dup");
        assert_eq!(kv.get(b"k"), Some(b"1".as_ref()), "retry must not re-apply");
        // A later request from the same client applies normally.
        kv.apply(&data_entry(3, b"k=3", Some((7, 2))));
        assert_eq!(kv.get(b"k"), Some(b"3".as_ref()));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn out_of_order_apply_panics() {
        let mut kv = KvStore::new();
        kv.apply(&data_entry(2, b"a=1", None));
        kv.apply(&data_entry(1, b"b=2", None));
    }

    #[test]
    fn noop_entries_do_nothing() {
        let mut kv = KvStore::new();
        let noop = Entry::noop(LogIndex(1), Term(1), Term(0));
        assert!(kv.apply(&noop).is_empty());
        assert!(kv.is_empty());
        assert_eq!(kv.applied_index(), LogIndex(1));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut kv = KvStore::new();
        for i in 1..=20u64 {
            kv.apply(&data_entry(i, format!("key{i}=val{i}").as_bytes(), None));
        }
        let mut fresh = KvStore::new();
        fresh.restore(&kv.checkpoint(), LogIndex(20)).unwrap();
        assert_eq!(fresh.checkpoint(), kv.checkpoint());
        assert_eq!(fresh.applied_index(), LogIndex(20));
        assert_eq!(fresh.get(b"key7"), Some(b"val7".as_ref()));
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut kv = KvStore::new();
        assert!(kv.restore(&Bytes::from_static(b"junk"), LogIndex(1)).is_err());
        let truncated = {
            let mut kv2 = KvStore::new();
            kv2.apply(&data_entry(1, b"a=b", None));
            let s = kv2.checkpoint();
            s.slice(..s.len() - 1)
        };
        assert!(kv.restore(&truncated, LogIndex(1)).is_err());
    }

    #[test]
    fn dedup_table_semantics() {
        let mut d = DedupTable::default();
        assert!(d.insert(ClientId(1), RequestId(5)));
        assert!(!d.insert(ClientId(1), RequestId(5)));
        assert!(d.insert(ClientId(1), RequestId(4)), "an older id that never applied applies");
        assert!(!d.insert(ClientId(1), RequestId(4)));
        assert!(d.insert(ClientId(2), RequestId(1)));
        assert!(!d.contains(ClientId(1), RequestId(2)));
        assert!(!d.contains(ClientId(3), RequestId(1)));
        assert_eq!(d.len(), 2);
        // Filling the gap below folds every id into the floor.
        for r in 1..=3 {
            assert!(d.insert(ClientId(1), RequestId(r)));
        }
        assert_eq!(d.clients[&ClientId(1)], Applied { floor: 5, above: BTreeSet::new() });
        assert!(d.contains(ClientId(1), RequestId(2)));
    }

    /// A request retried after a leader change commits behind a later one
    /// of the same client; it has never been applied, so it applies.
    #[test]
    fn a_request_committed_behind_a_later_one_still_applies() {
        let mut kv = KvStore::new();
        assert_eq!(&kv.apply(&data_entry(1, b"k=2", Some((7, 2))))[..], b"ok");
        assert_eq!(&kv.apply(&data_entry(2, b"j=1", Some((7, 1))))[..], b"ok");
        assert_eq!(&kv.apply(&data_entry(3, b"j=9", Some((7, 1))))[..], b"dup");
        assert_eq!(kv.get(b"j"), Some(b"1".as_ref()));
    }

    #[test]
    fn dedup_table_round_trips_and_rejects_a_truncated_image() {
        let mut d = DedupTable::default();
        for (c, r) in [(1, 1), (1, 2), (1, 5), (1, 9), (4, 3)] {
            d.insert(ClientId(c), RequestId(r));
        }
        let mut image = Vec::new();
        d.encode(&mut image);
        assert_eq!(DedupTable::decode(&image), Some(d));
        for cut in [1, 8, 9] {
            assert_eq!(DedupTable::decode(&image[..image.len() - cut]), None, "cut {cut}");
        }
        image.extend_from_slice(&[0; 8]);
        assert_eq!(DedupTable::decode(&image), None, "bytes past the table");
    }

    /// A replica restored from a snapshot skips the duplicates every other
    /// replica skips, and ends with the same image.
    #[test]
    fn a_restored_machine_skips_a_duplicate_applied_before_its_snapshot() {
        let mut kv = KvStore::new();
        kv.apply(&data_entry(1, b"k=1", Some((7, 1))));
        let mut restored = KvStore::new();
        restored.restore(&kv.checkpoint(), LogIndex(1)).unwrap();
        let retry = data_entry(2, b"k=2", Some((7, 1)));
        assert_eq!(&restored.apply(&retry)[..], b"dup");
        assert_eq!(&kv.apply(&retry)[..], b"dup");
        assert_eq!(restored.checkpoint(), kv.checkpoint());
    }
}

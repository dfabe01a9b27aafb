//! Model-based property tests for the time-series store: arbitrary batch
//! sequences against a naive reference model, across flush thresholds, plus
//! snapshot round-trip equivalence.

use bytes::Bytes;
use nbr_storage::{encode_batch, Point, StateMachine, TsStore};
use nbr_types::{Entry, LogIndex, Term};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0u64..6, 0u64..1000, -1000.0f64..1000.0).prop_map(|(series, timestamp, value)| Point {
            series,
            timestamp,
            value,
        }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_reference_model(
        batches in proptest::collection::vec(arb_points(), 1..30),
        flush_threshold in 1usize..64,
        query in (0u64..6, 0u64..500, 500u64..1000),
    ) {
        let mut ts = TsStore::new(flush_threshold);
        // Reference: series -> multiset of (timestamp, value-bits).
        let mut model: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();

        for (i, points) in batches.iter().enumerate() {
            let entry = Entry::data(
                LogIndex(i as u64 + 1),
                Term(1),
                Term(if i == 0 { 0 } else { 1 }),
                None,
                encode_batch(points, 0),
            );
            ts.apply(&entry);
            for p in points {
                model.entry(p.series).or_default().push((p.timestamp, p.value.to_bits()));
            }
        }

        // Totals agree.
        let model_total: usize = model.values().map(|v| v.len()).sum();
        prop_assert_eq!(ts.total_points() as usize, model_total);
        prop_assert_eq!(ts.series_count(), model.len());

        // Range query agrees with the model (as multisets, sorted by ts).
        let (series, start, end) = query;
        let got: Vec<(u64, u64)> = ts
            .query_range(series, start, end)
            .into_iter()
            .map(|(t, v)| (t, v.to_bits()))
            .collect();
        let mut expect: Vec<(u64, u64)> = model
            .get(&series)
            .map(|v| v.iter().copied().filter(|&(t, _)| t >= start && t < end).collect())
            .unwrap_or_default();
        expect.sort_by_key(|&(t, _)| t);
        // Same multiset and both sorted by timestamp; equal timestamps may
        // order values differently, so compare sorted-by-(ts,bits).
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got_sorted, expect);
        // And the returned order is timestamp-monotone.
        prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));

        // latest() agrees with the model's max timestamp.
        let model_latest = model.get(&series).and_then(|v| v.iter().map(|&(t, _)| t).max());
        prop_assert_eq!(ts.latest(series).map(|(t, _)| t), model_latest);
    }

    #[test]
    fn snapshot_restore_preserves_queries(
        batches in proptest::collection::vec(arb_points(), 1..15),
        flush_threshold in 1usize..16,
    ) {
        let mut ts = TsStore::new(flush_threshold);
        for (i, points) in batches.iter().enumerate() {
            let entry = Entry::data(
                LogIndex(i as u64 + 1),
                Term(1),
                Term(if i == 0 { 0 } else { 1 }),
                None,
                encode_batch(points, 0),
            );
            ts.apply(&entry);
        }
        let image = ts.checkpoint();
        let mut back = TsStore::new(flush_threshold);
        back.restore(&Bytes::from(image.to_vec()), LogIndex(batches.len() as u64)).unwrap();
        prop_assert_eq!(back.total_points(), ts.total_points());
        for series in 0..6u64 {
            let a = ts.query_range(series, 0, u64::MAX);
            let b = back.query_range(series, 0, u64::MAX);
            let norm = |v: Vec<(u64, f64)>| {
                let mut v: Vec<(u64, u64)> = v.into_iter().map(|(t, x)| (t, x.to_bits())).collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(norm(a), norm(b), "series {}", series);
        }
        // Restored images are canonical: checkpointing again is identical.
        prop_assert_eq!(back.checkpoint(), ts.checkpoint());
    }
}

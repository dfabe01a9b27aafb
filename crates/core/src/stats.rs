//! A replica's protocol counters, declared once.
//!
//! Each row of the `node_stats!` table below is one counter: its
//! [`NodeStats`] field, the registry name a harness publishes it under and
//! its doc. The struct, [`NodeStats::NAMES`], [`NodeStats::values`] and the
//! `+=` that sums replicas all come from the rows, so a harness publishes or
//! sums every counter without naming one, and a new counter is one row.

/// Declares [`NodeStats`] from its rows (see the module doc).
macro_rules! node_stats {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $field:ident = $key:literal),* $(,)?
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64),*
        }

        const ROWS: usize = [$($key),*].len();

        impl $name {
            /// The registry name of each counter, in row order.
            pub const NAMES: [&'static str; ROWS] = [$($key),*];

            /// Each counter's value, in the order of [`Self::NAMES`].
            pub fn values(&self) -> [u64; ROWS] {
                [$(self.$field),*]
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: $name) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

node_stats! {
    /// Plain counters exposed for harness instrumentation; the simulator
    /// derives the paper's `t_wait(F)` measurements from `park_wait_ns` /
    /// `park_waits`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct NodeStats {
        /// Entries appended to the local log.
        appends = "appends",
        /// WEAK_ACCEPT responses sent (NB-Raft only).
        weak_accepts = "weak_accepts",
        /// STRONG_ACCEPT responses sent.
        strong_accepts = "strong_accepts",
        /// LOG_MISMATCH responses sent.
        mismatches = "mismatches",
        /// Gap-hint repair requests sent: a `Mismatch { resend_from }`
        /// emitted because the window caches entries above a gap in the
        /// log (at once on an in-order link, after a quarter heartbeat on a
        /// reordering one), not because an append actually conflicted.
        gap_hints = "gap_hints",
        /// Entries parked because they were out of order and beyond the
        /// window (for Raft, *every* out-of-order entry parks — the blocking
        /// loop).
        parked = "parked",
        /// Total nanoseconds entries spent blocked before becoming
        /// appendable — the paper's `t_wait(F)`.
        park_wait_ns = "park_wait_ns",
        /// Number of park-wait samples.
        park_waits = "park_waits",
        /// Window flushes performed.
        window_flushes = "window_flushes",
        /// Elections started.
        elections = "elections",
        /// Messages processed.
        messages = "messages",
        /// Entries committed (leader only).
        committed = "committed",
        /// Entries this node applied.
        applied = "applied",
        /// Reed–Solomon encodings performed (CRaft family).
        fragments_encoded = "fragments_encoded",
        /// Signature verifications performed (VGRaft).
        verifications = "verifications",
        /// Client requests proposed (leader only).
        proposals = "proposals",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_exposition_safe() {
        let names = NodeStats::NAMES;
        for (i, name) in names.iter().enumerate() {
            assert!(!name.is_empty(), "row {i} has an empty name");
            assert!(
                name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{name:?} is not [a-z0-9_]"
            );
            assert!(!names[..i].contains(name), "{name:?} is declared twice");
        }
    }

    #[test]
    fn add_assign_adds_every_row() {
        // Every field by name, so a new row fails to compile here until it
        // is given a value; row `i` holds `1 << i`.
        let b = NodeStats {
            appends: 1 << 0,
            weak_accepts: 1 << 1,
            strong_accepts: 1 << 2,
            mismatches: 1 << 3,
            gap_hints: 1 << 4,
            parked: 1 << 5,
            park_wait_ns: 1 << 6,
            park_waits: 1 << 7,
            window_flushes: 1 << 8,
            elections: 1 << 9,
            messages: 1 << 10,
            committed: 1 << 11,
            applied: 1 << 12,
            fragments_encoded: 1 << 13,
            verifications: 1 << 14,
            proposals: 1 << 15,
        };
        let rows: Vec<u64> = (0..NodeStats::NAMES.len()).map(|i| 1 << i).collect();
        assert_eq!(b.values().to_vec(), rows, "values() reads the rows in order");
        let mut a = NodeStats::default();
        a += b;
        a += b;
        for ((name, v), row) in NodeStats::NAMES.iter().zip(a.values()).zip(rows) {
            assert_eq!(v, 2 * row, "row {name}");
        }
    }
}

//! Throughput accounting: completed operations over (virtual or real) time.

/// Tracks operation completions against a nanosecond clock.
#[derive(Debug, Clone, Default)]
pub struct Throughput {
    ops: u64,
    bytes: u64,
}

impl Throughput {
    /// Empty tracker.
    pub fn new() -> Throughput {
        Throughput::default()
    }

    /// Record one completed operation of `bytes` payload.
    pub fn record(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total completed payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean operations per second measured against an externally supplied
    /// run duration (e.g. the simulation horizon rather than first-to-last
    /// completion).
    pub fn ops_per_sec_over(&self, duration_ns: u64) -> f64 {
        if duration_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (duration_ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn rate_over_external_duration() {
        let mut t = Throughput::new();
        for _ in 0..100 {
            t.record(10);
        }
        assert_eq!((t.ops(), t.bytes()), (100, 1000));
        assert!((t.ops_per_sec_over(2 * SEC) - 50.0).abs() < 1e-9);
        assert_eq!(t.ops_per_sec_over(0), 0.0);
        assert_eq!(Throughput::new().ops_per_sec_over(SEC), 0.0);
    }
}

//! Log2-bucketed streaming histograms.
//!
//! Values are binned by bit width: bucket 0 holds the value `0`, bucket
//! `b >= 1` holds `[2^(b-1), 2^b)`. That gives constant-time recording, 65
//! fixed buckets covering the full `u64` range, and quantile estimates with
//! at most a 2x relative error — plenty for latency percentiles where the
//! interesting differences are multiples.

/// A streaming histogram over `u64` samples with power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Log2Histogram {
            counts: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The inclusive `(low, high)` value range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 64`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        // sim-lint: allow(no-panic-hot-path): the only hot-path caller (quantile) iterates bucket indices 0..=64 by construction
        assert!(index <= 64, "bucket index out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), (1 << b) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index by [`Log2Histogram::bucket_index`]).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.counts
    }

    /// An upper bound for the `q`-quantile (`0.0..=1.0`): the inclusive
    /// upper edge of the bucket containing the sample of that rank, clamped
    /// to the observed maximum. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        // sim-lint: allow(no-panic-hot-path): hot-path callers are p50/p95/p99, which pass compile-time constants inside 0.0..=1.0
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        // Rank of the requested sample, 1-based, at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (upper bucket edge).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl sim_snap::SnapState for Log2Histogram {
    // The raw `min` field travels as-is (u64::MAX when empty), not the
    // clamped value `min()` reports — restoring the clamp would corrupt
    // the first post-restore `record()`.
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        for &c in &self.counts {
            w.u64(c);
        }
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.min);
        w.u64(self.max);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader) -> Result<(), sim_snap::SnapError> {
        for c in &mut self.counts {
            *c = r.u64()?;
        }
        self.count = r.u64()?;
        self.sum = r.u64()?;
        self.min = r.u64()?;
        self.max = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(255), 8);
        assert_eq!(Log2Histogram::bucket_index(256), 9);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        // Bounds are consistent with the index mapping at every edge.
        for b in 0..=64 {
            let (lo, hi) = Log2Histogram::bucket_bounds(b);
            assert_eq!(Log2Histogram::bucket_index(lo), b);
            assert_eq!(Log2Histogram::bucket_index(hi), b);
            assert!(lo <= hi);
        }
    }

    #[test]
    fn counts_sums_and_extremes() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 5, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1015);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 203.0).abs() < 1e-12);
    }

    #[test]
    fn p99_on_known_distribution() {
        // 99 samples of 10 and one of 1000: p50/p95 sit in 10's bucket
        // (upper edge 15), p99 must not yet reach the outlier, p100 must.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p95(), 15);
        assert_eq!(h.p99(), 15);
        assert_eq!(h.quantile(1.0), 1000, "max clamps the top bucket edge");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut last = 0;
        for step in 0..=20 {
            let q = f64::from(step) / 20.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantiles must be monotone");
            assert!(v <= h.max());
            last = v;
        }
        // The estimate brackets the true quantile within one power of two.
        let true_p50 = 500u64;
        assert!(h.p50() >= true_p50 && h.p50() <= true_p50 * 2);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_joint_recording() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut joint = Log2Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 3);
            }
            joint.record(if v % 2 == 0 { v * 7 } else { v * 3 });
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }
}

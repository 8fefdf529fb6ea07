//! A minimal manual-timing harness for the `benches/` binaries.
//!
//! The workspace builds offline, so instead of criterion the benchmarks
//! use this: warm up, run a fixed number of timed iterations, report the
//! median wall-clock per iteration and derived element throughput. Results
//! are printed as aligned text, one line per benchmark.
//!
//! The measurement core is [`measure`], which returns raw [`Samples`]
//! without printing — the `perfsuite` binary uses it to build machine
//! readable `BENCH_*.json` reports, while [`bench`] remains the printing
//! wrapper the figure/table binaries call.

#![expect(
    clippy::disallowed_types,
    reason = "benchmarks measure host time; the simulated runs they time never read it"
)]

use std::hint::black_box;
use std::time::Instant;

/// Per-iteration wall-clock samples from one measurement, held sorted
/// ascending so order statistics are O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Samples {
    ns: Vec<u128>,
}

impl Samples {
    /// Wraps raw nanosecond samples, sorting them ascending.
    pub fn from_nanos(mut ns: Vec<u128>) -> Self {
        ns.sort_unstable();
        Samples { ns }
    }

    /// Number of timed iterations captured.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when no iterations were timed (`iters == 0`).
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The sorted samples, ascending.
    pub fn as_nanos(&self) -> &[u128] {
        &self.ns
    }

    /// Fastest iteration, or `None` when empty. The minimum is the
    /// lowest-noise estimator for short deterministic work.
    pub fn min_ns(&self) -> Option<u128> {
        self.ns.first().copied()
    }

    /// Median iteration (upper median for even sample counts), or `None`
    /// when empty. The median resists one-off scheduler hiccups.
    pub fn median_ns(&self) -> Option<u128> {
        self.ns.get(self.ns.len() / 2).copied()
    }

    /// Sum of all timed iterations.
    pub fn total_ns(&self) -> u128 {
        self.ns.iter().sum()
    }
}

/// Runs `f` `iters` times after `warmup` untimed runs and returns the raw
/// per-iteration [`Samples`] without printing anything. `iters == 0` yields
/// an empty sample set. The closure's return value is [`black_box`]ed so
/// the work is not optimised away.
pub fn measure<T>(warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> Samples {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut ns: Vec<u128> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        ns.push(start.elapsed().as_nanos());
    }
    Samples::from_nanos(ns)
}

/// Runs `f` through [`measure`] and reports the median iteration time;
/// `elements` is the per-iteration work unit count used for the throughput
/// column. Results print as one aligned line per benchmark.
pub fn bench<T>(name: &str, elements: u64, warmup: u32, iters: u32, f: impl FnMut() -> T) {
    assert!(iters > 0, "need at least one timed iteration");
    let samples = measure(warmup, iters, f);
    let median = samples.median_ns().expect("iters > 0 guarantees a sample");
    let per_elem = median as f64 / elements as f64;
    let throughput = if median > 0 {
        elements as f64 * 1e9 / median as f64
    } else {
        f64::NAN
    };
    println!(
        "{name:<44} {:>10.3} ms/iter {per_elem:>9.1} ns/elem {:>12.0} elem/s",
        median as f64 / 1e6,
        throughput
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_expected_times() {
        let mut calls = 0u32;
        bench("noop", 1, 2, 3, || calls += 1);
        assert_eq!(calls, 5);
    }

    #[test]
    fn measure_runs_warmup_plus_iters_and_counts_samples() {
        let mut calls = 0u32;
        let samples = measure(3, 4, || calls += 1);
        assert_eq!(calls, 7);
        assert_eq!(samples.len(), 4);
        assert!(!samples.is_empty());
    }

    #[test]
    fn measured_samples_are_sorted_and_clock_is_monotonic() {
        // Instant is monotonic, so every sample of real work must come out
        // non-negative (here: strictly positive) and the stored order
        // ascending regardless of the order the iterations ran in.
        let samples = measure(0, 5, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(samples.len(), 5);
        assert!(samples.as_nanos().iter().all(|&ns| ns > 0));
        assert!(samples.as_nanos().windows(2).all(|w| w[0] <= w[1]));
        assert!(samples.total_ns() >= samples.median_ns().unwrap());
    }

    #[test]
    fn samples_select_min_and_upper_median() {
        let odd = Samples::from_nanos(vec![5, 1, 3]);
        assert_eq!(odd.min_ns(), Some(1));
        assert_eq!(odd.median_ns(), Some(3));
        let even = Samples::from_nanos(vec![4, 1]);
        assert_eq!(even.min_ns(), Some(1));
        assert_eq!(
            even.median_ns(),
            Some(4),
            "even counts take the upper median"
        );
    }

    #[test]
    fn zero_iterations_yield_empty_samples() {
        let mut calls = 0u32;
        let samples = measure(2, 0, || calls += 1);
        assert_eq!(calls, 2, "warmup still runs");
        assert!(samples.is_empty());
        assert_eq!(samples.len(), 0);
        assert_eq!(samples.min_ns(), None);
        assert_eq!(samples.median_ns(), None);
        assert_eq!(samples.total_ns(), 0);
    }
}

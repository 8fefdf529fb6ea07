//! Benchmark profiles: the tunable knobs of the synthetic workload
//! generators.
//!
//! Each profile captures the memory characteristics the paper's evaluation
//! is sensitive to (its Table 1 and Figure 3): memory intensity, read/write
//! mix, row-buffer locality (via streaming versus random addressing) and
//! the per-store dirty-word distribution. The constants in
//! [`crate::benches`] are calibrated so the emergent simulator statistics
//! approximate the paper's per-benchmark numbers; EXPERIMENTS.md records
//! the comparison.

use mem_model::WORDS_PER_LINE;

/// How a benchmark walks its address space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// A mixture of sequential streams and uniform-random accesses.
    ///
    /// With probability `stream_prob`, the next access advances one of
    /// `streams` sequential line streams (producing DRAM row locality:
    /// 128 consecutive lines share a row); otherwise it hits a uniformly
    /// random line. Models array/stencil codes (lbm, libquantum) and mixed
    /// codes (bzip2, omnetpp).
    Streamed {
        /// Concurrent sequential streams.
        streams: u32,
        /// Probability an access comes from a stream.
        stream_prob: f64,
        /// Consecutive accesses taken from a stream once picked (>= 1).
        /// Bursting clusters misses onto one DRAM row, which is what turns
        /// streaming into read row-buffer hits.
        burst: u32,
    },
    /// Uniformly random lines over the footprint: pointer chasing and
    /// scattered updates (mcf, em3d, GUPS, LinkedList).
    Random,
}

/// A synthetic benchmark's parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// Non-memory instructions between memory operations (memory intensity:
    /// smaller is more intensive; bzip2 is the compute-bound outlier).
    pub compute_per_mem: u32,
    /// Fraction of memory operations that are stores.
    pub store_fraction: f64,
    /// Probability that a store targets the most recently loaded line
    /// (read-modify-write behaviour; GUPS is the pure case).
    pub rmw_prob: f64,
    /// Address pattern (drives loads; see `stores_stream` for stores).
    pub pattern: AccessPattern,
    /// Whether non-RMW stores follow the streamed pattern (array-writing
    /// codes like lbm/libquantum) or scatter uniformly over the footprint
    /// (everything else — this is what makes write row locality collapse
    /// for most benchmarks, Table 1's asymmetry).
    pub stores_stream: bool,
    /// Footprint in cache lines (per core).
    pub footprint_lines: u64,
    /// Distribution of dirty words per store: `dist[k]` is the probability
    /// the store dirties `k+1` words (contiguous, random start). This is
    /// the knob behind the paper's Figure 3 shape.
    pub dirty_words_dist: [f64; WORDS_PER_LINE],
}

impl BenchProfile {
    /// Checks distribution and parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are out of range or the dirty-word
    /// distribution does not sum to 1.
    pub fn assert_valid(&self) {
        // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
        assert!(
            self.compute_per_mem < 10_000,
            "{}: implausible intensity",
            self.name
        );
        // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
        assert!(
            (0.0..=1.0).contains(&self.store_fraction),
            "{}: store fraction out of range",
            self.name
        );
        // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
        assert!(
            (0.0..=1.0).contains(&self.rmw_prob),
            "{}: rmw prob out of range",
            self.name
        );
        if let AccessPattern::Streamed {
            streams,
            stream_prob,
            burst,
        } = self.pattern
        {
            // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
            assert!(streams > 0, "{}: need at least one stream", self.name);
            // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
            assert!(
                burst >= 1,
                "{}: burst must be at least one access",
                self.name
            );
            // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
            assert!(
                (0.0..=1.0).contains(&stream_prob),
                "{}: stream prob out of range",
                self.name
            );
        }
        // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
        assert!(
            self.footprint_lines >= 64,
            "{}: footprint too small to be meaningful",
            self.name
        );
        let sum: f64 = self.dirty_words_dist.iter().sum();
        // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}: dirty-word distribution sums to {sum}, expected 1",
            self.name
        );
        // sim-lint: allow(no-panic-hot-path): profiles come from the built-in benchmark tables, which benches.rs tests pin valid; this is the documented check
        assert!(
            self.dirty_words_dist
                .iter()
                .all(|&p| (0.0..=1.0).contains(&p)),
            "{}: negative probability",
            self.name
        );
    }

    /// Expected dirty words per store under the profile's distribution.
    pub fn expected_dirty_words(&self) -> f64 {
        self.dirty_words_dist
            .iter()
            .enumerate()
            .map(|(k, &p)| (k as f64 + 1.0) * p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> BenchProfile {
        BenchProfile {
            name: "test",
            compute_per_mem: 4,
            store_fraction: 0.4,
            rmw_prob: 0.5,
            pattern: AccessPattern::Random,
            stores_stream: false,
            footprint_lines: 1 << 20,
            dirty_words_dist: [0.9, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        }
    }

    #[test]
    fn valid_profile_passes() {
        valid().assert_valid();
        assert!((valid().expected_dirty_words() - 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn bad_distribution_rejected() {
        let mut p = valid();
        p.dirty_words_dist = [0.5; 8];
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "store fraction")]
    fn bad_store_fraction_rejected() {
        let mut p = valid();
        p.store_fraction = 1.5;
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        let mut p = valid();
        p.pattern = AccessPattern::Streamed {
            streams: 0,
            stream_prob: 0.5,
            burst: 1,
        };
        p.assert_valid();
    }
}

//! Stream analysis: measures the emergent properties of any instruction
//! source — the quantities the profiles are calibrated against — without
//! running the full simulator. Used by the `pra` CLI's `trace info` and by
//! calibration tests; also the tool a user reaches for when shaping a
//! custom [`BenchProfile`](crate::BenchProfile) to match their application.

use std::collections::HashSet;

use cpu_sim::{InstructionSource, Op};
use mem_model::WORDS_PER_LINE;

/// Aggregate properties of an instruction stream prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Operations analysed.
    pub ops: u64,
    /// Non-memory instructions (the sum of `Compute` payloads).
    pub compute_instructions: u64,
    /// Loads seen.
    pub loads: u64,
    /// Stores seen.
    pub stores: u64,
    /// Distinct cache lines touched.
    pub footprint_lines: u64,
    /// Fraction of memory ops whose line is exactly the previous memory
    /// op's line plus one (raw sequentiality).
    pub sequential_fraction: f64,
    /// Fraction of memory ops whose line was already touched earlier
    /// (temporal reuse at infinite capacity).
    pub reuse_fraction: f64,
    /// Distribution of dirty words per store (`hist[k]` = `k+1` words).
    pub dirty_words_hist: [u64; WORDS_PER_LINE],
}

impl StreamSummary {
    /// Store share of memory operations.
    pub fn store_fraction(&self) -> f64 {
        let mem = self.loads + self.stores;
        if mem == 0 {
            0.0
        } else {
            self.stores as f64 / mem as f64
        }
    }

    /// Average non-memory instructions per memory operation.
    pub fn compute_per_mem(&self) -> f64 {
        let mem = self.loads + self.stores;
        if mem == 0 {
            0.0
        } else {
            self.compute_instructions as f64 / mem as f64
        }
    }

    /// Mean dirty words per store.
    pub fn avg_dirty_words(&self) -> f64 {
        let stores: u64 = self.dirty_words_hist.iter().sum();
        if stores == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .dirty_words_hist
            .iter()
            .enumerate()
            .map(|(k, &c)| (k as u64 + 1) * c)
            .sum();
        weighted as f64 / stores as f64
    }
}

/// Analyses the next `n_ops` operations of a source.
///
/// # Panics
///
/// Panics if `n_ops == 0`.
pub fn analyze<S: InstructionSource + ?Sized>(source: &mut S, n_ops: u64) -> StreamSummary {
    // sim-lint: allow(no-panic-hot-path): offline analysis, off the simulation path; the CLI rejects --ops 0 and empty traces before calling
    assert!(n_ops > 0, "analyse at least one op");
    let mut summary = StreamSummary {
        ops: n_ops,
        compute_instructions: 0,
        loads: 0,
        stores: 0,
        footprint_lines: 0,
        sequential_fraction: 0.0,
        reuse_fraction: 0.0,
        dirty_words_hist: [0; WORDS_PER_LINE],
    };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut last_line: Option<u64> = None;
    let mut sequential = 0u64;
    let mut reused = 0u64;
    for _ in 0..n_ops {
        let line = match source.next_op() {
            Op::Compute(n) => {
                summary.compute_instructions += u64::from(n);
                continue;
            }
            Op::Load(a) => {
                summary.loads += 1;
                a.line_number()
            }
            Op::Store(a, mask) => {
                summary.stores += 1;
                summary.dirty_words_hist[(mask.count_words() - 1) as usize] += 1;
                a.line_number()
            }
        };
        if last_line == Some(line.wrapping_sub(1)) {
            sequential += 1;
        }
        if !seen.insert(line) {
            reused += 1;
        }
        last_line = Some(line);
    }
    summary.footprint_lines = seen.len() as u64;
    let mem = summary.loads + summary.stores;
    if mem > 0 {
        summary.sequential_fraction = sequential as f64 / mem as f64;
        summary.reuse_fraction = reused as f64 / mem as f64;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gups, libquantum, WorkloadGen};

    #[test]
    fn gups_summary_matches_profile() {
        let mut g = WorkloadGen::new(gups(), 1, 0);
        let s = analyze(&mut g, 100_000);
        assert!((s.store_fraction() - 0.47).abs() < 0.02);
        assert!((s.compute_per_mem() - 8.0).abs() < 0.5);
        assert!(
            (s.avg_dirty_words() - 1.0).abs() < 1e-9,
            "GUPS stores one word"
        );
        assert!(s.sequential_fraction < 0.01, "random traffic");
        assert!(s.footprint_lines > 10_000);
    }

    #[test]
    fn libquantum_is_sequential_gups_is_not() {
        let mut quantum = WorkloadGen::new(libquantum(), 1, 0);
        let mut random = WorkloadGen::new(gups(), 1, 0);
        let sq = analyze(&mut quantum, 50_000);
        let sr = analyze(&mut random, 50_000);
        assert!(
            sq.sequential_fraction > 10.0 * sr.sequential_fraction.max(0.001),
            "libquantum {:.3} vs GUPS {:.3}",
            sq.sequential_fraction,
            sr.sequential_fraction
        );
    }

    #[test]
    fn reuse_reflects_rmw() {
        // GUPS re-touches almost every loaded line with its paired store.
        let mut g = WorkloadGen::new(gups(), 1, 0);
        let s = analyze(&mut g, 100_000);
        assert!(s.reuse_fraction > 0.3, "RMW reuse {:.3}", s.reuse_fraction);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn zero_ops_rejected() {
        let mut g = WorkloadGen::new(gups(), 1, 0);
        let _ = analyze(&mut g, 0);
    }
}

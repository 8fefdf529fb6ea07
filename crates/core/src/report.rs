//! The result record of one full-system run.

use cache_sim::HierarchyStats;
use dram_power::{EnergyBreakdown, PowerBreakdown};
use dram_sim::{DramStats, RecoveryCounts};
use sim_fault::FaultCounts;
use sim_obs::EpochSnapshot;

/// Everything one simulation run produces: performance, DRAM power/energy
/// and the statistics behind each of the paper's figures.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Scheme name.
    pub scheme: String,
    /// Per-core IPC.
    pub ipc: Vec<f64>,
    /// CPU cycles until the last core finished.
    pub cpu_cycles: u64,
    /// Simulated time in nanoseconds (memory clock domain).
    pub runtime_ns: f64,
    /// DRAM energy breakdown (pJ).
    pub energy: EnergyBreakdown,
    /// Average DRAM power breakdown (mW).
    pub power: PowerBreakdown,
    /// DRAM statistics (hit rates, false hits, granularity histogram...).
    pub dram: DramStats,
    /// Cache statistics (Figure 3 histogram, DBI counters...).
    pub cache: HierarchyStats,
    /// Epoch metric snapshots (empty unless the run enabled
    /// `SimBuilder::metrics_epoch`); deltas per epoch, summing to the
    /// end-of-run aggregates.
    pub metrics: Vec<EpochSnapshot>,
    /// Injected/detected/degraded fault counters, merged across the DRAM
    /// and cache injectors. All zero unless the run attached a
    /// [`sim_fault::FaultPlan`].
    pub faults: FaultCounts,
    /// Recovery-pipeline counters (alerts, replays, recoveries,
    /// exhaustions, row demotions/promotions), summed across channels.
    /// All zero unless the run enabled [`crate::SimBuilder::recovery`]
    /// *and* a fault was detected.
    pub recovery: RecoveryCounts,
    /// `true` if the run hit its cycle cap before completing.
    pub timed_out: bool,
}

impl Report {
    /// Order-sensitive digest of every statistic in the report (FNV-1a 64
    /// over the `Debug` rendering). Two runs of the same configuration and
    /// seed must produce identical digests; `pra run --verify-determinism`
    /// compares them.
    pub fn state_digest(&self) -> u64 {
        sim_snap::fnv1a_64(format!("{self:?}").as_bytes())
    }

    /// Total DRAM energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Energy-delay product (mJ x ns); meaningful as a ratio against a
    /// baseline report.
    pub fn edp(&self) -> f64 {
        self.energy_mj() * self.runtime_ns
    }

    /// Sum of per-core IPCs (throughput proxy).
    pub fn ipc_sum(&self) -> f64 {
        self.ipc.iter().sum()
    }

    /// Weighted speedup against per-core alone-IPCs (Equation 3).
    ///
    /// # Errors
    ///
    /// Returns [`cpu_sim::SpeedupError`] if `alone_ipc` does not match the
    /// core count or contains a non-positive entry.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> Result<f64, cpu_sim::SpeedupError> {
        cpu_sim::weighted_speedup(&self.ipc, alone_ipc)
    }

    /// DRAM read/write traffic split as fractions of all requests
    /// (Table 1's "Memory traffic" columns).
    pub fn traffic_split(&self) -> (f64, f64) {
        let reads = self.dram.read.total() as f64;
        let writes = self.dram.write.total() as f64;
        let total = reads + writes;
        if total == 0.0 {
            (0.0, 0.0)
        } else {
            (reads / total, writes / total)
        }
    }

    /// Read/write split of row activations (Table 1's "Row activation"
    /// columns).
    pub fn activation_split(&self) -> (f64, f64) {
        let w = self.dram.write_activation_share();
        (1.0 - w, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> Report {
        let mut dram = DramStats::default();
        dram.read.hits = 30;
        dram.read.misses = 70;
        dram.write.hits = 10;
        dram.write.misses = 40;
        dram.record_activation(16, true);
        dram.record_activation(2, false);
        Report {
            workload: "t".into(),
            scheme: "baseline".into(),
            ipc: vec![1.0, 2.0],
            cpu_cycles: 100,
            runtime_ns: 50.0,
            energy: EnergyBreakdown {
                act_pre: 1e9,
                ..Default::default()
            },
            power: PowerBreakdown::default(),
            dram,
            cache: HierarchyStats::default(),
            metrics: Vec::new(),
            faults: FaultCounts::default(),
            recovery: RecoveryCounts::default(),
            timed_out: false,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = dummy();
        assert!((r.energy_mj() - 1.0).abs() < 1e-12);
        assert!((r.edp() - 50.0).abs() < 1e-9);
        assert!((r.ipc_sum() - 3.0).abs() < 1e-12);
        let (rd, wr) = r.traffic_split();
        assert!((rd - 100.0 / 150.0).abs() < 1e-12);
        assert!((wr - 50.0 / 150.0).abs() < 1e-12);
        let (ra, wa) = r.activation_split();
        assert!((ra - 0.5).abs() < 1e-12 && (wa - 0.5).abs() < 1e-12);
    }

    #[test]
    fn state_digest_is_stable_and_sensitive() {
        let a = dummy();
        let b = dummy();
        assert_eq!(a.state_digest(), b.state_digest());
        let mut c = dummy();
        c.cpu_cycles += 1;
        assert_ne!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn ws_uses_eq3() {
        let r = dummy();
        let ws = r.weighted_speedup(&[2.0, 2.0]).unwrap();
        assert!((ws - 1.5).abs() < 1e-12);
        assert!(
            r.weighted_speedup(&[2.0]).is_err(),
            "length mismatch is an error"
        );
    }
}

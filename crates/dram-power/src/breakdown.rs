//! Energy and power breakdowns by component (the axes of Figures 2 and 12).

use core::fmt;
use core::ops::{Add, AddAssign};

/// Accumulated energy per DRAM power component, in picojoules.
///
/// Components follow Figure 2's legend: `ACT-PRE`, `RD`, `WR`, `RD I/O`,
/// `WR I/O` (ODT plus write termination), `BG` (standby/power-down), `REF`.
/// Read termination is folded into `rd_io` the same way the paper folds
/// "read I/O, write ODT, and read/write termination" into its I/O category;
/// the split is still available via the dedicated fields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Row activation + bank precharge pairs.
    pub act_pre: f64,
    /// Read burst core energy.
    pub rd: f64,
    /// Write burst core energy.
    pub wr: f64,
    /// Read output-driver I/O energy plus read termination.
    pub rd_io: f64,
    /// Write ODT energy plus write termination.
    pub wr_io: f64,
    /// Background (active/precharge standby, power-down).
    pub bg: f64,
    /// Refresh.
    pub refresh: f64,
}

impl EnergyBreakdown {
    /// Total energy across all components (pJ).
    pub fn total(&self) -> f64 {
        self.act_pre + self.rd + self.wr + self.rd_io + self.wr_io + self.bg + self.refresh
    }

    /// Combined I/O energy (read I/O + write I/O incl. terminations), the
    /// paper's "I/O power" category.
    pub fn io(&self) -> f64 {
        self.rd_io + self.wr_io
    }

    /// Converts to average power over `elapsed_ns`, in mW.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed_ns` is not strictly positive.
    pub fn to_power(&self, elapsed_ns: f64) -> PowerBreakdown {
        // sim-lint: allow(no-panic-hot-path): callers guard: the epoch rail skips dt <= 0, and pra-core returns SimError::EmptyRun before it asks for a report's power
        assert!(
            elapsed_ns > 0.0,
            "elapsed time must be positive, got {elapsed_ns}"
        );
        PowerBreakdown {
            act_pre: self.act_pre / elapsed_ns,
            rd: self.rd / elapsed_ns,
            wr: self.wr / elapsed_ns,
            rd_io: self.rd_io / elapsed_ns,
            wr_io: self.wr_io / elapsed_ns,
            bg: self.bg / elapsed_ns,
            refresh: self.refresh / elapsed_ns,
        }
    }

    /// Energy in millijoules (pJ * 1e-9), convenient for EDP arithmetic.
    pub fn total_mj(&self) -> f64 {
        self.total() * 1e-9
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(mut self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        self.act_pre += rhs.act_pre;
        self.rd += rhs.rd;
        self.wr += rhs.wr;
        self.rd_io += rhs.rd_io;
        self.wr_io += rhs.wr_io;
        self.bg += rhs.bg;
        self.refresh += rhs.refresh;
    }
}

/// Average power per component, in milliwatts (energy / elapsed time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Row activation + bank precharge pairs.
    pub act_pre: f64,
    /// Read burst core power.
    pub rd: f64,
    /// Write burst core power.
    pub wr: f64,
    /// Read I/O (incl. read termination).
    pub rd_io: f64,
    /// Write I/O (ODT + write termination).
    pub wr_io: f64,
    /// Background.
    pub bg: f64,
    /// Refresh.
    pub refresh: f64,
}

impl PowerBreakdown {
    /// Total DRAM power (mW).
    pub fn total(&self) -> f64 {
        self.act_pre + self.rd + self.wr + self.rd_io + self.wr_io + self.bg + self.refresh
    }

    /// Combined I/O power, the paper's Figure 12(b) metric.
    pub fn io(&self) -> f64 {
        self.rd_io + self.wr_io
    }

    /// Fraction of total power spent on activation+precharge (the paper's
    /// motivational "up to 33%, average 25%" figure).
    pub fn act_pre_share(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.act_pre / self.total()
        }
    }

    /// Fraction of total power spent on I/O (the paper's "up to 19%,
    /// average 14%" figure).
    pub fn io_share(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.io() / self.total()
        }
    }

    /// Component values in Figure 2 legend order:
    /// `[ACT-PRE, RD, WR, RD I/O, WR I/O, BG, REF]`.
    pub fn components(&self) -> [f64; 7] {
        [
            self.act_pre,
            self.rd,
            self.wr,
            self.rd_io,
            self.wr_io,
            self.bg,
            self.refresh,
        ]
    }

    /// Component labels matching [`PowerBreakdown::components`].
    pub fn component_labels() -> [&'static str; 7] {
        ["ACT-PRE", "RD", "WR", "RD I/O", "WR I/O", "BG", "REF"]
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        writeln!(f, "{:>10} {:>10} {:>8}", "component", "mW", "share")?;
        for (label, value) in Self::component_labels().iter().zip(self.components()) {
            let share = if total > 0.0 {
                value / total * 100.0
            } else {
                0.0
            };
            writeln!(f, "{label:>10} {value:>10.3} {share:>7.1}%")?;
        }
        write!(f, "{:>10} {total:>10.3} {:>7.1}%", "total", 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnergyBreakdown {
        EnergyBreakdown {
            act_pre: 250.0,
            rd: 200.0,
            wr: 100.0,
            rd_io: 20.0,
            wr_io: 80.0,
            bg: 300.0,
            refresh: 50.0,
        }
    }

    #[test]
    fn totals_and_io() {
        let e = sample();
        assert_eq!(e.total(), 1000.0);
        assert_eq!(e.io(), 100.0);
        assert!((e.total_mj() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn add_accumulates() {
        let e = sample() + sample();
        assert_eq!(e.total(), 2000.0);
        assert_eq!(e.act_pre, 500.0);
    }

    #[test]
    fn power_conversion() {
        let p = sample().to_power(10.0);
        assert!((p.total() - 100.0).abs() < 1e-12);
        assert!((p.act_pre - 25.0).abs() < 1e-12);
        assert!((p.act_pre_share() - 0.25).abs() < 1e-12);
        assert!((p.io_share() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn display_contains_all_components() {
        let text = sample().to_power(1.0).to_string();
        for label in PowerBreakdown::component_labels() {
            assert!(text.contains(label), "missing {label} in\n{text}");
        }
        assert!(text.contains("total"));
    }

    #[test]
    #[should_panic(expected = "elapsed time")]
    fn zero_elapsed_rejected() {
        let _ = sample().to_power(0.0);
    }

    #[test]
    fn zero_power_shares_are_zero() {
        let p = PowerBreakdown::default();
        assert_eq!(p.act_pre_share(), 0.0);
        assert_eq!(p.io_share(), 0.0);
    }
}

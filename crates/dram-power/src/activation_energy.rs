//! CACTI-3DD-style activation energy model (paper Table 2 and Figure 9).

/// One point of Figure 9: activation energy when `mats` MATs are activated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure9Point {
    /// Number of MATs activated (2..=16 in steps of 2 in the paper's figure).
    pub mats: u32,
    /// Row activation energy per bank, in pJ.
    pub energy_pj: f64,
    /// Energy relative to a full (16-MAT) activation.
    pub ratio: f64,
}

/// The activation energy breakdown of a 2 Gb x8 DDR3-1600 bank at 20 nm
/// (paper Table 2), decomposed into per-MAT and bank-shared components.
///
/// Per-MAT components (local bitlines, local sense amplifiers, local
/// wordline, local row decoder) scale with the number of MATs activated;
/// bank-shared components (row activation bus, row predecoder) do not — this
/// is why, as the paper notes, halving the activated MATs does **not** halve
/// activation energy (Figure 9).
///
/// # Example
///
/// ```
/// use dram_power::ActivationEnergyModel;
/// let m = ActivationEnergyModel::paper_table2();
/// assert!((m.full_row_energy_pj() - 288.752).abs() < 1e-3);
/// // Half the MATs costs more than half the energy:
/// assert!(m.scaling_factor(8) > 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationEnergyModel {
    /// Local bitline energy per MAT (pJ).
    pub local_bitline_pj: f64,
    /// Local sense amplifier energy per MAT (pJ).
    pub local_sense_amp_pj: f64,
    /// Local wordline energy per MAT (pJ).
    pub local_wordline_pj: f64,
    /// Local row decoder energy per MAT (pJ).
    pub row_decoder_pj: f64,
    /// Row activation bus energy per bank (pJ), shared across MATs.
    pub activation_bus_pj: f64,
    /// Row predecoder energy per bank (pJ), shared across MATs.
    pub row_predecoder_pj: f64,
    /// MATs activated by a conventional full-row activation.
    pub mats_per_row: u32,
}

impl ActivationEnergyModel {
    /// The constants of the paper's Table 2.
    pub const fn paper_table2() -> Self {
        ActivationEnergyModel {
            local_bitline_pj: 15.583,
            local_sense_amp_pj: 1.257,
            local_wordline_pj: 0.046,
            row_decoder_pj: 0.035,
            activation_bus_pj: 17.944,
            row_predecoder_pj: 0.072,
            mats_per_row: 16,
        }
    }

    /// Energy of activating one MAT's slice of the row (pJ). The paper's
    /// Table 2 totals this to 16.921 pJ.
    pub fn per_mat_energy_pj(&self) -> f64 {
        self.local_bitline_pj
            + self.local_sense_amp_pj
            + self.local_wordline_pj
            + self.row_decoder_pj
    }

    /// Bank-shared energy spent on any activation regardless of width (pJ).
    pub fn shared_energy_pj(&self) -> f64 {
        self.activation_bus_pj + self.row_predecoder_pj
    }

    /// Total energy of an activation driving `mats` MATs (pJ).
    ///
    /// # Panics
    ///
    /// Panics if `mats` is 0 or exceeds [`ActivationEnergyModel::mats_per_row`].
    pub fn energy_per_activation_pj(&self, mats: u32) -> f64 {
        // sim-lint: allow(no-panic-hot-path): the hot-path caller (EnergyAccounting::activation_mats) validates 1..=16 and the paper model has mats_per_row = 16
        assert!(
            mats >= 1 && mats <= self.mats_per_row,
            "mats must be 1..={}, got {mats}",
            self.mats_per_row
        );
        f64::from(mats) * self.per_mat_energy_pj() + self.shared_energy_pj()
    }

    /// Full-row activation energy per bank (pJ); 288.752 pJ in Table 2.
    pub fn full_row_energy_pj(&self) -> f64 {
        self.energy_per_activation_pj(self.mats_per_row)
    }

    /// Energy of a `mats`-wide activation relative to a full-row activation.
    pub fn scaling_factor(&self, mats: u32) -> f64 {
        self.energy_per_activation_pj(mats) / self.full_row_energy_pj()
    }

    /// Scaling factor for a PRA granularity expressed in eighths of a row
    /// (each eighth is one group of two MATs).
    pub fn scaling_for_granularity(&self, granularity_eighths: u32) -> f64 {
        let mats_per_group = self.mats_per_row / 8;
        self.scaling_factor(granularity_eighths * mats_per_group)
    }

    /// The Figure 9 series: energy and relative energy for 2, 4, ..., 16
    /// activated MATs.
    pub fn figure9_series(&self) -> Vec<Figure9Point> {
        let full = self.full_row_energy_pj();
        (1..=8)
            .map(|groups| {
                let mats = groups * (self.mats_per_row / 8);
                let energy = self.energy_per_activation_pj(mats);
                Figure9Point {
                    mats,
                    energy_pj: energy,
                    ratio: energy / full,
                }
            })
            .collect()
    }

    /// Projects the CACTI scaling factors onto an industrial full-row
    /// activation power (the paper's Section 5.1.1 "project scaling factors
    /// ... onto P_ACT"), yielding an alternative per-granularity ACT power
    /// array to Table 3's published one.
    pub fn project_onto_p_act(&self, p_act_full_mw: f64) -> [f64; 8] {
        let mut out = [0.0; 8];
        for g in 1..=8u32 {
            out[(g - 1) as usize] = p_act_full_mw * self.scaling_for_granularity(g);
        }
        out
    }
}

impl Default for ActivationEnergyModel {
    fn default() -> Self {
        ActivationEnergyModel::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_totals() {
        let m = ActivationEnergyModel::paper_table2();
        assert!((m.per_mat_energy_pj() - 16.921).abs() < 1e-9);
        assert!((m.shared_energy_pj() - 18.016).abs() < 1e-9);
        assert!((m.full_row_energy_pj() - 288.752).abs() < 1e-9);
    }

    #[test]
    fn figure9_shape() {
        let m = ActivationEnergyModel::paper_table2();
        let series = m.figure9_series();
        assert_eq!(series.len(), 8);
        assert_eq!(series[0].mats, 2);
        assert_eq!(series[7].mats, 16);
        // Paper: "the energy reduction cannot reach 50% even though reducing
        // MATs by half because of shared structures".
        let half = &series[3]; // 8 MATs
        assert!(
            half.ratio > 0.5,
            "8-MAT ratio {} must exceed 0.5",
            half.ratio
        );
        assert!(half.ratio < 0.56);
        // Monotone increasing energy.
        for w in series.windows(2) {
            assert!(w[0].energy_pj < w[1].energy_pj);
        }
    }

    #[test]
    fn scaling_factor_bounds() {
        let m = ActivationEnergyModel::paper_table2();
        assert_eq!(m.scaling_factor(16), 1.0);
        let min = m.scaling_factor(2);
        assert!(min > 0.15 && min < 0.2, "1/8 row scaling {min}");
    }

    #[test]
    fn projection_anchors_at_full() {
        let m = ActivationEnergyModel::paper_table2();
        let arr = m.project_onto_p_act(22.2);
        assert!((arr[7] - 22.2).abs() < 1e-9);
        // The CACTI-projected values sit close to (within 10% of) the
        // published Table 3 numbers at every granularity.
        let published = [3.7, 6.4, 9.1, 11.6, 14.3, 16.9, 19.6, 22.2];
        for (i, (a, b)) in arr.iter().zip(published.iter()).enumerate() {
            let rel = (a - b).abs() / b;
            assert!(
                rel < 0.10,
                "granularity {}: projected {a:.2} vs published {b}",
                i + 1
            );
        }
    }

    #[test]
    #[should_panic(expected = "mats must be")]
    fn zero_mats_rejected() {
        let _ = ActivationEnergyModel::paper_table2().energy_per_activation_pj(0);
    }
}

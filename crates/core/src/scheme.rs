//! The evaluated schemes, including the Section 5.2.3 combinations.

use dram_sim::SchemeBehavior;

/// Every scheme the paper evaluates, plus the combinations of its case
/// studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Conventional DRAM.
    Baseline,
    /// Fine-grained activation at half-row granularity (halved prefetch
    /// width, doubled burst occupancy).
    Fga,
    /// Half-DRAM-1Row: half-row activations at full bandwidth.
    HalfDram,
    /// Partial Row Activation (this paper).
    Pra,
    /// Half-DRAM with PRA latches and wordline gates on top (Section 5.2.3).
    HalfDramPra,
    /// Conventional DRAM with a Dirty-Block Index in the LLC.
    Dbi,
    /// DBI plus PRA (Section 5.2.3).
    DbiPra,
}

impl Scheme {
    /// Every scheme, in the order `pra list` and `pra compare` use.
    pub const ALL: [Scheme; 7] = [
        Scheme::Baseline,
        Scheme::Fga,
        Scheme::HalfDram,
        Scheme::Pra,
        Scheme::HalfDramPra,
        Scheme::Dbi,
        Scheme::DbiPra,
    ];

    /// The command-line spelling (`pra run --scheme <this>`), also used in
    /// campaign repro lines and config digests.
    pub fn cli_name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Fga => "fga",
            Scheme::HalfDram => "half-dram",
            Scheme::Pra => "pra",
            Scheme::HalfDramPra => "half-dram-pra",
            Scheme::Dbi => "dbi",
            Scheme::DbiPra => "dbi-pra",
        }
    }

    /// The DRAM-side behaviour descriptor.
    pub fn behavior(self) -> SchemeBehavior {
        match self {
            Scheme::Baseline | Scheme::Dbi => SchemeBehavior::baseline(),
            Scheme::Fga => SchemeBehavior::fga_half(),
            Scheme::HalfDram => SchemeBehavior::half_dram(),
            Scheme::Pra | Scheme::DbiPra => SchemeBehavior::pra(),
            Scheme::HalfDramPra => SchemeBehavior::half_dram_pra(),
        }
    }

    /// Whether the LLC runs a Dirty-Block Index.
    pub fn uses_dbi(self) -> bool {
        matches!(self, Scheme::Dbi | Scheme::DbiPra)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Fga => "FGA",
            Scheme::HalfDram => "Half-DRAM",
            Scheme::Pra => "PRA",
            Scheme::HalfDramPra => "Half-DRAM+PRA",
            Scheme::Dbi => "DBI",
            Scheme::DbiPra => "DBI+PRA",
        }
    }

    /// The Figure 12/13 comparison set.
    pub fn main_comparison() -> [Scheme; 4] {
        [Scheme::Baseline, Scheme::Fga, Scheme::HalfDram, Scheme::Pra]
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Case-insensitive, ignoring `-` and `_`; also accepts `base`,
    /// `conventional`, `half` and `combined`. The error lists the valid
    /// names.
    fn from_str(name: &str) -> Result<Self, String> {
        let key = |s: &str| s.to_ascii_lowercase().replace(['-', '_'], "");
        let alias = match key(name).as_str() {
            "base" | "conventional" => Some(Scheme::Baseline),
            "half" => Some(Scheme::HalfDram),
            "combined" => Some(Scheme::HalfDramPra),
            _ => None,
        };
        let valid: Vec<&str> = Scheme::ALL.iter().map(|s| s.cli_name()).collect();
        alias
            .or_else(|| {
                Scheme::ALL
                    .into_iter()
                    .find(|s| key(s.cli_name()) == key(name))
            })
            .ok_or_else(|| format!("unknown scheme {name:?}; valid: {}", valid.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaviors_match_names() {
        for s in [
            Scheme::Baseline,
            Scheme::Fga,
            Scheme::HalfDram,
            Scheme::Pra,
            Scheme::HalfDramPra,
        ] {
            assert_eq!(s.behavior().name, s.name());
        }
        // DBI variants reuse the underlying DRAM behaviour.
        assert_eq!(Scheme::Dbi.behavior().name, "baseline");
        assert_eq!(Scheme::DbiPra.behavior().name, "PRA");
    }

    #[test]
    fn dbi_flags() {
        assert!(Scheme::Dbi.uses_dbi());
        assert!(Scheme::DbiPra.uses_dbi());
        assert!(!Scheme::Pra.uses_dbi());
        assert!(!Scheme::Baseline.uses_dbi());
    }

    #[test]
    fn names_parse_with_aliases_and_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(s.cli_name().parse::<Scheme>(), Ok(s));
        }
        assert_eq!("PRA".parse(), Ok(Scheme::Pra));
        assert_eq!("Half_Dram_PRA".parse(), Ok(Scheme::HalfDramPra));
        assert_eq!("conventional".parse(), Ok(Scheme::Baseline));
        assert_eq!("half".parse(), Ok(Scheme::HalfDram));
        assert_eq!("combined".parse(), Ok(Scheme::HalfDramPra));
        assert_eq!(
            "turbo".parse::<Scheme>().unwrap_err(),
            "unknown scheme \"turbo\"; valid: baseline, fga, half-dram, pra, half-dram-pra, dbi, dbi-pra"
        );
    }

    #[test]
    fn comparison_set_order() {
        let names: Vec<&str> = Scheme::main_comparison().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["baseline", "FGA", "Half-DRAM", "PRA"]);
    }
}

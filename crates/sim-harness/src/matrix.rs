//! The experiment matrix: a TOML-subset campaign description and its
//! expansion into individual run specifications.

use core::fmt;
use std::path::Path;

use pra_core::{RunSpec, Scheme};

/// Error parsing or validating a campaign matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixError(String);

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid campaign matrix: {}", self.0)
    }
}

impl std::error::Error for MatrixError {}

fn matrix_err(msg: impl Into<String>) -> MatrixError {
    MatrixError(msg.into())
}

/// Synthetic run kinds a campaign can inject to exercise the harness's
/// failure paths end to end (used by CI and the demo campaign).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fixture {
    /// A normal simulation run.
    #[default]
    None,
    /// Panics instead of simulating — proves panic isolation.
    Panic,
    /// Runs with an impossibly tight no-retire watchdog — trips a
    /// [`dram_sim::LivenessError`] and is classified hung.
    Hang,
}

impl Fixture {
    /// The fixture's name in the config digest.
    fn name(self) -> &'static str {
        match self {
            Fixture::None => "none",
            Fixture::Panic => "panic",
            Fixture::Hang => "hang",
        }
    }
}

/// One run of an expanded campaign: a [`RunSpec`] plus the harness's
/// synthetic-fixture kind. When checkpointing is on, the spec's
/// `checkpoint_dir` is already this run's private
/// `<campaign checkpoint_dir>/<config_digest:016x>-<seed>` subdirectory:
/// the digest/seed pair is the journal's resume key, so concurrent runs of
/// one campaign never share a directory and a re-executed run finds exactly
/// its own snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun {
    /// What to simulate.
    pub spec: RunSpec,
    /// Synthetic-fixture kind, [`Fixture::None`] for real runs.
    pub fixture: Fixture,
}

impl CampaignRun {
    pub(crate) fn new(mut spec: RunSpec, fixture: Fixture) -> Self {
        let digest = spec.config_digest(fixture.name());
        if let Some(root) = spec.checkpoint_dir.take() {
            let subdir = Path::new(&root).join(format!("{digest:016x}-{}", spec.seed));
            spec.checkpoint_dir = Some(subdir.display().to_string());
        }
        CampaignRun { spec, fixture }
    }

    /// The journal's resume key (with the seed): [`RunSpec::config_digest`]
    /// of the spec and fixture.
    pub fn config_digest(&self) -> u64 {
        self.spec.config_digest(self.fixture.name())
    }

    /// A copy-pasteable `pra run` invocation reproducing this run outside
    /// the campaign harness (the panic fixture has no CLI equivalent and
    /// renders as a comment).
    pub fn repro_line(&self) -> String {
        if self.fixture == Fixture::Panic {
            return "# synthetic panic fixture (harness self-test; no CLI equivalent)".to_string();
        }
        self.spec.repro_line()
    }
}

/// A campaign description: one [`RunSpec`] template holding the knobs
/// shared by every run, plus the axes of the experiment matrix. Parses from
/// a minimal TOML subset ([`Campaign::from_toml_str`]) and expands to the
/// full cross product ([`Campaign::expand`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The shared knobs. Expansion overrides its scheme, workload, seed and
    /// fault plan per run; its `checkpoint_dir` is the root of the per-run
    /// checkpoint subdirectories.
    pub template: RunSpec,
    /// Schemes axis (at least one).
    pub schemes: Vec<Scheme>,
    /// Workloads axis, canonical names (at least one).
    pub workloads: Vec<String>,
    /// Seeds axis (at least one).
    pub seeds: Vec<u64>,
    /// Fault-plan files: each becomes an extra matrix axis value (a run
    /// without a plan is always included).
    pub fault_plans: Vec<String>,
    /// Re-run every Nth run twice and compare state digests (0 disables).
    pub determinism_sample: u64,
    /// Append one synthetic panicking run (harness self-test).
    pub include_panic_fixture: bool,
    /// Append one synthetic hanging run (harness self-test).
    pub include_hang_fixture: bool,
}

impl Campaign {
    /// Parses a campaign from a minimal TOML subset: `key = value` lines,
    /// `#` comments, string/integer arrays in `[...]`, and an optional
    /// `[campaign]` section header. Unknown keys are errors (a typo must
    /// not silently shrink the matrix). The keys a campaign shares with
    /// `pra run` ([`RunSpec::KEYS`]) parse through [`RunSpec::set`].
    ///
    /// # Errors
    ///
    /// [`MatrixError`] naming the offending line, unknown scheme/workload
    /// names, or a missing or empty axis.
    pub fn from_toml_str(text: &str) -> Result<Self, MatrixError> {
        let mut c = Campaign {
            template: RunSpec {
                cores: 1,
                instructions: 5_000,
                warmup: Some(10_000),
                watchdog_no_retire: 1_000_000,
                ..RunSpec::default()
            },
            schemes: Vec::new(),
            workloads: Vec::new(),
            seeds: Vec::new(),
            fault_plans: Vec::new(),
            determinism_sample: 0,
            include_panic_fixture: false,
            include_hang_fixture: false,
        };

        for entry in sim_obs::toml::entries(text, "campaign") {
            let (lineno, key, value) = entry.map_err(matrix_err)?;
            let at_line = |e: &dyn fmt::Display| matrix_err(format!("line {lineno}: {e}"));
            let as_u64 = |v: &str| {
                v.parse::<u64>().map_err(|_| {
                    matrix_err(format!("line {lineno}: {key} wants an integer, got {v:?}"))
                })
            };
            let as_bool = |v: &str| {
                v.parse::<bool>().map_err(|_| {
                    matrix_err(format!("line {lineno}: {key} wants true|false, got {v:?}"))
                })
            };
            match key {
                "schemes" => {
                    c.schemes = parse_string_array(value, key, lineno)?
                        .iter()
                        .map(|n| n.parse::<Scheme>().map_err(|e| at_line(&e)))
                        .collect::<Result<_, _>>()?;
                }
                "workloads" => {
                    c.workloads = parse_string_array(value, key, lineno)?
                        .iter()
                        .map(|n| {
                            workloads::resolve(n, 1)
                                .map(|(name, _)| name.to_string())
                                .map_err(|e| at_line(&e))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => {
                    c.seeds = parse_raw_array(value, key, lineno)?
                        .iter()
                        .map(|v| as_u64(v))
                        .collect::<Result<_, _>>()?;
                }
                "fault_plans" => c.fault_plans = parse_string_array(value, key, lineno)?,
                "determinism_sample" => c.determinism_sample = as_u64(value)?,
                "include_panic_fixture" => c.include_panic_fixture = as_bool(value)?,
                "include_hang_fixture" => c.include_hang_fixture = as_bool(value)?,
                key if RunSpec::KEYS.contains(&key) => c
                    .template
                    .set(key, value.trim_matches('"'))
                    .map_err(|e| at_line(&e))?,
                _ => {
                    return Err(matrix_err(format!("line {lineno}: unknown key {key:?}")));
                }
            }
        }
        c.validate()?;
        Ok(c)
    }

    /// Checks the campaign for consistency.
    ///
    /// # Errors
    ///
    /// [`MatrixError`] when an axis is missing or empty, or the template
    /// fails [`RunSpec::validate`].
    pub fn validate(&self) -> Result<(), MatrixError> {
        for (axis, empty) in [
            ("schemes", self.schemes.is_empty()),
            ("workloads", self.workloads.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(matrix_err(format!("{axis} axis is missing or empty")));
            }
        }
        self.template
            .validate()
            .map_err(|e| matrix_err(e.to_string()))
    }

    /// Expands the matrix into the full, deterministically-ordered run
    /// list: scheme-major, then workload, then fault plan, then seed, with
    /// the synthetic fixtures (when enabled) appended last.
    pub fn expand(&self) -> Vec<CampaignRun> {
        let mut plans: Vec<Option<String>> = vec![None];
        plans.extend(self.fault_plans.iter().cloned().map(Some));
        let mut runs = Vec::new();
        for &scheme in &self.schemes {
            for workload in &self.workloads {
                for plan in &plans {
                    for &seed in &self.seeds {
                        let spec = RunSpec {
                            scheme,
                            workload: workload.clone(),
                            seed,
                            fault_plan: plan.clone(),
                            ..self.template.clone()
                        };
                        runs.push((spec, Fixture::None));
                    }
                }
            }
        }
        if let Some((first, _)) = runs.first().cloned() {
            if self.include_panic_fixture {
                runs.push((first.clone(), Fixture::Panic));
            }
            if self.include_hang_fixture {
                // A 20-cycle no-retire bound is below a single read's
                // latency: the run is guaranteed to classify as hung.
                let hang = RunSpec {
                    watchdog_no_retire: 20,
                    watchdog_queue_age: 0,
                    ..first
                };
                runs.push((hang, Fixture::Hang));
            }
        }
        runs.into_iter()
            .map(|(spec, fixture)| CampaignRun::new(spec, fixture))
            .collect()
    }
}

fn parse_raw_array(value: &str, key: &str, lineno: usize) -> Result<Vec<String>, MatrixError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| {
            matrix_err(format!(
                "line {lineno}: {key} wants an array `[...]`, got {value:?}"
            ))
        })?;
    Ok(inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect())
}

fn parse_string_array(value: &str, key: &str, lineno: usize) -> Result<Vec<String>, MatrixError> {
    let items = parse_raw_array(value, key, lineno)?;
    items
        .into_iter()
        .map(|item| {
            item.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| {
                    matrix_err(format!(
                        "line {lineno}: {key} wants quoted strings, got {item:?}"
                    ))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        # demo campaign
        [campaign]
        schemes = ["baseline", "pra"]
        workloads = ["GUPS", "lbm", "MIX1"]
        seeds = [1, 2]
    "#;

    #[test]
    fn minimal_matrix_parses_with_defaults() {
        let c = Campaign::from_toml_str(MINIMAL).unwrap();
        assert_eq!(c.schemes, vec![Scheme::Baseline, Scheme::Pra]);
        assert_eq!(c.workloads, vec!["GUPS", "lbm", "MIX1"]);
        assert_eq!(c.seeds, vec![1, 2]);
        assert_eq!(c.template.policy, dram_sim::PagePolicy::RelaxedClosePage);
        assert_eq!(c.template.cores, 1);
        assert_eq!(c.template.warmup, Some(10_000));
        assert_eq!(c.template.watchdog_no_retire, 1_000_000);
        assert_eq!(c.expand().len(), 2 * 3 * 2);
    }

    #[test]
    fn fixtures_and_fault_plans_extend_the_matrix() {
        let text = format!(
            "{MINIMAL}\nfault_plans = [\"plans/stress.toml\"]\n\
             include_panic_fixture = true\ninclude_hang_fixture = true\n"
        );
        let c = Campaign::from_toml_str(&text).unwrap();
        let specs = c.expand();
        // Each (scheme, workload, seed) runs once bare and once faulted.
        assert_eq!(specs.len(), 2 * 3 * 2 * 2 + 2);
        let panic_spec = &specs[specs.len() - 2];
        let hang_spec = &specs[specs.len() - 1];
        assert_eq!(panic_spec.fixture, Fixture::Panic);
        assert!(panic_spec.repro_line().starts_with('#'));
        assert_eq!(hang_spec.fixture, Fixture::Hang);
        assert_eq!(hang_spec.spec.watchdog_no_retire, 20);
        assert!(hang_spec.repro_line().contains("--watchdog-no-retire 20"));
    }

    #[test]
    fn unknown_names_are_rejected_with_suggestions() {
        let bad_scheme = MINIMAL.replace("\"pra\"", "\"sra\"");
        let e = Campaign::from_toml_str(&bad_scheme).unwrap_err();
        assert!(e.to_string().contains("unknown scheme"), "{e}");
        let bad_workload = MINIMAL.replace("\"lbm\"", "\"lbn\"");
        let e = Campaign::from_toml_str(&bad_workload).unwrap_err();
        assert!(e.to_string().contains("unknown workload"), "{e}");
        let e = Campaign::from_toml_str("schemes = [\"pra\"]\nseeds = [1]").unwrap_err();
        assert!(e.to_string().contains("workloads"), "{e}");
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\ntypo = 3")).unwrap_err();
        assert!(e.to_string().contains("unknown key"), "{e}");
    }

    #[test]
    fn workload_names_are_canonicalised() {
        let text = MINIMAL
            .replace("\"GUPS\"", "\"gups\"")
            .replace("\"MIX1\"", "\"mix1\"");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert_eq!(c.workloads[0], "GUPS");
        assert_eq!(c.workloads[2], "MIX1");
    }

    #[test]
    fn recovery_knob_flows_into_specs_and_repro() {
        let text = format!("{MINIMAL}\nrecovery = true\n");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert!(c.template.recovery);
        let specs = c.expand();
        assert!(specs.iter().all(|s| s.spec.recovery));
        assert!(specs[0].repro_line().ends_with("--recovery"));
        let plain = Campaign::from_toml_str(MINIMAL).unwrap();
        assert!(!plain.template.recovery, "recovery defaults off");
        assert!(!plain.expand()[0].repro_line().contains("--recovery"));
    }

    #[test]
    fn checkpoint_knobs_parse_and_flow_into_specs() {
        let text = format!("{MINIMAL}\ncheckpoint_every = 5000\ncheckpoint_dir = \"/tmp/snaps\"\n");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert_eq!(c.template.checkpoint_every, 5_000);
        assert_eq!(c.template.checkpoint_dir.as_deref(), Some("/tmp/snaps"));
        let specs = c.expand();
        let spec = &specs[0];
        assert_eq!(spec.spec.checkpoint_every, 5_000);
        let subdir = Path::new(spec.spec.checkpoint_dir.as_deref().unwrap());
        assert_eq!(subdir.parent(), Some(Path::new("/tmp/snaps")));
        let name = subdir.file_name().unwrap().to_str().unwrap();
        // <config_digest:016x>-<seed>
        let (digest_part, seed_part) = name.split_once('-').unwrap();
        assert_eq!(digest_part.len(), 16, "{name}");
        assert_eq!(
            u64::from_str_radix(digest_part, 16).unwrap(),
            spec.config_digest()
        );
        assert_eq!(seed_part, spec.spec.seed.to_string());
        // Different seeds get different subdirectories.
        let other = specs
            .iter()
            .find(|s| s.spec.seed != spec.spec.seed)
            .unwrap();
        assert_ne!(spec.spec.checkpoint_dir, other.spec.checkpoint_dir);
        let line = spec.repro_line();
        assert!(line.contains("--checkpoint-every 5000"), "{line}");
        assert!(
            line.contains(&format!("--checkpoint-dir {}", subdir.display())),
            "{line}"
        );
        // Off by default: no flags, no subdir.
        let plain = Campaign::from_toml_str(MINIMAL).unwrap();
        let spec = &plain.expand()[0];
        assert!(spec.spec.checkpoint_dir.is_none());
        assert!(
            !spec.repro_line().contains("--checkpoint"),
            "{}",
            spec.repro_line()
        );
    }

    #[test]
    fn half_configured_checkpointing_is_rejected() {
        let e =
            Campaign::from_toml_str(&format!("{MINIMAL}\ncheckpoint_every = 5000\n")).unwrap_err();
        assert!(e.to_string().contains("checkpoint_dir is missing"), "{e}");
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\ncheckpoint_dir = \"/tmp/snaps\"\n"))
            .unwrap_err();
        assert!(e.to_string().contains("checkpoint_every is 0"), "{e}");
        let e =
            Campaign::from_toml_str(&format!("{MINIMAL}\ncheckpoint_dir = \"\"\n")).unwrap_err();
        assert!(e.to_string().contains("non-empty"), "{e}");
    }

    #[test]
    fn shared_keys_are_range_checked_with_line_numbers() {
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\ninstructions = 0\n")).unwrap_err();
        assert!(
            e.to_string()
                .contains("line 8: instructions must be at least 1"),
            "{e}"
        );
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\ncores = 5\n")).unwrap_err();
        assert!(e.to_string().contains("line 8: cores must be 1..=4"), "{e}");
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\npolicy = \"lazy\"\n")).unwrap_err();
        assert!(e.to_string().contains("line 8: unknown policy"), "{e}");
    }

    #[test]
    fn repro_line_is_cli_shaped() {
        let c = Campaign::from_toml_str(MINIMAL).unwrap();
        let spec = &c.expand()[0];
        let line = spec.repro_line();
        assert!(
            line.starts_with("pra run --scheme baseline --workload GUPS"),
            "{line}"
        );
        assert!(line.contains("--seed 1"), "{line}");
        assert!(line.contains("--watchdog-no-retire 1000000"), "{line}");
    }
}

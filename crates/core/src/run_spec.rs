//! The one description of a full-system run, shared by `pra run` and the
//! campaign harness.
//!
//! `pra` fills a [`RunSpec`] from flags, a campaign matrix from TOML keys;
//! the keys both accept ([`RunSpec::KEYS`], spelled with `-` on the command
//! line) parse through [`RunSpec::set`], and [`RunSpec::builder`] is the only
//! spec → [`SimBuilder`] construction. So the `pra run` line printed by
//! [`RunSpec::repro_line`] reproduces a journaled run's state digest.

use dram_sim::PagePolicy;
use sim_fault::FaultPlan;

use crate::{Scheme, SimBuilder, SimError};

/// A bad run-spec value, or values that contradict each other. The message
/// names the key in its campaign-matrix spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn spec_err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Everything that determines one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Activation scheme under test.
    pub scheme: Scheme,
    /// Canonical workload name, as [`workloads::resolve`] spells it.
    pub workload: String,
    /// Page policy.
    pub policy: PagePolicy,
    /// Cores for benchmark workloads (mixes always use 4).
    pub cores: usize,
    /// Instructions each core retires.
    pub instructions: u64,
    /// Functional-warmup memory operations per core; `None` keeps
    /// [`SimBuilder::warmup_mem_ops`]'s default.
    pub warmup: Option<u64>,
    /// Workload RNG seed.
    pub seed: u64,
    /// No-retire liveness bound in memory cycles (0 disables).
    pub watchdog_no_retire: u64,
    /// Queue-age (starvation) liveness bound in memory cycles (0 disables).
    pub watchdog_queue_age: u64,
    /// Fault-plan file injected into the run.
    pub fault_plan: Option<String>,
    /// Arm the controller recovery pipeline.
    pub recovery: bool,
    /// Checkpoint interval in memory cycles (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Checkpoint directory, required exactly when `checkpoint_every > 0`.
    pub checkpoint_dir: Option<String>,
}

impl Default for RunSpec {
    /// The `pra run` defaults: PRA on four GUPS cores, relaxed close-page,
    /// 100 000 instructions, seed 1, the builder's default warmup, nothing
    /// else armed.
    fn default() -> Self {
        RunSpec {
            scheme: Scheme::Pra,
            workload: "GUPS".to_string(),
            policy: PagePolicy::RelaxedClosePage,
            cores: 4,
            instructions: 100_000,
            warmup: None,
            seed: 1,
            watchdog_no_retire: 0,
            watchdog_queue_age: 0,
            fault_plan: None,
            recovery: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }
}

impl RunSpec {
    /// The keys `pra run` flags and campaign TOML share, in TOML spelling.
    /// Scheme, workload, seed and fault plan are campaign axes instead.
    pub const KEYS: [&'static str; 9] = [
        "policy",
        "cores",
        "instructions",
        "warmup",
        "watchdog_no_retire",
        "watchdog_queue_age",
        "recovery",
        "checkpoint_every",
        "checkpoint_dir",
    ];

    /// Sets one of [`RunSpec::KEYS`] from its unquoted text value.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown key, a malformed value, or a value out
    /// of range (`cores` outside 1..=4, zero `instructions`, an empty
    /// `checkpoint_dir`).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| spec_err(format!("{key} wants an integer, got {value:?}")))
        };
        match key {
            "policy" => self.policy = value.parse().map_err(spec_err)?,
            "cores" => self.cores = int()? as usize,
            "instructions" => self.instructions = int()?,
            "warmup" => self.warmup = Some(int()?),
            "watchdog_no_retire" => self.watchdog_no_retire = int()?,
            "watchdog_queue_age" => self.watchdog_queue_age = int()?,
            "recovery" => {
                self.recovery = value
                    .parse()
                    .map_err(|_| spec_err(format!("{key} wants true|false, got {value:?}")))?;
            }
            "checkpoint_every" => self.checkpoint_every = int()?,
            "checkpoint_dir" => self.checkpoint_dir = Some(value.to_string()),
            _ => return Err(spec_err(format!("unknown key {key:?}"))),
        }
        self.check_fields()
    }

    fn check_fields(&self) -> Result<(), SpecError> {
        if !(1..=4).contains(&self.cores) {
            return Err(spec_err(format!(
                "cores must be 1..=4 (the 8 GB space is split per core), got {}",
                self.cores
            )));
        }
        if self.instructions == 0 {
            return Err(spec_err(
                "instructions must be at least 1: a zero-length run has no elapsed time \
                 to average power over",
            ));
        }
        if self.checkpoint_dir.as_deref() == Some("") {
            return Err(spec_err("checkpoint_dir wants a non-empty path"));
        }
        workloads::resolve(&self.workload, 1).map_err(spec_err)?;
        Ok(())
    }

    /// Checks every field and that checkpointing is configured fully or
    /// not at all.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending key.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.check_fields()?;
        match (self.checkpoint_every, &self.checkpoint_dir) {
            (0, Some(_)) => Err(spec_err(
                "checkpoint_dir is set but checkpoint_every is 0: choose a checkpoint interval",
            )),
            (n, None) if n > 0 => Err(spec_err(
                "checkpoint_every is set but checkpoint_dir is missing: choose a directory \
                 for the snapshots",
            )),
            _ => Ok(()),
        }
    }

    /// Digest of everything but the seed and the checkpoint knobs — the
    /// campaign journal's resume key with the seed. Checkpointing never
    /// changes what a run computes, so a new cadence on `campaign resume`
    /// re-runs nothing. `fixture` names the harness's synthetic run kind
    /// (`"none"` for a real run).
    pub fn config_digest(&self, fixture: &str) -> u64 {
        let warmup = self
            .warmup
            .map_or_else(|| "-".to_string(), |w| w.to_string());
        let canonical = format!(
            "scheme={};workload={};policy={};cores={};instructions={};warmup={warmup};\
             no_retire={};queue_age={};faults={};recovery={};fixture={fixture}",
            self.scheme.cli_name(),
            self.workload,
            self.policy.cli_name(),
            self.cores,
            self.instructions,
            self.watchdog_no_retire,
            self.watchdog_queue_age,
            self.fault_plan.as_deref().unwrap_or("-"),
            self.recovery,
        );
        sim_snap::fnv1a_64(canonical.as_bytes())
    }

    /// The `pra run` command that rebuilds this spec.
    pub fn repro_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "pra run --scheme {} --workload {} --policy {} --cores {} --instructions {}",
            self.scheme.cli_name(),
            self.workload,
            self.policy.cli_name(),
            self.cores,
            self.instructions,
        );
        if let Some(warmup) = self.warmup {
            let _ = write!(line, " --warmup {warmup}");
        }
        let _ = write!(line, " --seed {}", self.seed);
        if self.watchdog_no_retire > 0 {
            let _ = write!(line, " --watchdog-no-retire {}", self.watchdog_no_retire);
        }
        if self.watchdog_queue_age > 0 {
            let _ = write!(line, " --watchdog-queue-age {}", self.watchdog_queue_age);
        }
        if let Some(plan) = &self.fault_plan {
            let _ = write!(line, " --faults {plan}");
        }
        if self.recovery {
            line.push_str(" --recovery");
        }
        if let (true, Some(dir)) = (self.checkpoint_every > 0, &self.checkpoint_dir) {
            let _ = write!(
                line,
                " --checkpoint-every {} --checkpoint-dir {dir}",
                self.checkpoint_every
            );
        }
        line
    }

    /// The simulation this spec describes, its report named after the
    /// canonical workload (`GUPS`, not `GUPS+GUPS`).
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] when the spec fails [`RunSpec::validate`] or its
    /// fault-plan file is unreadable or invalid.
    pub fn builder(&self) -> Result<SimBuilder, SimError> {
        self.validate()?;
        let (name, apps) = workloads::resolve(&self.workload, self.cores).map_err(spec_err)?;
        let mut builder = SimBuilder::new()
            .name(name)
            .scheme(self.scheme)
            .policy(self.policy)
            .instructions(self.instructions)
            .seed(self.seed)
            .liveness_watchdog(self.watchdog_no_retire, self.watchdog_queue_age)
            .checkpoint_every(self.checkpoint_every);
        for app in apps {
            builder = builder.app(app);
        }
        if let Some(warmup) = self.warmup {
            builder = builder.warmup_mem_ops(warmup);
        }
        if let Some(path) = &self.fault_plan {
            let text = std::fs::read_to_string(path)
                .map_err(|e| spec_err(format!("cannot read fault plan {path}: {e}")))?;
            let plan =
                FaultPlan::from_toml_str(&text).map_err(|e| spec_err(format!("{path}: {e}")))?;
            builder = builder.faults(plan);
        }
        if self.recovery {
            builder = builder.recovery(crate::RecoveryConfig::default());
        }
        if let Some(dir) = &self.checkpoint_dir {
            builder = builder.checkpoint_dir(dir);
        }
        Ok(builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_parse_and_range_check() {
        let mut spec = RunSpec::default();
        spec.set("policy", "restricted").unwrap();
        spec.set("cores", "2").unwrap();
        spec.set("warmup", "5000").unwrap();
        spec.set("recovery", "true").unwrap();
        assert_eq!(spec.policy, PagePolicy::RestrictedClosePage);
        assert_eq!(
            (spec.cores, spec.warmup, spec.recovery),
            (2, Some(5_000), true)
        );
        for (key, value, want) in [
            ("cores", "0", "cores must be 1..=4"),
            ("cores", "5", "cores must be 1..=4"),
            ("instructions", "0", "instructions must be at least 1"),
            ("instructions", "abc", "instructions wants an integer"),
            ("recovery", "yes", "recovery wants true|false"),
            ("policy", "lazy", "unknown policy \"lazy\""),
            ("checkpoint_dir", "", "non-empty"),
            ("scheme", "pra", "unknown key \"scheme\""),
        ] {
            let e = RunSpec::default().set(key, value).unwrap_err();
            assert!(e.to_string().contains(want), "{key}={value}: {e}");
        }
    }

    #[test]
    fn half_configured_checkpointing_is_invalid() {
        let every = RunSpec {
            checkpoint_every: 500,
            ..RunSpec::default()
        };
        let e = every.validate().unwrap_err();
        assert!(e.to_string().contains("checkpoint_dir is missing"), "{e}");
        let dir = RunSpec {
            checkpoint_dir: Some("snaps".to_string()),
            ..RunSpec::default()
        };
        let e = dir.validate().unwrap_err();
        assert!(e.to_string().contains("checkpoint_every is 0"), "{e}");
        assert!(matches!(dir.builder(), Err(SimError::Spec(_))));
    }

    #[test]
    fn digest_ignores_seed_and_checkpoint_knobs_but_not_config() {
        let base = RunSpec::default();
        let digest = base.config_digest("none");
        let reseeded = RunSpec {
            seed: 99,
            ..base.clone()
        };
        assert_eq!(reseeded.config_digest("none"), digest);
        let checkpointed = RunSpec {
            checkpoint_every: 5_000,
            checkpoint_dir: Some("/tmp/snaps".to_string()),
            ..base.clone()
        };
        assert_eq!(checkpointed.config_digest("none"), digest);
        assert_ne!(base.config_digest("panic"), digest);
        for other in [
            RunSpec {
                scheme: Scheme::Baseline,
                ..base.clone()
            },
            RunSpec {
                recovery: true,
                ..base.clone()
            },
            RunSpec {
                warmup: Some(1_000_000 / 4),
                ..base.clone()
            },
        ] {
            assert_ne!(other.config_digest("none"), digest, "{other:?}");
        }
    }

    #[test]
    fn repro_line_spells_every_set_knob() {
        let spec = RunSpec {
            scheme: Scheme::HalfDramPra,
            warmup: Some(2_000),
            watchdog_no_retire: 20,
            fault_plan: Some("plan.toml".to_string()),
            recovery: true,
            checkpoint_every: 300,
            checkpoint_dir: Some("snaps".to_string()),
            ..RunSpec::default()
        };
        assert_eq!(
            spec.repro_line(),
            "pra run --scheme half-dram-pra --workload GUPS --policy relaxed --cores 4 \
             --instructions 100000 --warmup 2000 --seed 1 --watchdog-no-retire 20 \
             --faults plan.toml --recovery --checkpoint-every 300 --checkpoint-dir snaps"
        );
        assert_eq!(
            RunSpec::default().repro_line(),
            "pra run --scheme pra --workload GUPS --policy relaxed --cores 4 \
             --instructions 100000 --seed 1"
        );
    }

    #[test]
    fn builder_names_the_report_after_the_canonical_workload() {
        let spec = RunSpec {
            cores: 2,
            instructions: 500,
            warmup: Some(1_000),
            ..RunSpec::default()
        };
        let report = spec.builder().unwrap().try_run().unwrap();
        assert_eq!(report.workload, "GUPS");
        assert_eq!(report.ipc.len(), 2);
        let unknown = RunSpec {
            workload: "dhrystone".to_string(),
            ..RunSpec::default()
        };
        assert!(matches!(unknown.builder(), Err(SimError::Spec(_))));
    }

    #[test]
    fn unreadable_fault_plan_names_the_file() {
        let spec = RunSpec {
            fault_plan: Some("/no/such/plan.toml".to_string()),
            ..RunSpec::default()
        };
        let e = spec.builder().unwrap_err();
        assert!(
            e.to_string()
                .starts_with("cannot read fault plan /no/such/plan.toml"),
            "{e}"
        );
    }
}

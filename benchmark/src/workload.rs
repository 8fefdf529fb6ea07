//! The four workloads and the simulations each one runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cache_sim::{CacheHierarchy, HierarchyConfig};
use dram_sim::{DramConfig, PagePolicy};
use pra_core::experiments::{scheme_comparison_filtered, ExperimentConfig};
use pra_core::{Report, Scheme, SimBuilder};
use workloads::{BenchProfile, WorkloadGen};

/// Seed whose state digests are recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// Instructions per core of a set-up probe: the same workload, cut short
/// so that its wall time is builder set-up plus functional cache warmup.
/// Runs of 0 or 1 instructions panic inside the power model (see the
/// defects in README.md), so the probe retires a few cycles' worth.
pub const SETUP_PROBE_INSTRUCTIONS: u64 = 100;

/// Schemes of the figure sweep, in the order its rows come back.
const SWEEP_SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::Fga,
    Scheme::HalfDram,
    Scheme::Pra,
    Scheme::Dbi,
];
const SWEEP_MIX: &str = "MIX1";
/// Every workload runs under the paper's relaxed close-page policy.
const POLICY: PagePolicy = PagePolicy::RelaxedClosePage;

/// How long the simulations of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Length {
    /// Instructions per core.
    pub instructions: u64,
    /// Functional warmup override in memory ops per core; `None` keeps the
    /// simulator's default, which starts the timed phase with warmed caches.
    pub warmup: Option<u64>,
}

/// One full-system simulation, described by the builder calls that make it.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Report name override (the figure sweep names its 4-core runs).
    pub name: Option<&'static str>,
    /// One application per core.
    pub apps: Vec<BenchProfile>,
    /// Evaluated scheme.
    pub scheme: Scheme,
    /// Run length.
    pub length: Length,
    /// Workload generator seed.
    pub seed: u64,
}

impl RunSpec {
    /// The builder that runs this simulation.
    pub fn builder(&self) -> SimBuilder {
        let mut b = SimBuilder::new()
            .scheme(self.scheme)
            .policy(POLICY)
            .instructions(self.length.instructions)
            .seed(self.seed);
        for app in &self.apps {
            b = b.app(*app);
        }
        if let Some(name) = self.name {
            b = b.name(name);
        }
        if let Some(w) = self.length.warmup {
            b = b.warmup_mem_ops(w);
        }
        b
    }

    /// Runs the simulation once.
    ///
    /// # Errors
    ///
    /// The simulator's error, or the message of a caught panic.
    pub fn run(&self) -> Result<Vec<Report>, String> {
        try_run(&self.builder()).map(|r| vec![r])
    }

    /// Memory ops per core the builder plays through the caches before the
    /// timed phase (its documented default unless overridden).
    pub fn warmup_mem_ops(&self) -> u64 {
        self.length
            .warmup
            .unwrap_or(1_000_000 / self.apps.len() as u64)
    }

    /// The DRAM configuration the builder derives for this run.
    pub fn dram_config(&self) -> DramConfig {
        DramConfig::paper_baseline(POLICY, self.scheme.behavior())
    }

    /// A cold cache hierarchy shaped as the builder shapes it.
    pub fn hierarchy(&self) -> CacheHierarchy {
        let dram = self.dram_config();
        let config = HierarchyConfig {
            dbi: self.scheme.uses_dbi(),
            ..HierarchyConfig::paper(self.apps.len())
        };
        CacheHierarchy::with_dram_view(config, dram.geometry, dram.mapping)
    }

    /// Fresh generators, one per core, seeded and placed in the address
    /// space as the builder documents (disjoint 2 GB slices per core).
    pub fn generators(&self) -> Vec<WorkloadGen> {
        self.apps
            .iter()
            .enumerate()
            .map(|(core, app)| {
                WorkloadGen::new(
                    *app,
                    self.seed.wrapping_add(core as u64 * 0x1234_5678),
                    (core as u64) << 31,
                )
            })
            .collect()
    }
}

/// Which simulations a workload runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    FigureSweep,
    Homogeneous {
        app: fn() -> BenchProfile,
        cores: usize,
        scheme: Scheme,
    },
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    kind: Kind,
    /// Instructions per core of one repetition.
    pub instructions: u64,
    /// `Report::state_digest` of every report one repetition returns, in
    /// order, at [`DEFAULT_SEED`] and the default warmup.
    pub recorded: &'static [u64],
}

/// Every workload of the benchmark.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "figure_sweep",
        why: "MIX1 via scheme_comparison_filtered, five schemes at the figure binaries' default 300k instr/core: the figure-regeneration path, with nine functional warmups",
        kind: Kind::FigureSweep,
        instructions: 300_000,
        recorded: &[
            0xde27_fbc8_41b8_e8fc, // baseline
            0x6c4e_e50d_c0a7_67ed, // FGA
            0x8f09_2ead_d227_88ae, // Half-DRAM
            0xed9c_eefd_1b84_73e7, // PRA
            0x46e4_c361_7502_9ae8, // DBI
        ],
    },
    Workload {
        name: "stream_saturated",
        why: "libquantum x4 on Baseline, 1M instr/core: read-dominated row-hit streaming with deep DRAM queues, where scheduler and queue changes show",
        kind: Kind::Homogeneous {
            app: workloads::libquantum,
            cores: 4,
            scheme: Scheme::Baseline,
        },
        instructions: 1_000_000,
        recorded: &[0x4d41_e0bb_b373_6938],
    },
    Workload {
        name: "scatter_write",
        why: "GUPS x4 under PRA, 500k instr/core: RMW stores with no row locality, write drains, the most partial activations and power accounting",
        kind: Kind::Homogeneous {
            app: workloads::gups,
            cores: 4,
            scheme: Scheme::Pra,
        },
        instructions: 500_000,
        recorded: &[0x7e93_b3c4_519c_9c51],
    },
    Workload {
        name: "compute_bound",
        why: "bzip2 x1 under PRA, 3M instr: about 0.1 DRAM requests per memory cycle, the lightly loaded regime next-event stepping targets",
        kind: Kind::Homogeneous {
            app: workloads::bzip2,
            cores: 1,
            scheme: Scheme::Pra,
        },
        instructions: 3_000_000,
        recorded: &[0x31b2_fc7b_a2b4_c8af],
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The benchmark's own run length for this workload.
    pub fn length(&self) -> Length {
        Length {
            instructions: self.instructions,
            warmup: None,
        }
    }

    /// Every simulation one repetition runs. The first ones are those whose
    /// reports [`Workload::run`] returns, in the same order; the figure
    /// sweep follows them with its memoised alone runs.
    pub fn specs(&self, seed: u64, length: Length) -> Vec<RunSpec> {
        let spec = |name, apps, scheme| RunSpec {
            name,
            apps,
            scheme,
            length,
            seed,
        };
        match self.kind {
            Kind::FigureSweep => {
                let apps = sweep_mix();
                let mut specs: Vec<RunSpec> = SWEEP_SCHEMES
                    .iter()
                    .map(|&s| spec(Some(SWEEP_MIX), apps.to_vec(), s))
                    .collect();
                specs.extend(apps.iter().map(|&a| spec(None, vec![a], Scheme::Baseline)));
                specs
            }
            Kind::Homogeneous { app, cores, scheme } => {
                vec![spec(None, vec![app(); cores], scheme)]
            }
        }
    }

    /// One repetition through the public entry point a user would call:
    /// `scheme_comparison_filtered` for the sweep, `SimBuilder::try_run`
    /// otherwise.
    ///
    /// # Errors
    ///
    /// The simulator's error, or the message of a caught panic.
    pub fn run(&self, seed: u64, length: Length) -> Result<Vec<Report>, String> {
        match self.kind {
            Kind::FigureSweep => {
                let cfg = ExperimentConfig {
                    instructions: length.instructions,
                    seed,
                    warmup: length.warmup,
                };
                catch_unwind(|| {
                    scheme_comparison_filtered(&cfg, &SWEEP_SCHEMES, POLICY, |n| n == SWEEP_MIX)
                })
                .map(|rows| rows.into_iter().map(|r| r.report).collect())
                .map_err(|panic| panic_message(panic.as_ref()))
            }
            Kind::Homogeneous { .. } => self.specs(seed, length)[0].run(),
        }
    }

    /// The digests recorded for `seed` at this workload's own length, if any.
    pub fn recorded_digests(&self, seed: u64, length: Length) -> Option<&'static [u64]> {
        (seed == DEFAULT_SEED && length == self.length() && !self.recorded.is_empty())
            .then_some(self.recorded)
    }
}

fn sweep_mix() -> [BenchProfile; 4] {
    workloads::all_workloads()
        .into_iter()
        .find(|(n, _)| n == SWEEP_MIX)
        .map(|(_, apps)| apps)
        .expect("the paper's workload list includes MIX1")
}

/// `SimBuilder::try_run`, with a panic caught and reported as an error.
///
/// # Errors
///
/// The simulator's error, or the message of a caught panic.
pub fn try_run(builder: &SimBuilder) -> Result<Report, String> {
    match catch_unwind(AssertUnwindSafe(|| builder.try_run())) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => Err(panic_message(panic.as_ref())),
    }
}

/// The text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with a non-string payload".to_string()
    }
}

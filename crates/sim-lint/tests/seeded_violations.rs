//! Per-pass fixtures: each lint must flag a deliberately seeded violation
//! and honour an inline `// sim-lint: allow(...)` pragma on the same site.
//! This is the regression gate for the analyzer itself — if a pass stops
//! firing, these tests fail before the workspace quietly rots.

use sim_lint::source::SourceFile;
use sim_lint::workspace::{Manifest, Workspace};

/// Builds a synthetic workspace from `(crate_name, rel_path, source)`.
fn ws(files: Vec<(&str, &str, &str)>) -> Workspace {
    Workspace {
        files: files
            .into_iter()
            .map(|(c, p, s)| SourceFile::parse(c, p, s, false))
            .collect(),
        manifest: None,
        manifest_path: "docs/metrics.md".to_string(),
    }
}

fn lints_named<'a>(diags: &'a [sim_lint::Diagnostic], lint: &str) -> Vec<&'a sim_lint::Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

// ---------------------------------------------------------------- no-panic

#[test]
fn no_panic_flags_seeded_unwrap() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "no-panic-hot-path");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].line, 1);
}

#[test]
fn no_panic_pragma_suppresses_seeded_unwrap() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "// sim-lint: allow(no-panic-hot-path): fixture — provably Some\n\
         pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(
        lints_named(&diags, "no-panic-hot-path").is_empty(),
        "{diags:?}"
    );
    assert!(lints_named(&diags, "pragma").is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- checker-parity

const SEEDED_TIMING: &str = "pub struct TimingParams {\n    pub tzap: u64,\n}\n";

fn parity_files(timing: &'static str) -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("dram-sim", "crates/dram-sim/src/timing.rs", timing),
        (
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "pub fn fence(t: &TimingParams) -> u64 { t.tzap }\n",
        ),
        (
            "dram-sim",
            "crates/dram-sim/src/checker.rs",
            "pub fn observe() {}\n",
        ),
    ]
}

#[test]
fn parity_flags_scheduler_only_field() {
    let diags = sim_lint::lint_sources(&ws(parity_files(SEEDED_TIMING)));
    let hits = lints_named(&diags, "checker-parity");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(hits[0].message.contains("tzap"), "{}", hits[0].message);
    assert!(
        hits[0]
            .message
            .contains("never verified by the protocol checker"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].file, "crates/dram-sim/src/timing.rs");
}

#[test]
fn parity_pragma_on_field_line_suppresses() {
    let timing = "pub struct TimingParams {\n\
         // sim-lint: allow(checker-parity): fixture — pin-side timing\n\
         pub tzap: u64,\n\
         }\n";
    let diags = sim_lint::lint_sources(&ws(parity_files(timing)));
    assert!(
        lints_named(&diags, "checker-parity").is_empty(),
        "{diags:?}"
    );
}

// ---------------------------------------------------------- metric-registry

#[test]
fn metrics_flags_undeclared_name_and_unused_entry() {
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/stats.rs",
        "pub fn publish(reg: &mut R) { reg.counter(\"dram.seeded_metric\"); }\n",
    )]);
    w.manifest = Some(Manifest::parse(
        "| `dram.declared_but_never_emitted` | counter | fixture |\n",
    ));
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(hits
        .iter()
        .any(|d| d.message.contains("dram.seeded_metric") && d.file.ends_with("stats.rs")));
    assert!(hits
        .iter()
        .any(|d| d.message.contains("dram.declared_but_never_emitted")
            && d.file == "docs/metrics.md"));
}

#[test]
fn metrics_flags_undocumented_power_metric_both_ways() {
    // A power-telemetry publication site that registers a counter the
    // manifest does not know, next to a manifest that declares a power
    // gauge no code emits — the reconciliation must fire in BOTH
    // directions, and the correctly declared pair stays quiet.
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/memory_system.rs",
        "fn publish_power_telemetry(reg: &mut R) {\n\
         reg.counter(\"energy.total_pj\");\n\
         reg.gauge(\"power.total_mw\");\n\
         reg.counter(\"energy.leakage_pj\");\n\
         }\n",
    )]);
    w.manifest = Some(Manifest::parse(
        "| `energy.total_pj` | counter | fixture |\n\
         | `power.total_mw` | gauge | fixture |\n\
         | `power.phantom_rail_mw` | gauge | declared, never emitted |\n",
    ));
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(
        hits.iter().any(|d| d.message.contains("energy.leakage_pj")
            && d.message.contains("not declared")
            && d.file.ends_with("memory_system.rs")),
        "{diags:?}"
    );
    assert!(
        hits.iter()
            .any(|d| d.message.contains("power.phantom_rail_mw") && d.file == "docs/metrics.md"),
        "{diags:?}"
    );
}

#[test]
fn metrics_flags_power_metric_kind_mismatch() {
    // Publishing a rail as a counter when the manifest declares a gauge
    // (or vice versa) is a reconciliation error, not a silent pass.
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/memory_system.rs",
        "fn publish(reg: &mut R) { reg.counter(\"power.total_mw\"); }\n",
    )]);
    w.manifest = Some(Manifest::parse("| `power.total_mw` | gauge | fixture |\n"));
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert!(
        hits.iter()
            .any(|d| d.message.contains("power.total_mw")
                && d.message.contains("emitted as a counter")),
        "{diags:?}"
    );
}

#[test]
fn metrics_flags_bad_naming_convention() {
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/stats.rs",
        "pub fn publish(reg: &mut R) { reg.counter(\"BadName\"); }\n",
    )]);
    w.manifest = Some(Manifest::default());
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert!(
        hits.iter()
            .any(|d| d.message.contains("convention") && d.message.contains("BadName")),
        "{diags:?}"
    );
}

#[test]
fn metrics_pragma_suppresses_undeclared_name() {
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/stats.rs",
        "pub fn publish(reg: &mut R) {\n\
         // sim-lint: allow(metric-registry): fixture — experimental metric\n\
         reg.counter(\"dram.seeded_metric\");\n\
         }\n",
    )]);
    w.manifest = Some(Manifest::default());
    let diags = sim_lint::lint_sources(&w);
    assert!(
        lints_named(&diags, "metric-registry").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn no_panic_does_not_apply_to_the_sim_harness_crate() {
    // sim-harness is deliberately outside the hot-crate set: its whole job
    // is to *contain* panics behind catch_unwind, so unwrap/panic in the
    // harness is not a hot-path violation.
    let w = ws(vec![(
        "sim-harness",
        "crates/sim-harness/src/runner.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(
        lints_named(&diags, "no-panic-hot-path").is_empty(),
        "{diags:?}"
    );
}

// ------------------------------------------------------------------ pragma

#[test]
fn pragma_without_reason_is_rejected_and_does_not_suppress() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "// sim-lint: allow(no-panic-hot-path)\n\
         pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(
        !lints_named(&diags, "pragma").is_empty(),
        "reasonless pragma must be reported: {diags:?}"
    );
    assert!(
        !lints_named(&diags, "no-panic-hot-path").is_empty(),
        "reasonless pragma must not suppress: {diags:?}"
    );
}

// ------------------------------------------- no-panic in linked crates

/// A hot-loop entry point in `dram-sim` reaching, two calls deep, a panic
/// in `sim-obs`: the site itself is flagged, with no call chain to follow.
fn obs_fixture(obs_src: &'static str) -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "pub struct Channel;\n\
             impl Channel {\n    pub fn tick(&mut self, obs: &mut Recorder) { obs.record(1); }\n}\n",
        ),
        ("sim-obs", "crates/sim-obs/src/lib.rs", obs_src),
    ]
}

#[test]
fn no_panic_flags_a_seeded_panic_two_calls_deep_in_sim_obs() {
    let diags = sim_lint::lint_sources(&ws(obs_fixture(
        "pub struct Recorder;\n\
         impl Recorder {\n    pub fn record(&mut self, v: u64) { bucket_of(v); }\n}\n\
         fn bucket_of(v: u64) -> usize { v.checked_ilog2().unwrap() as usize }\n",
    )));
    let hits = lints_named(&diags, "no-panic-hot-path");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(
        (hits[0].file.as_str(), hits[0].line),
        ("crates/sim-obs/src/lib.rs", 5)
    );
}

#[test]
fn no_panic_pragma_suppresses_the_sim_obs_site() {
    let diags = sim_lint::lint_sources(&ws(obs_fixture(
        "pub struct Recorder;\n\
         impl Recorder {\n    pub fn record(&mut self, v: u64) { bucket_of(v); }\n}\n\
         fn bucket_of(v: u64) -> usize {\n\
         // sim-lint: allow(no-panic-hot-path): fixture — caller passes v >= 1\n\
         v.checked_ilog2().unwrap() as usize\n\
         }\n",
    )));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_panic_flags_a_seeded_assert_in_workloads() {
    // A crate the hot loop links (the op stream feeds every core), checked
    // at every site whether or not a call chain reaches it.
    let w = ws(vec![(
        "workloads",
        "crates/workloads/src/seeded.rs",
        "pub fn stride(lines: u64) -> u64 {\n    assert!(lines > 0, \"empty footprint\");\n    64 / lines\n}\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "no-panic-hot-path");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(
        (hits[0].file.as_str(), hits[0].line),
        ("crates/workloads/src/seeded.rs", 2)
    );
    assert!(hits[0].message.contains("assert!"), "{}", hits[0].message);
}

// ------------------------------------------------------- discarded-result

const SEEDED_RESULT_API: &str = "pub struct Scheduler;\n\
    impl Scheduler {\n    \
    pub fn issue(&mut self) -> Result<(), u8> { Ok(()) }\n}\n";

#[test]
fn discarded_result_flags_seeded_drops() {
    // The third shape, the bare statement `s.issue();`, is rustc's
    // `unused_must_use`; ci/seeded_compiler_lints.sh seeds it into pra-core
    // and requires clippy to reject it.
    let src = format!(
        "{SEEDED_RESULT_API}\
         pub fn a(s: &mut Scheduler) {{ let _ = s.issue(); }}\n\
         pub fn b(s: &mut Scheduler) {{ s.issue().ok(); }}\n\
         pub fn c(s: &mut Scheduler) {{ s.issue(); }}\n"
    );
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/sched.rs",
        Box::leak(src.into_boxed_str()),
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "discarded-result");
    let lines: Vec<u32> = hits.iter().map(|d| d.line).collect();
    assert_eq!(lines, [5, 6], "{diags:?}");
    assert!(hits.iter().all(|d| d.message.contains("`issue`")));
}

#[test]
fn discarded_result_pragma_and_consumption_pass() {
    let src = format!(
        "{SEEDED_RESULT_API}\
         pub fn a(s: &mut Scheduler) -> Result<(), u8> {{ s.issue()?; Ok(()) }}\n\
         pub fn b(s: &mut Scheduler) {{\n\
         // sim-lint: allow(discarded-result): fixture — best-effort drain\n\
         let _ = s.issue();\n\
         }}\n"
    );
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/sched.rs",
        Box::leak(src.into_boxed_str()),
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(
        lints_named(&diags, "discarded-result").is_empty(),
        "{diags:?}"
    );
    assert!(lints_named(&diags, "dead-pragma").is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- cycle-arith

#[test]
fn cycle_arith_flags_seeded_unchecked_add() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "pub fn next(cycle: u64, latency: u64) -> u64 { cycle + latency }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "cycle-arith");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].line, 1);
}

#[test]
fn cycle_arith_pragma_and_saturating_pass() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "pub fn next(cycle: u64, latency: u64) -> u64 { cycle.saturating_add(latency) }\n\
         pub fn trace(epoch: u64) -> u64 {\n\
         // sim-lint: allow(cycle-arith): fixture — epoch < 2^32 by config validation\n\
         epoch * 2\n\
         }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(lints_named(&diags, "cycle-arith").is_empty(), "{diags:?}");
    assert!(lints_named(&diags, "dead-pragma").is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- dead-pragma

#[test]
fn dead_pragma_flags_stale_suppression() {
    // The pragma names a real lint but the line below is clean.
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "// sim-lint: allow(no-panic-hot-path): stale — the unwrap was removed\n\
         pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "dead-pragma");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].line, 1);
    assert!(hits[0].message.contains("no-panic-hot-path"));
}

#[test]
fn dead_pragma_cannot_be_shielded_and_file_pragmas_are_gone() {
    // `dead-pragma` is an always-on meta lint: naming it in a pragma is an
    // unknown-lint error, and the suppression it meant to shield is still
    // reported dead.
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "// sim-lint: allow(no-panic-hot-path, dead-pragma): fixture — unwrap behind a feature flag\n\
         pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
         // sim-lint: allow-file(cycle-arith): fixture — whole-file waiver\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert_eq!(lints_named(&diags, "dead-pragma").len(), 1, "{diags:?}");
    let meta = lints_named(&diags, "pragma");
    assert_eq!(meta.len(), 2, "{diags:?}");
    assert!(meta[0].message.contains("unknown lint `dead-pragma`"));
    assert!(meta[1].message.contains("allow-file"));
}

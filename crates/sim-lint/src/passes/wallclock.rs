//! `forbid-wallclock-and-unsafe`: deterministic simulation crates must not
//! read wall-clock time, use ambient randomness, or contain `unsafe` code.
//!
//! Determinism is what `--verify-determinism` and the fault-injection
//! replay machinery depend on: the same seed and config must produce the
//! same cycle-exact run. `SystemTime` / `Instant::now` / OS entropy break
//! that silently. The `bench` crate is exempt from the wall-clock rule (its
//! whole point is measuring host time) but not from the `unsafe` rule, and
//! so is `sim-harness` (it times campaigns). The config digest that keys
//! campaign resume lives in pra-core's `RunSpec`, so the strict rule covers
//! it with the rest of that crate. The one exemption inside a strict crate
//! is `sim-prof`'s clock module, so the profiler's one `Instant` anchor
//! stays corralled where the disabled path can never reach it.
//!
//! The pass also verifies every crate root declares
//! `#![forbid(unsafe_code)]` so the compiler backs the lint.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::passes::Pass;
use crate::source::SourceFile;
use crate::Analysis;

const LINT: &str = "forbid-wallclock-and-unsafe";

/// Idents that read host time or ambient entropy.
const WALLCLOCK_IDENTS: &[&str] = &[
    "SystemTime",
    "Instant",
    "UNIX_EPOCH",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

/// Crates allowed to read the wall clock (host-time measurement harnesses:
/// `bench` measures host time, `sim-harness` times campaign wall-clock).
const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["bench", "sim-harness"];

/// Files allowed to read the wall clock inside an otherwise-strict crate.
/// `sim-prof` is a profiler, but
/// only its clock module may touch `Instant`: every other module works in
/// nanosecond integers handed to it, so a stray clock read elsewhere in the
/// crate still fails the lint.
const WALLCLOCK_EXEMPT_PATHS: &[&str] = &["crates/sim-prof/src/clock.rs"];

/// Pass implementation.
pub struct ForbidWallclockAndUnsafe;

impl Pass for ForbidWallclockAndUnsafe {
    fn name(&self) -> &'static str {
        LINT
    }

    fn run(&self, a: &Analysis, out: &mut Vec<Diagnostic>) {
        let ws = a.ws;
        for file in &ws.files {
            let wallclock_exempt = WALLCLOCK_EXEMPT_CRATES.contains(&file.crate_name.as_str())
                || WALLCLOCK_EXEMPT_PATHS.contains(&file.rel_path.as_str());
            for (_, tok) in file.code_tokens() {
                if tok.kind != TokKind::Ident {
                    continue;
                }
                if tok.text == "unsafe" {
                    out.push(Diagnostic::new(
                        LINT,
                        &file.rel_path,
                        tok.line,
                        "`unsafe` code in the simulation workspace — every crate is \
                         `#![forbid(unsafe_code)]`",
                    ));
                } else if !wallclock_exempt && WALLCLOCK_IDENTS.contains(&tok.text.as_str()) {
                    out.push(Diagnostic::new(
                        LINT,
                        &file.rel_path,
                        tok.line,
                        format!(
                            "`{}` in a deterministic sim crate — wall-clock time and \
                             ambient randomness break seeded reproducibility; thread \
                             cycle counts and seeded RNGs instead",
                            tok.text
                        ),
                    ));
                }
            }

            if is_crate_root(&file.rel_path) && !has_forbid_unsafe(file) {
                out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    1,
                    "crate root is missing `#![forbid(unsafe_code)]`",
                ));
            }
        }
    }
}

fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || rel_path == "src/main.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"))
}

/// Matches the token sequence `# ! [ forbid ( unsafe_code ) ]`.
fn has_forbid_unsafe(file: &SourceFile) -> bool {
    let t = &file.tokens;
    t.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

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

    fn run(ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        ForbidWallclockAndUnsafe.run(&Analysis::new(ws), &mut out);
        out
    }

    #[test]
    fn flags_wallclock_and_entropy() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "use std::time::Instant;\nfn f() { let t = SystemTime::now(); thread_rng(); }",
        )]);
        let d = run(&w);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn bench_is_exempt_from_wallclock_but_not_unsafe() {
        let w = ws(vec![(
            "bench",
            "crates/bench/src/timing.rs",
            "use std::time::Instant;\nfn f() { let t = Instant::now(); unsafe { g(); } }",
        )]);
        let d = run(&w);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unsafe"));
    }

    #[test]
    fn sim_harness_runner_is_exempt_but_the_run_spec_digest_is_strict() {
        let runner = ws(vec![(
            "sim-harness",
            "crates/sim-harness/src/runner.rs",
            "use std::time::Instant;\nfn f() { let t = Instant::now(); }",
        )]);
        assert!(run(&runner).is_empty(), "campaign timing is allowed");
        let run_spec = ws(vec![(
            "core",
            "crates/core/src/run_spec.rs",
            "use std::time::Instant;\nfn f() { let t = Instant::now(); }",
        )]);
        let d = run(&run_spec);
        assert_eq!(d.len(), 2, "the config digest's home is strict: {d:?}");
        assert!(d[0].message.contains("Instant"));
    }

    #[test]
    fn sim_prof_clock_module_is_exempt_but_the_rest_of_the_crate_is_not() {
        let clock = ws(vec![(
            "sim-prof",
            "crates/sim-prof/src/clock.rs",
            "use std::time::Instant;\nfn now() { let t = Instant::now(); }",
        )]);
        assert!(run(&clock).is_empty(), "the clock module owns Instant");
        // Seeded violation: the same clock read anywhere else in sim-prof
        // must still fail — only clock.rs carries the exemption.
        let profiler = ws(vec![(
            "sim-prof",
            "crates/sim-prof/src/profiler.rs",
            "use std::time::Instant;\nfn sneaky() { let t = Instant::now(); }",
        )]);
        let d = run(&profiler);
        assert_eq!(d.len(), 2, "profiler.rs stays strict: {d:?}");
        assert!(d.iter().all(|d| d.message.contains("Instant")));
    }

    #[test]
    fn forbid_unsafe_code_attr_does_not_self_trigger() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        )]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn missing_forbid_attr_on_crate_root_is_flagged() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/lib.rs",
            "pub fn f() {}\n",
        )]);
        let d = run(&w);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("forbid(unsafe_code)"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn non_root_files_do_not_need_the_attr() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/bank.rs",
            "pub fn f() {}\n",
        )]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn instant_in_test_code_is_fine() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n",
        )]);
        assert!(run(&w).is_empty());
    }
}

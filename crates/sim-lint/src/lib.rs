//! sim-lint: a static analyzer that enforces the PRA simulator's
//! correctness contracts that rustc and clippy cannot check. It has no
//! external dependencies: its one dependency is the workspace's `sim-obs`
//! (for the shared JSON string codec), which has none either.
//!
//! The analyzer is lexical: every pass walks the token stream of a
//! hand-rolled [`lexer`] (raw strings, char literals and nested block
//! comments are handled, so text never masquerades as code) with
//! `#[cfg(test)]` regions masked out. The passes:
//!
//! * `no-panic-hot-path` — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   runtime asserts in non-test code of any simulation crate (every crate
//!   but the host-side tools `bench`, `cli`, `sim-harness` and `sim-lint`).
//! * `checker-parity` — every `TimingParams` field is enforced by both the
//!   scheduler and the independent protocol checker.
//! * `metric-registry` — every emitted metric / trace-event name follows
//!   the naming convention and matches the `docs/metrics.md` manifest.
//! * `discarded-result` — no `let _ =` or `.ok();` drops of a call whose
//!   name is a `Result`-returning workspace `fn`.
//! * `cycle-arith` — no unchecked `+`/`*` on cycle/deadline/epoch-named
//!   values in the hot crates; event-jump arithmetic must saturate or
//!   check.
//!
//! The compiler covers the rest, configured in the root manifest's
//! `[workspace.lints]` and `clippy.toml`: `unsafe_code` is forbidden,
//! `unused_must_use` rejects bare-statement drops of any `Result`, and
//! clippy's `disallowed_types` keeps `Instant`/`SystemTime` out of every
//! module but three reasoned `#![expect]` exemptions.
//!
//! All passes are deny-by-default. Site-level exemptions use
//!
//! ```text
//! // sim-lint: allow(lint-name): reason this is sound
//! ```
//!
//! on (or directly above) the offending line; the reason is mandatory.
//! Two always-on meta lints, which cannot be suppressed, keep pragmas
//! honest: `pragma` reports ill-formed pragmas and unknown lint names, and
//! `dead-pragma` reports a pragma that no longer suppresses anything.

pub mod diag;
pub mod lexer;
pub mod passes;
pub mod sarif;
pub mod source;
pub mod workspace;

use std::path::Path;

pub use diag::{to_json, to_json_report, Diagnostic};
pub use workspace::{load_workspace, Manifest, Workspace};

/// Lints the workspace rooted at `root`. Returns the post-suppression
/// diagnostics, sorted by file, line, lint.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = workspace::load_workspace(root)?;
    Ok(lint_sources(&ws))
}

/// Runs every pass over an already-loaded workspace, applies pragma
/// suppression, and appends the `pragma` and `dead-pragma` meta
/// diagnostics.
pub fn lint_sources(ws: &Workspace) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for (_, pass) in passes::PASSES {
        pass(ws, &mut raw);
    }

    let mut out = Vec::new();
    for file in &ws.files {
        for err in &file.pragma_errors {
            out.push(Diagnostic::new(
                "pragma",
                &file.rel_path,
                err.line,
                err.message.clone(),
            ));
        }
        for pragma in &file.pragmas {
            for lint in &pragma.lints {
                let (meta, message) = if !passes::lint_names().any(|name| name == lint) {
                    let known = passes::lint_names().collect::<Vec<_>>().join(", ");
                    let message =
                        format!("pragma references unknown lint `{lint}` (known lints: {known})");
                    ("pragma", message)
                } else if !raw
                    .iter()
                    .any(|d| d.lint == *lint && d.file == file.rel_path && pragma.covers(d.line))
                {
                    let message = format!(
                        "pragma `allow({lint})` suppresses nothing — the violation it \
                         excused is gone; remove the pragma"
                    );
                    ("dead-pragma", message)
                } else {
                    continue;
                };
                out.push(Diagnostic::new(meta, &file.rel_path, pragma.line, message));
            }
        }
    }
    out.extend(raw.into_iter().filter(|d| {
        !ws.files
            .iter()
            .any(|f| f.rel_path == d.file && f.suppresses(&d.lint, d.line))
    }));

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.as_str()).cmp(&(b.file.as_str(), b.line, b.lint.as_str()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn ws_one(crate_name: &str, rel: &str, src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::parse(crate_name, rel, src, false)],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    #[test]
    fn pragma_suppresses_a_violation() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    // sim-lint: allow(no-panic-hot-path): index bounded by ctor\n    \
             a.unwrap();\n}\n",
        );
        assert!(lint_sources(&w).is_empty());
    }

    #[test]
    fn trailing_pragma_also_suppresses() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    a.unwrap(); // sim-lint: allow(no-panic-hot-path): bounded\n}\n",
        );
        assert!(lint_sources(&w).is_empty());
    }

    #[test]
    fn pragma_without_reason_surfaces_meta_diagnostic() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    // sim-lint: allow(no-panic-hot-path)\n    a.unwrap();\n}\n",
        );
        let d = lint_sources(&w);
        // The unwrap is NOT suppressed and the pragma itself is diagnosed.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.lint == "no-panic-hot-path"));
        assert!(d
            .iter()
            .any(|d| d.lint == "pragma" && d.message.contains("no reason")));
    }

    #[test]
    fn unknown_lint_name_in_pragma_is_diagnosed() {
        // Retired lints are unknown too: a pragma naming one, carried over
        // on an old branch, fails instead of silently suppressing nothing.
        for lint in [
            "no-such-lint",
            "panic-reachability",
            "forbid-wallclock-and-unsafe",
            "dead-pragma",
        ] {
            let w = ws_one(
                "dram-sim",
                "crates/dram-sim/src/x.rs",
                &format!("// sim-lint: allow({lint}): whatever\nfn f() {{}}\n"),
            );
            let d = lint_sources(&w);
            assert_eq!(d.len(), 1, "{lint}: {d:?}");
            assert_eq!(d[0].lint, "pragma");
            assert!(d[0].message.contains(lint), "{}", d[0].message);
        }
    }

    #[test]
    fn a_pragma_covers_its_own_line_and_the_next_only() {
        // The unwrap sits two lines below the pragma: it is reported, and
        // the pragma, which covers nothing, is dead.
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "// sim-lint: allow(no-panic-hot-path): too far away\n\nfn f() { a.unwrap(); }\n",
        );
        let d = lint_sources(&w);
        let lints: Vec<&str> = d.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, ["dead-pragma", "no-panic-hot-path"], "{d:?}");
    }

    #[test]
    fn pragma_for_wrong_lint_does_not_suppress() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    // sim-lint: allow(metric-registry): wrong lint\n    a.unwrap();\n}\n",
        );
        let d = lint_sources(&w);
        // The unwrap is not suppressed, and the mistargeted pragma is
        // additionally reported as dead.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.lint == "no-panic-hot-path"));
        assert!(d.iter().any(|d| d.lint == "dead-pragma"));
    }

    #[test]
    fn diagnostics_are_sorted() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }\n",
        );
        let d = lint_sources(&w);
        assert_eq!(d.len(), 2);
        assert!(d[0].line < d[1].line);
    }
}

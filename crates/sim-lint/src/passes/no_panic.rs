//! `no-panic-hot-path`: forbid panicking constructs in non-test code of
//! every simulation crate.
//!
//! Flagged: `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and the `assert!` / `assert_eq!` / `assert_ne!` macros
//! (indexing-style runtime asserts). `debug_assert*` is allowed — it
//! compiles out of release builds, so it cannot take a production run down.
//! The fix is a typed `SimError` / `Result` path; a pragma with a reason is
//! acceptable only for provably-infallible sites.
//!
//! The pass checks every crate except the host-side [`TOOL_CRATES`], so
//! each crate the DRAM hot loop links is checked at every site, and a new
//! crate is checked by default. No trait implemented in a tool crate can
//! be dispatched from the hot loop, so no hot-loop panic escapes the check.

use crate::diag::Diagnostic;
use crate::lexer::{TokKind, Token};
use crate::workspace::Workspace;

/// Host-side tools outside the simulation: the benchmark binaries, the
/// `pra` front end, the campaign harness (whose job is to *contain* panics
/// behind `catch_unwind`; its panic fixture raises one on purpose) and this
/// linter.
pub const TOOL_CRATES: &[&str] = &["bench", "cli", "sim-harness", "sim-lint"];

/// Lint name used in diagnostics and `allow(...)` pragmas.
pub const LINT: &str = "no-panic-hot-path";

/// If the token at `i` is a panicking construct, returns its display form
/// (`.unwrap(...)`, `panic!(...)`, …).
fn panic_construct(tokens: &[Token], i: usize) -> Option<String> {
    let tok = &tokens[i];
    if tok.kind != TokKind::Ident {
        return None;
    }
    let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
    let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
    let next_paren = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
    let flagged = match tok.text.as_str() {
        "unwrap" | "expect" => prev_dot && next_paren,
        // `panic!(...)` — but not `std::panic::catch_unwind`.
        "panic" | "unreachable" | "todo" | "unimplemented" => next_bang,
        "assert" | "assert_eq" | "assert_ne" => next_bang,
        _ => false,
    };
    if !flagged {
        return None;
    }
    Some(match tok.text.as_str() {
        "unwrap" | "expect" => format!(".{}(...)", tok.text),
        t => format!("{t}!(...)"),
    })
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if TOOL_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (i, tok) in file.code_tokens() {
            if let Some(display) = panic_construct(&file.tokens, i) {
                out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    tok.line,
                    format!(
                        "`{display}` in simulation code — return a typed \
                         `SimError`/`Result` instead, or pragma-annotate a \
                         provably-infallible site with a reason"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn ws_one(crate_name: &str, rel: &str, src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::parse(crate_name, rel, src, false)],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    fn run(ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        super::run(ws, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_panic_unreachable_assert() {
        let ws = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    a.unwrap();\n    b.expect(\"m\");\n    panic!(\"x\");\n    \
             unreachable!();\n    assert!(x > 0);\n    assert_eq!(a, b);\n}\n",
        );
        let d = run(&ws);
        assert_eq!(d.len(), 6);
        assert_eq!(d[0].line, 2);
        assert!(d.iter().all(|d| d.lint == "no-panic-hot-path"));
    }

    #[test]
    fn ignores_tool_crates_and_test_code() {
        for tool in TOOL_CRATES {
            let ws = ws_one(
                tool,
                &format!("crates/{tool}/src/x.rs"),
                "fn f() { a.unwrap(); }",
            );
            assert!(run(&ws).is_empty(), "{tool}");
        }
        let ws = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { a.unwrap(); }\n}\n",
        );
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn every_other_crate_is_checked() {
        // The crates the hot loop links, the recovery engine on the
        // command-issue path, the facade, and a crate added later: all
        // checked without being listed anywhere.
        for krate in [
            "sim-obs",
            "dram-power",
            "workloads",
            "sim-recover",
            "pra-repro",
            "new-crate",
        ] {
            let ws = ws_one(
                krate,
                &format!("crates/{krate}/src/x.rs"),
                "fn f() { let until = map.get(&key).unwrap(); assert!(until > 0); }",
            );
            let d = run(&ws);
            assert_eq!(d.len(), 2, "{krate}: {d:?}");
            assert!(d.iter().all(|d| d.lint == "no-panic-hot-path"));
        }
    }

    #[test]
    fn ignores_unwrap_or_else_and_expect_err() {
        let ws = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() { a.unwrap_or_else(|| 0); b.unwrap_or(1); c.expect_err(\"m\"); }",
        );
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn ignores_debug_assert_and_catch_unwind() {
        let ws = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() { debug_assert!(x); debug_assert_eq!(a, b); std::panic::catch_unwind(g); }",
        );
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn ignores_panic_in_strings_and_comments() {
        let ws = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "// panic!(\"no\") and .unwrap()\nfn f() { let s = \"panic!\"; let r = r#\"a.unwrap()\"#; }",
        );
        assert!(run(&ws).is_empty());
    }
}

//! `no-panic-hot-path`: forbid panicking constructs in non-test code of the
//! simulator hot-path crates.
//!
//! Flagged: `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and the `assert!` / `assert_eq!` / `assert_ne!` macros
//! (indexing-style runtime asserts). `debug_assert*` is allowed — it
//! compiles out of release builds, so it cannot take a production run down.
//! The fix is a typed `SimError` / `Result` path; a pragma with a reason is
//! acceptable only for provably-infallible sites.

use crate::diag::Diagnostic;
use crate::lexer::Token;
use crate::passes::Pass;
use crate::Analysis;

/// Crates whose non-test code must not panic. `sim-harness` is
/// deliberately absent: the campaign runner's job is to *contain* panics
/// behind `catch_unwind` (and its panic fixture raises one on purpose).
pub const HOT_CRATES: &[&str] = &[
    "dram-sim",
    "cache-sim",
    "cpu-sim",
    "mem-model",
    "core",
    "sim-recover",
];

const LINT: &str = "no-panic-hot-path";

/// If the token at `i` is a panicking construct, returns its display form
/// (`.unwrap(...)`, `panic!(...)`, …). Shared with the interprocedural
/// `panic-reachability` pass so both agree on what "panicking" means.
pub fn panic_construct(tokens: &[Token], i: usize) -> Option<String> {
    let tok = tokens.get(i)?;
    if !matches!(tok.kind, crate::lexer::TokKind::Ident) {
        return None;
    }
    let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
    let next_bang = tokens.get(i + 1).map(|t| t.is_punct('!')).unwrap_or(false);
    let next_paren = tokens.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false);
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

/// Pass implementation.
pub struct NoPanicHotPath;

impl Pass for NoPanicHotPath {
    fn name(&self) -> &'static str {
        LINT
    }

    fn run(&self, a: &Analysis, out: &mut Vec<Diagnostic>) {
        for file in &a.ws.files {
            if !HOT_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            for (i, tok) in file.code_tokens() {
                if let Some(display) = panic_construct(&file.tokens, i) {
                    out.push(Diagnostic::new(
                        LINT,
                        &file.rel_path,
                        tok.line,
                        format!(
                            "`{display}` in simulator hot path — return a typed \
                             `SimError`/`Result` instead, or pragma-annotate a \
                             provably-infallible site with a reason"
                        ),
                    ));
                }
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
        NoPanicHotPath.run(&Analysis::new(ws), &mut out);
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
    fn ignores_non_hot_crates_and_test_code() {
        let ws = ws_one(
            "sim-obs",
            "crates/sim-obs/src/x.rs",
            "fn f() { a.unwrap(); }",
        );
        assert!(run(&ws).is_empty());
        let ws = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { a.unwrap(); }\n}\n",
        );
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn recovery_engine_is_a_hot_crate() {
        // The recovery engine sits on the command-issue path: a panic there
        // takes down the whole channel mid-replay.
        let ws = ws_one(
            "sim-recover",
            "crates/sim-recover/src/x.rs",
            "fn f() { let until = map.get(&key).unwrap(); assert!(until > 0); }",
        );
        let d = run(&ws);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.lint == "no-panic-hot-path"));
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

//! `checker-parity`: every `TimingParams` field must be enforced on *both*
//! sides of the runtime defence — the scheduler (`channel.rs` / `bank.rs` /
//! `rank.rs` fences) and the independent protocol verifier (`checker.rs`).
//!
//! One-sided enforcement is exactly the bug class the checker exists to
//! catch: a constraint the scheduler honours but the checker never verifies
//! is invisible to `--verify-protocol`, and a checker-only rule guards
//! nothing the scheduler produces. Fields that are legitimately one-sided
//! (e.g. CKE-pin timings the command bus never sees) carry a pragma with
//! the reason on their declaration line in `timing.rs`.

use std::collections::HashSet;

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Lint name used in diagnostics and `allow(...)` pragmas.
pub const LINT: &str = "checker-parity";

/// Files that implement scheduler-side timing fences.
const SCHEDULER_FILES: &[&str] = &["src/channel.rs", "src/bank.rs", "src/rank.rs"];
/// File that implements the independent verifier.
const CHECKER_FILE: &str = "src/checker.rs";

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some((timing_file, fields)) = find_timing_fields(ws) else {
        return; // no TimingParams definition in this workspace
    };

    let mut sched_idents: HashSet<&str> = HashSet::new();
    let mut chk_idents: HashSet<&str> = HashSet::new();
    for file in &ws.files {
        if file.crate_name != "dram-sim" {
            continue;
        }
        if SCHEDULER_FILES.iter().any(|s| file.rel_path.ends_with(s)) {
            collect_idents(file, &mut sched_idents);
        } else if file.rel_path.ends_with(CHECKER_FILE) {
            collect_idents(file, &mut chk_idents);
        }
    }

    for (name, line) in fields {
        let in_sched = sched_idents.contains(name.as_str());
        let in_chk = chk_idents.contains(name.as_str());
        if in_sched && in_chk {
            continue;
        }
        let message = match (in_sched, in_chk) {
            (true, false) => format!(
                "TimingParams field `{name}` is enforced by the scheduler but never \
                     verified by the protocol checker (checker.rs) — add a checker rule \
                     or pragma-annotate the field with the reason it is checker-exempt"
            ),
            (false, true) => format!(
                "TimingParams field `{name}` is verified by the protocol checker but \
                     never enforced by the scheduler (channel.rs/bank.rs/rank.rs) — the \
                     checker would reject every schedule that exercises it"
            ),
            _ => format!(
                "TimingParams field `{name}` is referenced by neither the scheduler \
                     nor the protocol checker — dead timing parameter"
            ),
        };
        out.push(Diagnostic::new(LINT, &timing_file, line, message));
    }
}

/// Finds the `struct TimingParams` definition and returns its file path and
/// `(field_name, line)` list.
fn find_timing_fields(ws: &Workspace) -> Option<(String, Vec<(String, u32)>)> {
    for file in &ws.files {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("struct")
                && toks.get(i + 1).map(|t| t.is_ident("TimingParams")) == Some(true))
            {
                continue;
            }
            // Scan to the opening brace, then collect `name :` pairs at
            // brace depth 1 (skipping `::` path segments).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut fields = Vec::new();
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident if depth == 1 => {
                        let prev_colon = j > 0 && toks[j - 1].is_punct(':');
                        let next_colon = toks.get(j + 1).map(|t| t.is_punct(':')) == Some(true);
                        let double_colon = toks.get(j + 2).map(|t| t.is_punct(':')) == Some(true);
                        if next_colon && !double_colon && !prev_colon {
                            fields.push((toks[j].text.clone(), toks[j].line));
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            return Some((file.rel_path.clone(), fields));
        }
    }
    None
}

fn collect_idents<'a>(file: &'a SourceFile, out: &mut HashSet<&'a str>) {
    for (_, tok) in file.code_tokens() {
        if tok.kind == TokKind::Ident {
            out.insert(tok.text.as_str());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

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
        super::run(ws, &mut out);
        out
    }

    #[test]
    fn flags_scheduler_only_field() {
        let w = ws(vec![
            (
                "dram-sim",
                "crates/dram-sim/src/timing.rs",
                "pub struct TimingParams {\n    pub trcd: u64,\n    pub twtr: u64,\n}\n",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/channel.rs",
                "fn f(t: &TimingParams) { use_fence(t.trcd); use_fence(t.twtr); }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/checker.rs",
                "fn check(t: &TimingParams) { verify(t.trcd); }",
            ),
        ]);
        let d = run(&w);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`twtr`"));
        assert!(d[0]
            .message
            .contains("never verified by the protocol checker"));
        assert_eq!(d[0].file, "crates/dram-sim/src/timing.rs");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn flags_checker_only_and_dead_fields() {
        let w = ws(vec![
            (
                "dram-sim",
                "crates/dram-sim/src/timing.rs",
                "pub struct TimingParams { pub a: u64, pub b: u64, pub c: u64 }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/bank.rs",
                "fn f(t: &T) { g(t.a); }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/checker.rs",
                "fn f(t: &T) { g(t.a); g(t.b); }",
            ),
        ]);
        let d = run(&w);
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|d| d.message.contains("`b`")
                && d.message.contains("never enforced by the scheduler")));
        assert!(d
            .iter()
            .any(|d| d.message.contains("`c`") && d.message.contains("neither")));
    }

    #[test]
    fn clean_when_both_sides_enforce() {
        let w = ws(vec![
            (
                "dram-sim",
                "crates/dram-sim/src/timing.rs",
                "pub struct TimingParams { pub trp: u64 }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/rank.rs",
                "fn f(t: &T) { g(t.trp); }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/checker.rs",
                "fn f(t: &T) { g(t.trp); }",
            ),
        ]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn no_timing_struct_is_a_no_op() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/lib.rs",
            "fn f() {}",
        )]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn field_extraction_skips_paths_and_nested_braces() {
        let w = ws(vec![
            (
                "dram-sim",
                "crates/dram-sim/src/timing.rs",
                "pub struct TimingParams {\n    pub trcd: std::num::NonZeroU64,\n}\n\
                 impl TimingParams { fn m(&self) { let local: u64 = 0; } }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/channel.rs",
                "fn f(t: &T) { g(t.trcd); }",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/checker.rs",
                "fn f(t: &T) { g(t.trcd); }",
            ),
        ]);
        assert!(run(&w).is_empty());
    }
}

//! `discarded-result`: a `Result` returned by a workspace function must not
//! be dropped with `let _ = …;` or `….ok();` in non-test code.
//!
//! Callees are matched by name. One token scan collects the name of every
//! non-test workspace `fn` whose declared return type mentions `Result`;
//! the pass then flags two discard shapes at every non-test call of such a
//! name:
//!
//! * `let _ = api(...);` — wildcard binding (a `?` after the call still
//!   propagates the error, so that form passes);
//! * `api(...).ok();` — converting to `Option` and dropping it as a bare
//!   statement.
//!
//! Matching by name over-approximates: a call that shares its name with a
//! `Result`-returning workspace `fn` is checked whatever it resolves to.
//! Macros never match, so `let _ = writeln!(...)` into a `String` passes.
//! The third shape, a bare-statement drop `api(...);`, is rustc's
//! `unused_must_use`, denied for every `Result` in `[workspace.lints]`.

use std::collections::HashSet;

use crate::diag::Diagnostic;
use crate::lexer::{TokKind, Token};
use crate::workspace::Workspace;

/// Lint name used in diagnostics and `allow(...)` pragmas.
pub const LINT: &str = "discarded-result";

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let fallible = result_fn_names(ws);
    for file in &ws.files {
        let toks = &file.tokens;
        for (i, tok) in file.code_tokens() {
            if !(fallible.contains(tok.text.as_str()) && is_call(toks, i)) {
                continue;
            }
            let close = match_paren(toks, i + 1);
            let start = expr_start(toks, i);
            let let_wildcard = start >= 3
                && toks[start - 1].is_punct('=')
                && toks[start - 2].is_ident("_")
                && toks[start - 3].is_ident("let");
            let stmt_start =
                start == 0 || matches!(toks[start - 1].kind, TokKind::Punct(';' | '{' | '}'));
            let shape = if let_wildcard {
                // `let _ = f()?;` propagates the error — that consumes it.
                if toks.get(close + 1).is_some_and(|t| t.is_punct('?')) {
                    continue;
                }
                "bound to `let _ =`"
            } else if stmt_start && is_dropped_ok_chain(toks, close) {
                "converted with `.ok()` and dropped"
            } else {
                continue;
            };
            out.push(Diagnostic::new(
                LINT,
                &file.rel_path,
                tok.line,
                format!(
                    "`Result` returned by `{}` is {shape} — handle the error, \
                     propagate it with `?`, or pragma-annotate with the reason \
                     the failure is ignorable",
                    tok.text,
                ),
            ));
        }
    }
}

/// Names of the non-test workspace `fn`s whose return type mentions
/// `Result` (the tokens between `->` and the body, `;` or `where`).
fn result_fn_names(ws: &Workspace) -> HashSet<&str> {
    let mut names = HashSet::new();
    for file in &ws.files {
        let toks = &file.tokens;
        for (i, tok) in file.code_tokens() {
            let Some(name) = toks
                .get(i + 1)
                .filter(|n| tok.is_ident("fn") && n.kind == TokKind::Ident)
            else {
                continue;
            };
            // Skip generics to the parameter list, then the parameters.
            let mut k = i + 2;
            let mut angle = 0i32;
            while k < toks.len() && !(angle == 0 && toks[k].is_punct('(')) {
                match toks[k].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    _ => {}
                }
                k += 1;
            }
            k = match_paren(toks, k) + 1;
            if !(toks.get(k).is_some_and(|t| t.is_punct('-'))
                && toks.get(k + 1).is_some_and(|t| t.is_punct('>')))
            {
                continue;
            }
            let mut angle = 0i32;
            for t in &toks[k + 2..] {
                match t.kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct('{' | ';') if angle <= 0 => break,
                    TokKind::Ident if t.text == "where" && angle <= 0 => break,
                    TokKind::Ident if t.text == "Result" => {
                        names.insert(name.text.as_str());
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    names
}

/// `name (` in call position: not a declaration `fn name(` or a macro.
fn is_call(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct('(')) && !(i > 0 && toks[i - 1].is_ident("fn"))
}

/// `).ok();` directly after the call's closing parenthesis.
fn is_dropped_ok_chain(toks: &[Token], close: usize) -> bool {
    toks.get(close + 1).map(|t| t.is_punct('.')) == Some(true)
        && toks.get(close + 2).map(|t| t.is_ident("ok")) == Some(true)
        && toks.get(close + 3).map(|t| t.is_punct('(')) == Some(true)
        && toks.get(close + 4).map(|t| t.is_punct(')')) == Some(true)
        && toks.get(close + 5).map(|t| t.is_punct(';')) == Some(true)
}

/// Forward scan from an opening `(` to its matching `)`.
fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Backward scan from a closing delimiter to its matching opener.
fn match_backward(toks: &[Token], close: usize, open_ch: char, close_ch: char) -> usize {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        if toks[j].is_punct(close_ch) {
            depth += 1;
        } else if toks[j].is_punct(open_ch) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        let Some(p) = j.checked_sub(1) else { return j };
        j = p;
    }
}

/// Walks back from the callee-name token over the receiver chain
/// (`self.banks[i].issue` → index of `self`) to the expression's first
/// token.
fn expr_start(toks: &[Token], name_i: usize) -> usize {
    let mut j = name_i;
    loop {
        let Some(p) = j.checked_sub(1) else { return j };
        if toks[p].is_punct('.') {
            let Some(q) = p.checked_sub(1) else { return p };
            match toks[q].kind {
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    let (o, c) = if toks[q].is_punct(')') {
                        ('(', ')')
                    } else {
                        ('[', ']')
                    };
                    let open = match_backward(toks, q, o, c);
                    j = open;
                    // A call or index has its callee/base just before the
                    // opener: `helper().m()` starts at `helper`.
                    if let Some(r) = open.checked_sub(1) {
                        if toks[r].kind == TokKind::Ident {
                            j = r;
                        }
                    }
                }
                TokKind::Ident => j = q,
                _ => return j,
            }
        } else if toks[p].is_punct(':') && p >= 1 && toks[p - 1].is_punct(':') {
            let Some(q) = (p - 1).checked_sub(1) else {
                return j;
            };
            if toks[q].kind == TokKind::Ident {
                j = q;
            } else {
                return j;
            }
        } else {
            return j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    const API: &str = "pub struct Bus;\n\
                       impl Bus {\n    \
                       pub fn issue(&mut self) -> Result<(), u8> { Ok(()) }\n}\n";

    fn ws_one(body: &str) -> Workspace {
        let src =
            format!("{API}fn drive(bus: &mut Bus) -> Result<(), u8> {{\n{body}\n    Ok(())\n}}\n");
        Workspace {
            files: vec![SourceFile::parse(
                "dram-sim",
                "crates/dram-sim/src/bus.rs",
                &src,
                false,
            )],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    fn run(w: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        super::run(w, &mut out);
        out
    }

    #[test]
    fn let_wildcard_discard_is_flagged() {
        let d = run(&ws_one("    let _ = bus.issue();"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("let _ ="));
        assert!(d[0].message.contains("`issue`"));
    }

    #[test]
    fn bare_statement_drop_is_left_to_rustc() {
        // `unused_must_use` (denied in `[workspace.lints]`) rejects it.
        assert!(run(&ws_one("    bus.issue();")).is_empty());
    }

    #[test]
    fn callee_is_matched_by_name_across_files_and_generics() {
        let w = Workspace {
            files: vec![
                SourceFile::parse(
                    "sim-obs",
                    "crates/sim-obs/src/a.rs",
                    "pub fn load<P: AsRef<Path>>(p: P) -> io::Result<Vec<u8>> { todo() }\n",
                    false,
                ),
                SourceFile::parse(
                    "cli",
                    "crates/cli/src/b.rs",
                    "fn go() { let _ = sim_obs::load(\"x\"); let _ = other.load(1); }\n",
                    false,
                ),
            ],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        };
        assert_eq!(run(&w).len(), 2);
    }

    #[test]
    fn dropped_ok_chain_is_flagged() {
        let d = run(&ws_one("    bus.issue().ok();"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains(".ok()"));
    }

    #[test]
    fn question_mark_and_bindings_consume() {
        assert!(run(&ws_one("    bus.issue()?;")).is_empty());
        assert!(run(&ws_one("    let r = bus.issue();\n    r?;")).is_empty());
        assert!(run(&ws_one("    let _ = bus.issue()?;")).is_empty());
        assert!(run(&ws_one("    return bus.issue();")).is_empty());
        assert!(run(&ws_one("    if bus.issue().is_err() { }")).is_empty());
    }

    #[test]
    fn non_result_calls_and_test_code_are_ignored() {
        let w = Workspace {
            files: vec![SourceFile::parse(
                "dram-sim",
                "crates/dram-sim/src/bus.rs",
                "pub struct Bus;\n\
                 impl Bus { pub fn nudge(&mut self) {} }\n\
                 fn drive(bus: &mut Bus) { bus.nudge(); }\n\
                 #[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() {\n        \
                 let mut b = Bus;\n        let _ = b.nudge();\n    }\n}\n",
                false,
            )],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        };
        assert!(run(&w).is_empty());
    }
}

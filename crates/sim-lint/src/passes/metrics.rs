//! `metric-registry`: every metric name a crate emits must follow the
//! `component.noun[.qualifier]` naming convention and appear in the
//! `docs/metrics.md` manifest with the right kind — and every manifest
//! entry must be emitted by some code (unless marked `(dynamic)`, for
//! names built at runtime with `format!`).
//!
//! Emitter sites are calls whose callee ident is `counter`, `gauge`,
//! `histogram` or `set` with a string-literal first argument (the sim-obs
//! registration/publish API). Trace-event kind tags are the uppercase
//! string literals returned by `TraceEvent::kind()` in
//! `crates/sim-obs/src/event.rs`.

use std::collections::HashSet;

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::workspace::{Manifest, MetricKind, Workspace};

/// Lint name used in diagnostics and `allow(...)` pragmas.
pub const LINT: &str = "metric-registry";

/// File whose uppercase string literals define the trace-event kind tags.
const EVENT_FILE: &str = "crates/sim-obs/src/event.rs";

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let empty = Manifest::default();
    let manifest = ws.manifest.as_ref().unwrap_or(&empty);

    for (line, msg) in &manifest.errors {
        out.push(Diagnostic::new(LINT, &ws.manifest_path, *line, msg.clone()));
    }

    let mut emitted: HashSet<String> = HashSet::new();
    let mut traced: HashSet<String> = HashSet::new();

    for file in &ws.files {
        // Metric emitter sites.
        for (i, tok) in file.code_tokens() {
            let kind = match tok.text.as_str() {
                "counter" | "set" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                _ => continue,
            };
            if tok.kind != TokKind::Ident {
                continue;
            }
            let open = file.tokens.get(i + 1).map(|t| t.is_punct('(')) == Some(true);
            let arg = file.tokens.get(i + 2);
            let Some(arg) = arg.filter(|t| open && t.kind == TokKind::Str) else {
                continue;
            };
            let name = arg.text.clone();
            if !is_valid_metric_name(&name) {
                out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    arg.line,
                    format!(
                        "metric name \"{name}\" violates the `component.noun[.qualifier]` \
                             convention (lowercase dotted segments of [a-z0-9_])"
                    ),
                ));
                continue;
            }
            emitted.insert(name.clone());
            match manifest.get(&name) {
                None => out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    arg.line,
                    format!(
                        "metric \"{name}\" is not declared in docs/metrics.md — add a \
                             manifest row describing it"
                    ),
                )),
                Some(entry) if entry.kind != kind => out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    arg.line,
                    format!(
                        "metric \"{name}\" is emitted as a {} but docs/metrics.md \
                             declares it a {}",
                        kind.as_str(),
                        entry.kind.as_str()
                    ),
                )),
                Some(_) => {}
            }
        }

        // Trace-event kind tags.
        if file.rel_path == EVENT_FILE {
            for (_, tok) in file.code_tokens() {
                if tok.kind != TokKind::Str || !is_trace_kind(&tok.text) {
                    continue;
                }
                let name = tok.text.clone();
                traced.insert(name.clone());
                match manifest.get(&name) {
                    Some(e) if e.kind == MetricKind::TraceEvent => {}
                    Some(_) => out.push(Diagnostic::new(
                        LINT,
                        &file.rel_path,
                        tok.line,
                        format!(
                            "trace-event kind \"{name}\" is declared in docs/metrics.md \
                                 with a non-trace-event kind"
                        ),
                    )),
                    None => out.push(Diagnostic::new(
                        LINT,
                        &file.rel_path,
                        tok.line,
                        format!(
                            "trace-event kind \"{name}\" is not declared in \
                                 docs/metrics.md — add a trace-event manifest row"
                        ),
                    )),
                }
            }
        }
    }

    // Manifest entries no code emits (dynamic entries exempt).
    if ws.manifest.is_some() {
        for entry in &manifest.entries {
            if entry.dynamic {
                continue;
            }
            let seen = match entry.kind {
                MetricKind::TraceEvent => traced.contains(&entry.name),
                _ => emitted.contains(&entry.name),
            };
            if !seen {
                out.push(Diagnostic::new(
                    LINT,
                    &ws.manifest_path,
                    entry.line,
                    format!(
                        "manifest entry `{}` is emitted by no code — remove the row or \
                             mark it `(dynamic)` if the name is built at runtime",
                        entry.name
                    ),
                ));
            }
        }
    }
}

/// `component.noun[.qualifier]`: ≥2 lowercase dotted segments of
/// `[a-z0-9_]`, first segment starting with a letter.
fn is_valid_metric_name(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    if segs.len() < 2 {
        return false;
    }
    for (i, seg) in segs.iter().enumerate() {
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        if i == 0 && !seg.as_bytes()[0].is_ascii_lowercase() {
            return false;
        }
    }
    true
}

/// Trace-event kind tag: `[A-Z][A-Z0-9_]+`.
fn is_trace_kind(s: &str) -> bool {
    s.len() >= 2
        && s.as_bytes()[0].is_ascii_uppercase()
        && s.bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn ws(files: Vec<(&str, &str, &str)>, manifest: Option<&str>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(c, p, s)| SourceFile::parse(c, p, s, false))
                .collect(),
            manifest: manifest.map(Manifest::parse),
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    fn run(ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        super::run(ws, &mut out);
        out
    }

    #[test]
    fn undeclared_metric_is_flagged() {
        let w = ws(
            vec![(
                "dram-sim",
                "crates/dram-sim/src/obs.rs",
                "fn r(reg: &mut R) { reg.counter(\"dram.mystery\"); }",
            )],
            Some("| `dram.cycles` | counter | ticks |\n"),
        );
        let d = run(&w);
        assert!(d
            .iter()
            .any(|d| d.message.contains("\"dram.mystery\"") && d.message.contains("not declared")));
    }

    #[test]
    fn kind_mismatch_is_flagged() {
        let w = ws(
            vec![(
                "dram-sim",
                "crates/dram-sim/src/obs.rs",
                "fn r(reg: &mut R) { reg.histogram(\"dram.cycles\"); }",
            )],
            Some("| `dram.cycles` | counter | ticks |\n"),
        );
        let d = run(&w);
        assert!(d
            .iter()
            .any(|d| d.message.contains("emitted as a histogram")));
    }

    #[test]
    fn bad_naming_convention_is_flagged() {
        let w = ws(
            vec![(
                "dram-sim",
                "crates/dram-sim/src/obs.rs",
                "fn r(reg: &mut R) { reg.counter(\"DramCycles\"); reg.gauge(\"plain\"); }",
            )],
            Some(""),
        );
        let d = run(&w);
        assert_eq!(
            d.iter()
                .filter(|d| d.message.contains("convention"))
                .count(),
            2
        );
    }

    #[test]
    fn unused_manifest_entry_is_flagged_but_dynamic_is_exempt() {
        let w = ws(
            vec![(
                "dram-sim",
                "crates/dram-sim/src/obs.rs",
                "fn r(reg: &mut R) { reg.counter(\"dram.cycles\"); }",
            )],
            Some(
                "| `dram.cycles` | counter | ticks |\n\
                 | `dram.ghost` | counter | never emitted |\n\
                 | `fault.injected` | counter (dynamic) | format!-built |\n",
            ),
        );
        let d = run(&w);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`dram.ghost`"));
        assert_eq!(d[0].file, "docs/metrics.md");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn trace_kinds_must_be_declared() {
        let w = ws(
            vec![(
                "sim-obs",
                "crates/sim-obs/src/event.rs",
                "fn kind(&self) -> &str { match self { A => \"ACT\", B => \"RD\" } }",
            )],
            Some("| `ACT` | trace-event | activate |\n"),
        );
        let d = run(&w);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("\"RD\""));
    }

    #[test]
    fn clean_tree_is_clean() {
        let w = ws(
            vec![
                (
                    "dram-sim",
                    "crates/dram-sim/src/obs.rs",
                    "fn r(reg: &mut R) { reg.counter(\"dram.cycles\"); reg.histogram(\"dram.read_latency\"); }",
                ),
                (
                    "sim-obs",
                    "crates/sim-obs/src/event.rs",
                    "fn kind(&self) -> &str { \"ACT\" }",
                ),
            ],
            Some(
                "| `dram.cycles` | counter | ticks |\n\
                 | `dram.read_latency` | histogram | latency |\n\
                 | `ACT` | trace-event | activate |\n",
            ),
        );
        assert!(run(&w).is_empty());
    }

    #[test]
    fn name_validation() {
        assert!(is_valid_metric_name("dram.read.hits"));
        assert!(is_valid_metric_name("cpu.stall_cycles.rob"));
        assert!(!is_valid_metric_name("plain"));
        assert!(!is_valid_metric_name("Dram.cycles"));
        assert!(!is_valid_metric_name("dram..cycles"));
        assert!(!is_valid_metric_name("dram.Cycles"));
        assert!(is_trace_kind("PARTIAL_ACT"));
        assert!(!is_trace_kind("A"));
        assert!(!is_trace_kind("Act"));
    }
}

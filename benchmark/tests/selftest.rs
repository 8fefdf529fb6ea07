//! Self-tests of the benchmark: its metric catalogue, its agreement with
//! `BENCHMARK.json`, and the exactness of the traced ledger's counts.

use pra_benchmark::ledger::{ledger, Ledger};
use pra_benchmark::metrics::{Source, END_TO_END, PER_LAYER};
use pra_benchmark::workload::{Length, WORKLOADS};

/// Short enough for a debug build with the protocol checker on.
const SMALL: Length = Length {
    instructions: 2_000,
    warmup: Some(2_000),
};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
    for m in &all {
        assert!(is_name(m.name), "bad metric name {:?}", m.name);
        assert!(is_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        assert!(matches!(m.better.as_str(), "lower" | "higher"));
    }
    let mut names: Vec<_> = all.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "a metric name is used twice");
    assert!(
        END_TO_END.len() <= 16,
        "{} end-to-end metrics",
        END_TO_END.len()
    );
    assert!(
        PER_LAYER.len() <= 128,
        "{} per-layer metrics",
        PER_LAYER.len()
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better.as_str() == "lower"));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        assert!(is_name(w.name) && w.why.len() <= 200);
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "BENCHMARK.json lists names the benchmark does not measure"
    );
}

fn value(l: &Ledger, name: &str) -> f64 {
    l.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("ledger lacks {name}"))
        .1
}

#[test]
fn traced_ledger_counts_repeat_and_replays_match_the_run() {
    for w in WORKLOADS {
        let first = ledger(w, 7, SMALL, 1).expect("ledger runs");
        let second = ledger(w, 7, SMALL, 1).expect("ledger runs");
        for l in [&first, &second] {
            assert_eq!(l.gate.failed, 0, "{}: {:?}", w.name, l.gate.errors);
            let names: Vec<_> = l.metrics.iter().map(|(n, _)| *n).collect();
            let expected: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}: ledger and catalogue disagree", w.name);
            assert_eq!(value(l, "sim-obs.dropped_events"), 0.0, "{}", w.name);
        }
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
            assert_eq!(
                value(&first, m.name).to_bits(),
                value(&second, m.name).to_bits(),
                "{}: {} differs between two traced runs",
                w.name,
                m.name
            );
        }
        assert_eq!(
            value(&first, "dram-sim.replay_excess"),
            0.0,
            "{}: replayed {} requests, the run completed a different number",
            w.name,
            value(&first, "dram-sim.replayed_requests")
        );
    }
}

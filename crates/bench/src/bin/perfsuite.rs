//! Simulator performance suite: measures host throughput (simulated cycles
//! per host second) over four representative scenarios and writes a
//! schema-versioned `BENCH_perfsuite.json` report — the repo's perf
//! trajectory. Unlike the figure/table binaries this one reports on the
//! *simulator*, not the simulated system.
//!
//! ```bash
//! cargo run -p bench --release --bin perfsuite            # full suite
//! cargo run -p bench --release --bin perfsuite -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (short runs, one timed iteration), `--iters N` (timed
//! iterations per scenario, default 3), `--out PATH` (default
//! `BENCH_perfsuite.json`), `--power-out PATH` (default `BENCH_power.json`,
//! or `<stem>.power.json` next to an explicit `--out`, so a scratch run
//! never rewrites the committed power baseline). Every scenario also runs
//! once under the `sim-prof` profiler to capture its top spans and to
//! self-check that profiling leaves the simulation state digest untouched.

use bench::timing::measure;
use pra_core::{Report, Scheme, SimBuilder};
use sim_fault::FaultPlan;

/// Report schema version; bump when fields change shape.
const SCHEMA_VERSION: u32 = 1;
/// `BENCH_power.json` schema version; bump when fields change shape.
const POWER_SCHEMA_VERSION: u32 = 1;
/// Spans kept per scenario in the JSON profile excerpt.
const PROFILE_TOP_K: usize = 5;

struct Scenario {
    name: &'static str,
    desc: &'static str,
    build: fn(u64) -> SimBuilder,
}

fn fault_plan() -> FaultPlan {
    FaultPlan::from_toml_str(
        "# perfsuite stress plan\n\
         seed = 7\n\
         mask_corrupt_rate = 0.02\n\
         command_drop_rate = 0.001\n",
    )
    .expect("inline plan is valid")
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "paper_1ch",
            desc: "paper config, single channel: GUPS x1 under PRA",
            build: |n| {
                SimBuilder::new()
                    .app(workloads::gups())
                    .scheme(Scheme::Pra)
                    .instructions(n)
            },
        },
        Scenario {
            name: "queue_saturated",
            desc: "queue-saturated stream: libquantum x4, baseline",
            build: |n| {
                SimBuilder::new()
                    .homogeneous(workloads::libquantum(), 4)
                    .scheme(Scheme::Baseline)
                    .instructions(n)
            },
        },
        Scenario {
            name: "multicore_mix",
            desc: "multi-core mix: MIX1 under PRA",
            build: |n| {
                SimBuilder::new()
                    .mix([
                        workloads::bzip2(),
                        workloads::lbm(),
                        workloads::libquantum(),
                        workloads::omnetpp(),
                    ])
                    .name("MIX1")
                    .scheme(Scheme::Pra)
                    .instructions(n)
            },
        },
        Scenario {
            name: "fault_plan",
            desc: "fault-plan run: GUPS x1 under PRA with injected faults",
            build: |n| {
                SimBuilder::new()
                    .app(workloads::gups())
                    .scheme(Scheme::Pra)
                    .instructions(n)
                    .faults(fault_plan())
            },
        },
    ]
}

struct ScenarioResult {
    name: &'static str,
    report: Report,
    instructions: u64,
    iters: u32,
    median_ns: u128,
    min_ns: u128,
    digest_profiled_matches: bool,
    profile_top: Vec<sim_prof::SpanStat>,
}

impl ScenarioResult {
    fn mem_cycles_per_sec(&self) -> f64 {
        per_sec(self.report.dram.cycles, self.median_ns)
    }

    fn cpu_cycles_per_sec(&self) -> f64 {
        per_sec(self.report.cpu_cycles, self.median_ns)
    }
}

fn per_sec(cycles: u64, ns: u128) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    cycles as f64 * 1e9 / ns as f64
}

fn run_scenario(
    s: &Scenario,
    instructions: u64,
    warmup: Option<u64>,
    iters: u32,
) -> ScenarioResult {
    let mut builder = (s.build)(instructions);
    if let Some(w) = warmup {
        builder = builder.warmup_mem_ops(w);
    }
    // Timed iterations run unprofiled — the throughput number must reflect
    // the production configuration.
    let report = builder.run();
    let samples = measure(0, iters, || builder.run());
    // One extra profiled run captures where the host time goes and proves
    // (via the digest) that instrumentation never perturbs the simulation.
    sim_prof::reset();
    sim_prof::enable();
    let profiled = builder.run();
    sim_prof::disable();
    let profile = sim_prof::take_report();
    ScenarioResult {
        name: s.name,
        digest_profiled_matches: profiled.state_digest() == report.state_digest(),
        report,
        instructions,
        iters,
        median_ns: samples.median_ns().unwrap_or(0),
        min_ns: samples.min_ns().unwrap_or(0),
        profile_top: profile.top(PROFILE_TOP_K).into_iter().cloned().collect(),
    }
}

fn render_json(quick: bool, iters: u32, results: &[ScenarioResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str("  \"suite\": \"perfsuite\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            sim_obs::json::escape(r.name)
        ));
        out.push_str(&format!(
            "      \"workload\": \"{}\",\n",
            sim_obs::json::escape(&r.report.workload)
        ));
        out.push_str(&format!(
            "      \"scheme\": \"{}\",\n",
            sim_obs::json::escape(&r.report.scheme)
        ));
        out.push_str(&format!("      \"cores\": {},\n", r.report.ipc.len()));
        out.push_str(&format!("      \"instructions\": {},\n", r.instructions));
        out.push_str(&format!("      \"iters\": {},\n", r.iters));
        out.push_str(&format!(
            "      \"sim_mem_cycles\": {},\n",
            r.report.dram.cycles
        ));
        out.push_str(&format!(
            "      \"sim_cpu_cycles\": {},\n",
            r.report.cpu_cycles
        ));
        out.push_str(&format!(
            "      \"host_seconds_median\": {:.6},\n",
            r.median_ns as f64 / 1e9
        ));
        out.push_str(&format!(
            "      \"host_seconds_min\": {:.6},\n",
            r.min_ns as f64 / 1e9
        ));
        out.push_str(&format!(
            "      \"mem_cycles_per_sec\": {:.1},\n",
            r.mem_cycles_per_sec()
        ));
        out.push_str(&format!(
            "      \"cpu_cycles_per_sec\": {:.1},\n",
            r.cpu_cycles_per_sec()
        ));
        out.push_str(&format!(
            "      \"state_digest\": \"{:#018x}\",\n",
            r.report.state_digest()
        ));
        out.push_str(&format!(
            "      \"digest_profiled_matches\": {},\n",
            r.digest_profiled_matches
        ));
        out.push_str("      \"profile_top\": [\n");
        for (j, span) in r.profile_top.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"span\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}\n",
                sim_obs::json::escape(&span.name),
                span.calls,
                span.total_ns,
                span.self_ns(),
                if j + 1 < r.profile_top.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the simulated-energy report: unlike the throughput numbers
/// these are properties of the *simulated* system, bit-deterministic for a
/// given scenario set, so the full-length file is committed to the repo
/// and diffs only when the energy model (or a scenario) changes. The quick
/// length is too short for refresh or the fault plan to show.
fn render_power_json(quick: bool, results: &[ScenarioResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema_version\": {POWER_SCHEMA_VERSION},\n"));
    out.push_str("  \"suite\": \"power\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let e = &r.report.energy;
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            sim_obs::json::escape(r.name)
        ));
        out.push_str(&format!(
            "      \"workload\": \"{}\",\n",
            sim_obs::json::escape(&r.report.workload)
        ));
        out.push_str(&format!(
            "      \"scheme\": \"{}\",\n",
            sim_obs::json::escape(&r.report.scheme)
        ));
        out.push_str(&format!("      \"instructions\": {},\n", r.instructions));
        out.push_str(&format!(
            "      \"energy_pj\": {},\n",
            e.total().round() as u64
        ));
        out.push_str(&format!(
            "      \"avg_power_mw\": {},\n",
            r.report.power.total().round() as u64
        ));
        out.push_str("      \"breakdown_pj\": {\n");
        let fields = [
            ("act_pre", e.act_pre),
            ("rd", e.rd),
            ("wr", e.wr),
            ("rd_io", e.rd_io),
            ("wr_io", e.wr_io),
            ("bg", e.bg),
            ("refresh", e.refresh),
        ];
        for (j, (name, pj)) in fields.iter().enumerate() {
            out.push_str(&format!(
                "        \"{name}\": {}{}\n",
                pj.round() as u64,
                if j + 1 < fields.len() { "," } else { "" }
            ));
        }
        out.push_str("      }\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Where the power report goes when `--power-out` is not given: the
/// committed `BENCH_power.json` for the default run, otherwise a sibling of
/// `--out` (`x.json` → `x.power.json`).
fn default_power_out(out_path: Option<&str>) -> String {
    match out_path {
        None => String::from("BENCH_power.json"),
        Some(out) => std::path::Path::new(out)
            .with_extension("power.json")
            .to_string_lossy()
            .into_owned(),
    }
}

fn main() {
    let mut quick = false;
    let mut iters: u32 = 3;
    let mut out_path: Option<String> = None;
    let mut power_out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs a positive integer");
            }
            "--out" => {
                out_path = Some(args.next().expect("--out needs a path"));
            }
            "--power-out" => {
                power_out_path = Some(args.next().expect("--power-out needs a path"));
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: perfsuite [--quick] [--iters N] [--out PATH] [--power-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(iters > 0, "--iters must be at least 1");
    let power_out_path = power_out_path.unwrap_or_else(|| default_power_out(out_path.as_deref()));
    let out_path = out_path.unwrap_or_else(|| String::from("BENCH_perfsuite.json"));
    let (instructions, warmup) = if quick {
        (5_000, Some(20_000))
    } else {
        (50_000, None)
    };
    if quick {
        iters = iters.min(1);
    }
    eprintln!(
        "perfsuite: 4 scenarios, {instructions} instructions/core, {iters} timed iteration(s){}",
        if quick { " (quick)" } else { "" }
    );
    let header = format!(
        "{:<16} {:>14} {:>12} {:>16} {:>10}",
        "scenario", "mem cycles", "host ms", "mem cycles/s", "digest ok"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    let mut results = Vec::new();
    for s in scenarios() {
        let r = run_scenario(&s, instructions, warmup, iters);
        eprintln!("  {}: {}", r.name, s.desc);
        println!(
            "{:<16} {:>14} {:>12.3} {:>16.0} {:>10}",
            r.name,
            r.report.dram.cycles,
            r.median_ns as f64 / 1e6,
            r.mem_cycles_per_sec(),
            r.digest_profiled_matches
        );
        results.push(r);
    }
    let json = render_json(quick, iters, &results);
    std::fs::write(&out_path, &json).expect("write perf report");
    eprintln!("wrote {out_path}");
    let power_json = render_power_json(quick, &results);
    std::fs::write(&power_out_path, &power_json).expect("write power report");
    eprintln!("wrote {power_out_path}");
    if results.iter().any(|r| !r.digest_profiled_matches) {
        eprintln!("error: profiling perturbed at least one state digest");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::default_power_out;

    #[test]
    fn power_report_follows_an_explicit_out_path() {
        assert_eq!(default_power_out(None), "BENCH_power.json");
        assert_eq!(
            default_power_out(Some("/tmp/perf_a.json")),
            "/tmp/perf_a.power.json"
        );
        assert_eq!(default_power_out(Some("perf")), "perf.power.json");
        assert_eq!(
            default_power_out(Some("BENCH_perfsuite.json")),
            "BENCH_perfsuite.power.json"
        );
    }
}

//! Power baseline: runs four fixed scenarios once each and writes their
//! simulated energy and state digest to `BENCH_power.json`. Every number
//! in the file is a property of the *simulated* system, bit-deterministic
//! for a given scenario set, so the committed file diffs only when the
//! energy model, the simulated state or a scenario changes. Host-time
//! performance is measured by the `benchmark/` package instead.
//!
//! ```bash
//! cargo run -p bench --release --bin power_baseline                   # rewrites BENCH_power.json
//! cargo run -p bench --release --bin power_baseline -- --out x.json   # scratch copy
//! ```

use pra_core::{Report, Scheme, SimBuilder};
use sim_fault::FaultPlan;

/// `BENCH_power.json` schema version; bump when fields change shape.
const POWER_SCHEMA_VERSION: u32 = 2;
/// Instructions per core in every scenario.
const INSTRUCTIONS: u64 = 50_000;

fn fault_plan() -> FaultPlan {
    FaultPlan::from_toml_str(
        "# power baseline stress plan\n\
         seed = 7\n\
         mask_corrupt_rate = 0.02\n\
         command_drop_rate = 0.001\n",
    )
    .expect("inline plan is valid")
}

/// The scenarios, by name: paper config on one core, a queue-saturated
/// stream, a multi-core mix, and the paper config with injected faults.
fn scenarios() -> [(&'static str, SimBuilder); 4] {
    let paper = || {
        SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(INSTRUCTIONS)
    };
    [
        ("paper_1ch", paper()),
        (
            "queue_saturated",
            SimBuilder::new()
                .homogeneous(workloads::libquantum(), 4)
                .scheme(Scheme::Baseline)
                .instructions(INSTRUCTIONS),
        ),
        (
            "multicore_mix",
            SimBuilder::new()
                .mix([
                    workloads::bzip2(),
                    workloads::lbm(),
                    workloads::libquantum(),
                    workloads::omnetpp(),
                ])
                .name("MIX1")
                .scheme(Scheme::Pra)
                .instructions(INSTRUCTIONS),
        ),
        ("fault_plan", paper().faults(fault_plan())),
    ]
}

fn render_json(results: &[(&str, Report)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema_version\": {POWER_SCHEMA_VERSION},\n"));
    out.push_str("  \"suite\": \"power\",\n");
    // Every row is a full-length run; the field stays so the file keeps
    // the shape its readers know.
    out.push_str("  \"quick\": false,\n");
    out.push_str("  \"scenarios\": [\n");
    for (i, (name, r)) in results.iter().enumerate() {
        let e = &r.energy;
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            sim_obs::json::escape(name)
        ));
        out.push_str(&format!(
            "      \"workload\": \"{}\",\n",
            sim_obs::json::escape(&r.workload)
        ));
        out.push_str(&format!(
            "      \"scheme\": \"{}\",\n",
            sim_obs::json::escape(&r.scheme)
        ));
        out.push_str(&format!("      \"instructions\": {INSTRUCTIONS},\n"));
        out.push_str(&format!(
            "      \"energy_pj\": {},\n",
            e.total().round() as u64
        ));
        out.push_str(&format!(
            "      \"avg_power_mw\": {},\n",
            r.power.total().round() as u64
        ));
        out.push_str(&format!(
            "      \"state_digest\": \"{:#018x}\",\n",
            r.state_digest()
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
        for (j, (field, pj)) in fields.iter().enumerate() {
            out.push_str(&format!(
                "        \"{field}\": {}{}\n",
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

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = match (args.next().as_deref(), args.next(), args.next()) {
        (None, _, _) => String::from("BENCH_power.json"),
        (Some("--out"), Some(path), None) => path,
        _ => {
            eprintln!("usage: power_baseline [--out PATH]");
            std::process::exit(2);
        }
    };
    let header = format!(
        "{:<16} {:>12} {:>14} {:>20}",
        "scenario", "mem cycles", "energy pJ", "state digest"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    let mut results = Vec::new();
    for (name, builder) in scenarios() {
        let report = builder.run();
        println!(
            "{name:<16} {:>12} {:>14} {:>#20x}",
            report.dram.cycles,
            report.energy.total().round() as u64,
            report.state_digest()
        );
        results.push((name, report));
    }
    if let Err(e) = std::fs::write(&out_path, render_json(&results)) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}

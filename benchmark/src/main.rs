//! `pra-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! simulation failed its correctness check (or the benchmark itself could
//! not run) and 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pra_benchmark::gate::Gate;
use pra_benchmark::ledger::ledger;
use pra_benchmark::metrics::{self, Metric};
use pra_benchmark::reference::{ReferenceKernel, REFERENCE_S};
use pra_benchmark::stats::median;
use pra_benchmark::workload::{Length, Workload, SETUP_PROBE_INSTRUCTIONS, WORKLOADS};

/// Fewest timed repetitions a run reports a median over.
const MIN_REPS: usize = 4;
/// Stop repeating past this, whatever `--seconds` asked, so that one run
/// stays well inside three minutes.
const TIME_CAP: Duration = Duration::from_secs(120);
/// Untraced runs and probes per simulation in the traced ledger.
const LEDGER_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: pra-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A measured metric, with the number of samples behind it (1 for exact
/// values).
struct Value {
    name: &'static str,
    value: f64,
    samples: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} ({})",
        args.workload.name,
        args.seed,
        if args.trace {
            "traced ledger"
        } else {
            "end to end"
        }
    );
    let measured = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let (values, gate) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(1);
        }
    };
    let catalogue = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if let Err(e) = check_complete(&values, catalogue) {
        eprintln!("benchmark error: {e}");
        return ExitCode::from(1);
    }
    for (v, m) in values.iter().zip(catalogue) {
        let samples = match v.samples {
            1 => String::new(),
            n => format!("  (median of {n})"),
        };
        println!("  {:<32} {:>16.6} {}{samples}", v.name, v.value, m.unit);
    }
    for e in &gate.errors {
        eprintln!("FAILED: {e}");
    }
    println!("{}", result_json(&values, catalogue, &gate));
    if gate.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Repeats the workload for `--seconds`, counting one untimed first
/// repetition, and at least [`MIN_REPS`] timed ones. Each repetition is
/// followed by a set-up probe: the same workload at
/// [`SETUP_PROBE_INSTRUCTIONS`] instructions per core.
fn end_to_end(args: &Args) -> Result<(Vec<Value>, Gate), String> {
    let w = args.workload;
    let length = w.length();
    let probe_length = Length {
        instructions: SETUP_PROBE_INSTRUCTIONS,
        warmup: None,
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut gate = Gate::expecting(w.recorded_digests(args.seed, length).map(<[u64]>::to_vec));
    let mut probe_gate = Gate::default();
    let run = w.run(args.seed, length);
    gate.check("untimed repetition", &run);
    let mut reports = run.ok();
    // Read before the reference kernel allocates its arrays: every
    // repetition allocates alike, so the first one sets the high-water mark.
    let peak_rss_mb = peak_rss_mb()?;
    let mut kernel = ReferenceKernel::default();
    let (mut walls, mut setups, mut timed, mut kernels) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut iteration = Duration::ZERO;
    while walls.len() < MIN_REPS || start.elapsed() + iteration <= budget {
        if start.elapsed() > TIME_CAP {
            break;
        }
        let rep = Instant::now();
        let run = w.run(args.seed, length);
        let wall = rep.elapsed().as_secs_f64();
        gate.check("repetition", &run);
        reports = run.ok().or(reports);
        let probe = Instant::now();
        let run = w.run(args.seed, probe_length);
        let setup = probe.elapsed().as_secs_f64();
        probe_gate.check("set-up probe", &run);
        kernels.push(kernel.time());
        iteration = rep.elapsed();
        walls.push(wall);
        setups.push(setup);
        // Paired with the probe right after it, so that a slow spell of the
        // host shifts both sides of the difference alike.
        timed.push(wall - setup);
    }
    gate.absorb(probe_gate);
    let Some(reports) = reports else {
        return Err(format!("no repetition ran: {}", gate.errors.join("; ")));
    };
    // Host times at the reference host speed (see `reference.rs`).
    let speed = REFERENCE_S / median(&kernels);
    println!(
        "raw medians: wall {:.6} s, set-up {:.6} s, timed {:.6} s; host speed factor {speed:.4}",
        median(&walls),
        median(&setups),
        median(&timed)
    );
    let wall = median(&walls) * speed;
    let setup = median(&setups) * speed;
    let sim_cycles: u64 = reports.iter().map(|r| r.dram.cycles).sum();
    let energy_pj: f64 = reports.iter().map(|r| r.energy.total()).sum();
    let values = vec![
        Value {
            name: "wall_s",
            value: wall,
            samples: walls.len(),
        },
        Value {
            name: "setup_s",
            value: setup,
            samples: setups.len(),
        },
        Value {
            name: "timed_mem_cycles_per_s",
            value: sim_cycles as f64 / (median(&timed) * speed),
            samples: timed.len(),
        },
        Value {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            samples: 1,
        },
        Value {
            name: "sim_mem_cycles",
            value: sim_cycles as f64,
            samples: 1,
        },
        Value {
            name: "sim_dram_energy_uj",
            value: energy_pj / 1e6,
            samples: 1,
        },
    ];
    Ok((values, gate))
}

fn traced(args: &Args) -> Result<(Vec<Value>, Gate), String> {
    let w = args.workload;
    let ledger = ledger(w, args.seed, w.length(), LEDGER_REPS)?;
    let values = ledger
        .metrics
        .into_iter()
        .map(|(name, value)| Value {
            name,
            value,
            samples: 1,
        })
        .collect();
    Ok((values, ledger.gate))
}

/// Host memory high-water mark of this process.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Every catalogued metric, in catalogue order, each a finite number.
fn check_complete(values: &[Value], catalogue: &[Metric]) -> Result<(), String> {
    let names: Vec<&str> = values.iter().map(|v| v.name).collect();
    let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    if names != expected {
        return Err(format!("measured {names:?}, catalogue lists {expected:?}"));
    }
    match values.iter().find(|v| !v.value.is_finite()) {
        Some(v) => Err(format!("{} is not a finite number: {}", v.name, v.value)),
        None => Ok(()),
    }
}

fn result_json(values: &[Value], catalogue: &[Metric], gate: &Gate) -> String {
    let metrics: Vec<String> = values
        .iter()
        .zip(catalogue)
        .map(|(v, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name, v.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        metrics.join(", ")
    )
}

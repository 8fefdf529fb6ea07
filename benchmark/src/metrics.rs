//! The benchmark's metric catalogue: every name it prints, with its unit
//! and which direction is better. `BENCHMARK.json` at the repository root
//! lists the same names; the self-tests check that the two agree.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, energy).
    Lower,
    /// Larger values are better (throughput, hit rates, coverage).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured host time (or derived from one): varies run to run.
    Host,
    /// Simulated or counted: identical across runs of the same seed.
    Exact,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Host-measured or exact.
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Exact, Host};

/// Metrics a user of the simulator sees, measured with tracing off
/// (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", Lower, Host),
    m("setup_s", "s", Lower, Host),
    m("timed_mem_cycles_per_s", "1/s", Higher, Host),
    m("peak_rss_mb", "MB", Lower, Host),
    m("sim_mem_cycles", "cycles", Lower, Exact),
    m("sim_dram_energy_uj", "uJ", Lower, Exact),
];

/// Per-layer metrics from the traced run (`--trace 1`). Layer prefixes
/// are the workspace's crate names.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.ops", "count", Lower, Exact),
    m("workloads.next_op_ns", "ns/op", Lower, Host),
    m("cache-sim.accesses", "count", Lower, Exact),
    m("cache-sim.access_ns", "ns/op", Lower, Host),
    m("cache-sim.l1_hit_rate", "ratio", Higher, Exact),
    m("cache-sim.l2_hit_rate", "ratio", Higher, Exact),
    m("cache-sim.writebacks", "count", Lower, Exact),
    m("cpu-sim.cycles", "cycles", Lower, Exact),
    m("cpu-sim.self_ns_per_cycle", "ns/cycle", Lower, Host),
    m("cpu-sim.all_stalled_frac", "ratio", Lower, Exact),
    m("dram-sim.cycles", "cycles", Lower, Exact),
    m("dram-sim.tick_ns", "ns/cycle", Lower, Host),
    m("dram-sim.tick_ns_idle", "ns/cycle", Lower, Host),
    m("dram-sim.tick_ns_q16", "ns/cycle", Lower, Host),
    m("dram-sim.tick_ns_q64", "ns/cycle", Lower, Host),
    m("dram-sim.idle_cycle_frac", "ratio", Higher, Exact),
    m("dram-sim.mean_queue_depth", "requests", Lower, Exact),
    m("dram-sim.replayed_requests", "count", Lower, Exact),
    m("dram-sim.replay_excess", "count", Lower, Exact),
    m("dram-sim.activations", "count", Lower, Exact),
    m("dram-sim.partial_act_frac", "ratio", Higher, Exact),
    m("dram-sim.row_hit_rate", "ratio", Higher, Exact),
    m("dram-sim.false_hit_rate", "ratio", Lower, Exact),
    m("dram-sim.bus_util", "ratio", Higher, Exact),
    m("dram-sim.read_latency_mean", "cycles", Lower, Exact),
    m("dram-sim.refreshes", "count", Lower, Exact),
    m("dram-power.account_ns", "ns/call", Lower, Host),
    m(
        "dram-power.calls_per_mem_cycle",
        "calls/cycle",
        Lower,
        Exact,
    ),
    m("sim-prof.disabled_span_ns", "ns/span", Lower, Host),
    m("sim-prof.overhead_ratio", "ratio", Lower, Host),
    m("sim-obs.trace_overhead_ratio", "ratio", Lower, Host),
    m("sim-obs.events", "count", Lower, Exact),
    m("sim-obs.dropped_events", "count", Lower, Exact),
    m("sim-snap.bytes", "bytes", Lower, Exact),
    m("sim-snap.save_ms", "ms", Lower, Host),
    m("sim-snap.load_ms", "ms", Lower, Host),
    m("core.runs", "count", Lower, Exact),
    m("core.timed_host_s", "s", Lower, Host),
    m("core.setup_share", "ratio", Lower, Host),
    m("core.layer_coverage", "ratio", Higher, Host),
    m("core.unexplained_share", "ratio", Lower, Host),
];

//! The traced per-layer ledger.
//!
//! For every simulation of a workload this module runs the simulator three
//! ways through `SimBuilder` (untraced, into an in-memory `RingSink`, and
//! with the sim-prof profiler on), then replays the run's own operation
//! and request streams through the layers' public types, timing each
//! replay as one batch: `WorkloadGen::next_op`, `CacheHierarchy::access`,
//! `MemorySystem::try_tick`, `EnergyAccounting` and `SnapState`. Nothing
//! inside the simulator is instrumented for the benchmark.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cache_sim::CacheHierarchy;
use cpu_sim::{CpuSystem, InstructionSource, Op, SystemConfig};
use dram_power::{EnergyAccounting, RankPowerState};
use dram_sim::{DramConfig, MemorySystem, FULL_ROW_MATS};
use mem_model::{MemRequest, PhysAddr, WordMask};
use pra_core::Report;
use sim_obs::{RingSink, TraceEvent};
use sim_snap::{SnapReader, SnapState, SnapWriter};

use crate::gate::Gate;
use crate::stats::median;
use crate::workload::{Length, RunSpec, Workload, SETUP_PROBE_INSTRUCTIONS};

/// Memory cycles each fixed-depth and idle tick replay runs for.
const FIXED_DEPTH_CYCLES: u64 = 100_000;
/// Memory cycles of the event mix the power-accounting replay covers.
const POWER_REPLAY_CYCLES: u64 = 400_000;
/// Spans per batch when timing a disabled `span!`.
const SPAN_BATCH: u32 = 2_000_000;
/// Repetitions of each short host-time measurement (median taken).
const SHORT_REPS: usize = 5;

/// The per-layer metrics of one workload, plus the correctness tally of
/// every simulation the ledger ran.
#[derive(Debug)]
pub struct Ledger {
    /// `(name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness tally of every simulation the ledger ran.
    pub gate: Gate,
}

/// Host seconds spent over a number of operations.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    secs: f64,
    ops: u64,
}

impl Rate {
    fn add(&mut self, other: Rate) {
        self.secs += other.secs;
        self.ops += other.ops;
    }

    fn ns_per_op(self) -> f64 {
        self.secs * 1e9 / self.ops.max(1) as f64
    }
}

/// Sums over the simulations of a workload.
#[derive(Debug, Default)]
struct Totals {
    runs: u64,
    untraced_s: f64,
    probe_s: f64,
    traced_s: f64,
    profiled_s: f64,
    explained_s: f64,
    generate: Rate,
    access: Rate,
    accesses: u64,
    l1_hits: u64,
    l2_hits: u64,
    l2_lookups: u64,
    writebacks: u64,
    cpu_cycles: u64,
    all_stalled: u64,
    dram_cycles: u64,
    channel_cycles: u64,
    bus_busy: u64,
    activations: u64,
    partial_acts: u64,
    row_hits: u64,
    row_classified: u64,
    false_hits: u64,
    read_latency_sum: u64,
    reads_completed: u64,
    refreshes: u64,
    completed: u64,
    replayed: u64,
    tick: Rate,
    idle_cycles: u64,
    depth_sum: u64,
    idle_tick: Rate,
    q16: Rate,
    q64: Rate,
    power: Rate,
    power_cycles: u64,
    events: u64,
    dropped: u64,
    snap_bytes: u64,
    snap_save_s: f64,
    snap_load_s: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs the traced ledger of `workload` at `length`. `reps` is the number
/// of untraced runs and set-up probes timed per simulation.
///
/// # Errors
///
/// A replay that cannot reproduce the simulated run: its op stream diverges
/// from the trace, the ring overflowed, or a replayed memory system failed.
pub fn ledger(
    workload: &Workload,
    seed: u64,
    length: Length,
    reps: usize,
) -> Result<Ledger, String> {
    let recorded = workload.recorded_digests(seed, length).unwrap_or(&[]);
    let mut t = Totals::default();
    let mut gate = Gate::default();
    for (i, spec) in workload.specs(seed, length).iter().enumerate() {
        spec_ledger(spec, recorded.get(i).copied(), reps, &mut gate, &mut t)?;
    }
    let timed_s = t.untraced_s - t.probe_s;
    let coverage = t.explained_s / timed_s;
    let metrics = vec![
        ("workloads.ops", t.generate.ops as f64),
        ("workloads.next_op_ns", t.generate.ns_per_op()),
        ("cache-sim.accesses", t.accesses as f64),
        ("cache-sim.access_ns", t.access.ns_per_op()),
        ("cache-sim.l1_hit_rate", ratio(t.l1_hits, t.accesses)),
        ("cache-sim.l2_hit_rate", ratio(t.l2_hits, t.l2_lookups)),
        ("cache-sim.writebacks", t.writebacks as f64),
        ("cpu-sim.cycles", t.cpu_cycles as f64),
        (
            "cpu-sim.self_ns_per_cycle",
            (timed_s - t.explained_s) * 1e9 / t.cpu_cycles.max(1) as f64,
        ),
        (
            "cpu-sim.all_stalled_frac",
            ratio(t.all_stalled, t.cpu_cycles),
        ),
        ("dram-sim.cycles", t.dram_cycles as f64),
        ("dram-sim.tick_ns", t.tick.ns_per_op()),
        ("dram-sim.tick_ns_idle", t.idle_tick.ns_per_op()),
        ("dram-sim.tick_ns_q16", t.q16.ns_per_op()),
        ("dram-sim.tick_ns_q64", t.q64.ns_per_op()),
        ("dram-sim.idle_cycle_frac", ratio(t.idle_cycles, t.tick.ops)),
        ("dram-sim.mean_queue_depth", ratio(t.depth_sum, t.tick.ops)),
        ("dram-sim.replayed_requests", t.replayed as f64),
        (
            "dram-sim.replay_excess",
            t.replayed as f64 - t.completed as f64,
        ),
        ("dram-sim.activations", t.activations as f64),
        (
            "dram-sim.partial_act_frac",
            ratio(t.partial_acts, t.activations),
        ),
        ("dram-sim.row_hit_rate", ratio(t.row_hits, t.row_classified)),
        (
            "dram-sim.false_hit_rate",
            ratio(t.false_hits, t.row_hits + t.false_hits),
        ),
        ("dram-sim.bus_util", ratio(t.bus_busy, t.channel_cycles)),
        (
            "dram-sim.read_latency_mean",
            ratio(t.read_latency_sum, t.reads_completed),
        ),
        ("dram-sim.refreshes", t.refreshes as f64),
        ("dram-power.account_ns", t.power.ns_per_op()),
        (
            "dram-power.calls_per_mem_cycle",
            ratio(t.power.ops, t.power_cycles),
        ),
        ("sim-prof.disabled_span_ns", disabled_span_ns()),
        ("sim-prof.overhead_ratio", t.profiled_s / t.untraced_s),
        ("sim-obs.trace_overhead_ratio", t.traced_s / t.untraced_s),
        ("sim-obs.events", t.events as f64),
        ("sim-obs.dropped_events", t.dropped as f64),
        ("sim-snap.bytes", t.snap_bytes as f64),
        ("sim-snap.save_ms", t.snap_save_s * 1e3),
        ("sim-snap.load_ms", t.snap_load_s * 1e3),
        ("core.runs", t.runs as f64),
        ("core.timed_host_s", timed_s),
        ("core.setup_share", t.probe_s / t.untraced_s),
        ("core.layer_coverage", coverage),
        ("core.unexplained_share", 1.0 - coverage),
    ];
    Ok(Ledger { metrics, gate })
}

/// The ledger of one simulation, added into `t`.
fn spec_ledger(
    spec: &RunSpec,
    recorded: Option<u64>,
    reps: usize,
    gate: &mut Gate,
    t: &mut Totals,
) -> Result<(), String> {
    t.runs += 1;
    let probe = RunSpec {
        length: Length {
            instructions: SETUP_PROBE_INSTRUCTIONS,
            ..spec.length
        },
        ..spec.clone()
    };
    let mut full_gate = Gate::expecting(recorded.map(|d| vec![d]));
    let mut probe_gate = Gate::default();
    let (mut full_s, mut probe_s) = (Vec::new(), Vec::new());
    let mut report = None;
    for _ in 0..reps {
        let (secs, run) = timed(|| spec.run());
        full_s.push(secs);
        full_gate.check("untraced run", &run);
        report = run.ok().or(report);
        let (secs, run) = timed(|| probe.run());
        probe_s.push(secs);
        probe_gate.check("set-up probe", &run);
    }
    gate.absorb(full_gate);
    gate.absorb(probe_gate);
    let Some(mut reports) = report else {
        return Err(format!(
            "no untraced run of {:?} succeeded: {}",
            spec.apps.iter().map(|a| a.name).collect::<Vec<_>>(),
            gate.errors.join("; ")
        ));
    };
    let report = reports.remove(0);
    let untraced_s = median(&full_s);
    let probe_s = median(&probe_s);
    t.untraced_s += untraced_s;
    t.probe_s += probe_s;
    add_report(spec, &report, t);

    let same_answer = || Gate::expecting(Some(vec![report.state_digest()]));
    let (traced_s, ring, traced) = traced_run(spec, &report)?;
    t.traced_s += traced_s;
    let mut traced_gate = same_answer();
    traced_gate.check("traced run", &traced.map(|r| vec![r]));
    gate.absorb(traced_gate);

    sim_prof::reset();
    sim_prof::enable();
    let (profiled_s, profiled) = timed(|| spec.run());
    sim_prof::disable();
    sim_prof::reset();
    t.profiled_s += profiled_s;
    let mut profiled_gate = same_answer();
    profiled_gate.check("profiled run", &profiled);
    gate.absorb(profiled_gate);

    t.events += ring.total_emitted();
    t.dropped += ring.dropped();
    let events: Vec<TraceEvent> = ring.events().copied().collect();
    drop(ring);
    t.all_stalled += all_stalled_cycles(&events, spec.apps.len());

    let streams = generate(spec);
    t.generate.add(streams.rate);
    check_fill_order(&streams.timed, &events)?;
    let (hierarchy, access) = replay_cache(spec, &streams);
    t.access.add(access);
    snapshot(spec, hierarchy, t)?;

    let cfg = spec.dram_config();
    let requests = requests(&events);
    t.replayed += requests.len() as u64;
    let paced = replay_paced(&cfg, &requests)?;
    t.tick.add(paced.rate);
    t.idle_cycles += paced.idle_cycles;
    t.depth_sum += paced.depth_sum;
    t.q16.add(replay_fixed_depth(&cfg, &requests, 16)?);
    t.q64.add(replay_fixed_depth(&cfg, &requests, 64)?);
    t.idle_tick.add(replay_fixed_depth(&cfg, &[], 0)?);
    let (power, cycles) = replay_power(spec, &cfg, report.dram.cycles, &events);
    t.power.add(power);
    t.power_cycles += cycles;

    // Timed-phase host time the measured layers account for: every op the
    // cores consumed, every cache access and every memory tick.
    let timed_ops = streams.timed.iter().map(Vec::len).sum::<usize>() as u64;
    let accesses = report.cache.l1_hits + report.cache.l1_misses;
    t.explained_s += (timed_ops as f64 * streams.rate.ns_per_op()
        + accesses as f64 * access.ns_per_op()
        + report.dram.cycles as f64 * paced.rate.ns_per_op())
        / 1e9;
    Ok(())
}

fn add_report(spec: &RunSpec, r: &Report, t: &mut Totals) {
    let (c, d) = (&r.cache, &r.dram);
    t.accesses += c.l1_hits + c.l1_misses;
    t.l1_hits += c.l1_hits;
    t.l2_hits += c.l2_hits;
    t.l2_lookups += c.l2_hits + c.l2_misses;
    t.writebacks += c.writebacks + c.dbi_writebacks;
    t.cpu_cycles += r.cpu_cycles;
    t.dram_cycles += d.cycles;
    t.channel_cycles += d.cycles * spec.dram_config().geometry.channels as u64;
    t.bus_busy += d.bus_busy_cycles;
    t.activations += d.activations;
    t.partial_acts += d.act_histogram[..FULL_ROW_MATS as usize - 1]
        .iter()
        .sum::<u64>();
    t.row_hits += d.read.hits + d.write.hits;
    t.row_classified += d.read.total() + d.write.total();
    t.false_hits += d.read.false_hits + d.write.false_hits;
    t.read_latency_sum += d.read_latency_sum;
    t.reads_completed += d.reads_completed;
    t.refreshes += d.refreshes;
    t.completed += d.reads_completed + d.writes_completed;
}

/// The run again, into an in-memory ring sized from the untraced report.
/// A ring that overflowed is sized to the exact event count and the
/// (deterministic) run repeated once.
fn traced_run(
    spec: &RunSpec,
    untraced: &Report,
) -> Result<(f64, RingSink, Result<Report, String>), String> {
    let d = &untraced.dram;
    let mut capacity = (2 * (d.reads_completed + d.writes_completed)
        + 2 * d.activations
        + untraced.cache.l1_misses
        + untraced.cache.writebacks
        + untraced.cpu_cycles / 16
        + 4096) as usize;
    for _ in 0..2 {
        let ring = Rc::new(RefCell::new(RingSink::new(capacity)));
        let builder = spec.builder().trace_ring(Rc::clone(&ring));
        let (secs, run) = timed(|| crate::workload::try_run(&builder));
        drop(builder);
        let ring = Rc::try_unwrap(ring)
            .map_err(|_| "the simulator kept a handle to the trace ring".to_string())?
            .into_inner();
        if ring.dropped() == 0 {
            return Ok((secs, ring, run));
        }
        capacity = ring.total_emitted() as usize;
    }
    Err("trace ring still overflowed at the exact event count".to_string())
}

/// CPU cycles in which every core sat in a stall episode.
fn all_stalled_cycles(events: &[TraceEvent], cores: usize) -> u64 {
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for e in events {
        if let TraceEvent::CoreStall { cycle, cycles, .. } = *e {
            edges.push((cycle, 1));
            edges.push((cycle + cycles, -1));
        }
    }
    edges.sort_unstable();
    let (mut stalled, mut active, mut since) = (0, 0i64, 0);
    for (at, delta) in edges {
        if active == cores as i64 {
            stalled += at - since;
        }
        active += delta;
        since = at;
    }
    stalled
}

/// Each core's op stream, regenerated from the run's seed: the warmup
/// prefix and the ops the timed phase consumes.
struct OpStreams {
    warmup: Vec<Vec<Op>>,
    timed: Vec<Vec<Op>>,
    rate: Rate,
}

fn generate(spec: &RunSpec) -> OpStreams {
    let warmup_ops = spec.warmup_mem_ops();
    let target = spec.length.instructions;
    let mut generators = spec.generators();
    let start = Instant::now();
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    for g in &mut generators {
        let (mut ops, mut mem_ops) = (Vec::new(), 0);
        while mem_ops < warmup_ops {
            let op = g.next_op();
            mem_ops += u64::from(!matches!(op, Op::Compute(_)));
            ops.push(op);
        }
        warmup.push(ops);
        let (mut ops, mut instructions) = (Vec::new(), 0);
        while instructions < target {
            let op = g.next_op();
            instructions += match op {
                Op::Compute(n) => u64::from(n),
                Op::Load(_) | Op::Store(..) => 1,
            };
            ops.push(op);
        }
        timed.push(ops);
    }
    let secs = start.elapsed().as_secs_f64();
    let ops = warmup.iter().chain(&timed).map(Vec::len).sum::<usize>() as u64;
    OpStreams {
        warmup,
        timed,
        rate: Rate { secs, ops },
    }
}

fn mem_op(op: Op) -> Option<(PhysAddr, Option<WordMask>)> {
    match op {
        Op::Compute(_) => None,
        Op::Load(a) => Some((a, None)),
        Op::Store(a, m) => Some((a, Some(m))),
    }
}

/// Checks that the regenerated op streams are the ones the simulation ran:
/// each core's cache fills must appear, in order, among its op addresses.
/// A load retried after a full read queue fills twice from one op.
fn check_fill_order(timed: &[Vec<Op>], events: &[TraceEvent]) -> Result<(), String> {
    let mut cursors: Vec<_> = timed
        .iter()
        .map(|ops| ops.iter().filter_map(|&op| mem_op(op)))
        .collect();
    let mut last = vec![None; timed.len()];
    for e in events {
        let TraceEvent::CacheFill { core, line, .. } = *e else {
            continue;
        };
        let core = usize::from(core);
        if last[core] == Some(line) {
            continue;
        }
        let cursor = cursors
            .get_mut(core)
            .ok_or_else(|| format!("fill from core {core} of a {}-core run", timed.len()))?;
        if !cursor.any(|(a, _)| a.line_number() == line) {
            return Err(format!(
                "core {core} filled line {line:#x}, which its regenerated op stream never \
                 touches: the replay no longer matches the simulator's op streams"
            ));
        }
        last[core] = Some(line);
    }
    Ok(())
}

/// Warms a hierarchy with the warmup prefix exactly as the builder does,
/// then times the timed-phase ops through it, cores interleaved.
fn replay_cache(spec: &RunSpec, streams: &OpStreams) -> (CacheHierarchy, Rate) {
    let mut h = spec.hierarchy();
    for (core, ops) in streams.warmup.iter().enumerate() {
        for (addr, store) in ops.iter().filter_map(|&op| mem_op(op)) {
            black_box(h.access(core, addr, store));
        }
    }
    h.reset_stats();
    let per_core: Vec<Vec<(PhysAddr, Option<WordMask>)>> = streams
        .timed
        .iter()
        .map(|ops| ops.iter().filter_map(|&op| mem_op(op)).collect())
        .collect();
    let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
    let mut accesses = 0;
    let start = Instant::now();
    for i in 0..longest {
        for (core, ops) in per_core.iter().enumerate() {
            if let Some(&(addr, store)) = ops.get(i) {
                black_box(h.access(core, addr, store));
                accesses += 1;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (
        h,
        Rate {
            secs,
            ops: accesses,
        },
    )
}

/// Snapshot size and save/load time of a `CpuSystem` holding the warmed
/// hierarchy: what sharing one warmup across schemes would pay per run.
fn snapshot(spec: &RunSpec, hierarchy: CacheHierarchy, t: &mut Totals) -> Result<(), String> {
    let system = |h| {
        let sources = spec
            .generators()
            .into_iter()
            .map(|g| Box::new(g) as Box<dyn InstructionSource>)
            .collect();
        let mem = MemorySystem::try_new(spec.dram_config()).map_err(|e| e.to_string())?;
        Ok::<_, String>(CpuSystem::new(
            SystemConfig::paper(),
            h,
            mem,
            sources,
            spec.length.instructions,
        ))
    };
    let warmed = system(hierarchy)?;
    let mut restored = system(spec.hierarchy())?;
    let (mut save_s, mut load_s) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..SHORT_REPS {
        let (secs, b) = timed(|| {
            let mut w = SnapWriter::new();
            warmed.snap_save(&mut w);
            w.into_bytes()
        });
        save_s.push(secs);
        bytes = b;
        let (secs, loaded) = timed(|| {
            let mut r = SnapReader::new(&bytes);
            restored.snap_load(&mut r).and_then(|()| r.finish())
        });
        loaded.map_err(|e| format!("snapshot of the warmed system did not load: {e}"))?;
        load_s.push(secs);
    }
    t.snap_bytes += bytes.len() as u64;
    t.snap_save_s += median(&save_s);
    t.snap_load_s += median(&load_s);
    Ok(())
}

/// One DRAM request of the run: reads are fills from memory, writes are
/// dirty evictions with their FGD masks, each due at the memory cycle of
/// the CPU cycle it was made in.
#[derive(Debug, Clone, Copy)]
struct Request {
    due: u64,
    addr: PhysAddr,
    write: Option<WordMask>,
}

fn requests(events: &[TraceEvent]) -> Vec<Request> {
    let per_mem = SystemConfig::paper().cpu_per_mem_clock;
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::CacheFill {
                cycle,
                line,
                from_memory: true,
                ..
            } => Some(Request {
                due: cycle / per_mem,
                addr: PhysAddr::from_line_number(line),
                write: None,
            }),
            TraceEvent::CacheWriteback {
                cycle, line, mask, ..
            } => Some(Request {
                due: cycle / per_mem,
                addr: PhysAddr::from_line_number(line),
                write: Some(WordMask::from_bits(mask)),
            }),
            _ => None,
        })
        .collect()
}

fn mem_request(r: &Request, id: u64) -> MemRequest {
    match r.write {
        Some(mask) => MemRequest::write(id, r.addr, mask),
        None => MemRequest::read(id, r.addr),
    }
}

fn memory_system(cfg: &DramConfig) -> Result<MemorySystem, String> {
    let mut mem = MemorySystem::try_new(cfg.clone()).map_err(|e| e.to_string())?;
    mem.set_power_telemetry(true);
    Ok(mem)
}

struct Paced {
    rate: Rate,
    idle_cycles: u64,
    depth_sum: u64,
}

/// Replays the requests at the pace the run made them, on a standalone
/// memory system, until every one has completed.
fn replay_paced(cfg: &DramConfig, reqs: &[Request]) -> Result<Paced, String> {
    let mut mem = memory_system(cfg)?;
    let cap = reqs.last().map_or(0, |r| r.due) + 10_000_000;
    let (mut next, mut idle_cycles, mut depth_sum) = (0, 0, 0);
    let start = Instant::now();
    while next < reqs.len() || mem.pending() > 0 {
        while next < reqs.len() && reqs[next].due <= mem.cycle() {
            if mem
                .try_enqueue(mem_request(&reqs[next], next as u64 + 1))
                .is_err()
            {
                break;
            }
            next += 1;
        }
        let pending = mem.pending() as u64;
        idle_cycles += u64::from(pending == 0);
        depth_sum += pending;
        mem.try_tick()
            .map_err(|e| format!("replayed memory system: {e}"))?;
        if mem.cycle() > cap {
            return Err("replayed memory system never drained".to_string());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let s = mem.stats();
    if s.reads_completed + s.writes_completed != reqs.len() as u64 {
        return Err(format!(
            "replay completed {} of {} requests",
            s.reads_completed + s.writes_completed,
            reqs.len()
        ));
    }
    Ok(Paced {
        rate: Rate {
            secs,
            ops: mem.cycle(),
        },
        idle_cycles,
        depth_sum,
    })
}

/// Ticks a standalone memory system for [`FIXED_DEPTH_CYCLES`] while
/// keeping `depth` of the requests queued (0: an idle system).
fn replay_fixed_depth(cfg: &DramConfig, reqs: &[Request], depth: usize) -> Result<Rate, String> {
    let mut mem = memory_system(cfg)?;
    let mut next = 0;
    let start = Instant::now();
    while mem.cycle() < FIXED_DEPTH_CYCLES {
        while mem.pending() < depth && next < reqs.len() {
            if mem
                .try_enqueue(mem_request(&reqs[next], next as u64 + 1))
                .is_err()
            {
                break;
            }
            next += 1;
        }
        mem.try_tick()
            .map_err(|e| format!("replayed memory system: {e}"))?;
    }
    Ok(Rate {
        secs: start.elapsed().as_secs_f64(),
        ops: mem.cycle(),
    })
}

#[derive(Debug, Clone, Copy)]
enum PowerCall {
    Activate(u32),
    Read,
    Write(f64),
    Refresh,
}

/// Replays the `EnergyAccounting` calls of the run's first
/// [`POWER_REPLAY_CYCLES`] memory cycles: one per activation, column
/// command and refresh from the DRAM trace, plus the per-rank background
/// and residency calls every cycle makes. Returns the rate per call and
/// the cycles covered.
fn replay_power(
    spec: &RunSpec,
    cfg: &DramConfig,
    dram_cycles: u64,
    events: &[TraceEvent],
) -> (Rate, u64) {
    let g = cfg.geometry;
    let ranks = g.channels * g.ranks_per_channel;
    let rank_of =
        |channel: u8, rank: u8| usize::from(channel) * g.ranks_per_channel + usize::from(rank);
    let scheme = spec.scheme.behavior();
    let mut masks = events.iter().filter_map(|e| match *e {
        TraceEvent::CacheWriteback { mask, .. } => Some(WordMask::from_bits(mask)),
        _ => None,
    });
    let cycles = dram_cycles.min(POWER_REPLAY_CYCLES);
    let (mut open, mut down) = (vec![0u16; ranks], vec![false; ranks]);
    let mut calls = Vec::new();
    let mut changes = Vec::new();
    for e in events {
        let (cycle, call, change) = match *e {
            TraceEvent::Activate {
                cycle,
                channel,
                rank,
                bank,
                mats,
                ..
            } => {
                let r = rank_of(channel, rank);
                open[r] |= 1 << bank;
                (cycle, Some(PowerCall::Activate(mats)), Some(r))
            }
            TraceEvent::Precharge {
                cycle,
                channel,
                rank,
                bank,
            } => {
                let r = rank_of(channel, rank);
                open[r] &= !(1 << bank);
                (cycle, None, Some(r))
            }
            TraceEvent::Read { cycle, .. } => (cycle, Some(PowerCall::Read), None),
            TraceEvent::Write { cycle, .. } => {
                let mask = masks.next().unwrap_or(WordMask::FULL);
                (
                    cycle,
                    Some(PowerCall::Write(scheme.write_io_fraction(mask))),
                    None,
                )
            }
            TraceEvent::Refresh { cycle, .. } => (cycle, Some(PowerCall::Refresh), None),
            TraceEvent::PowerDown {
                cycle,
                channel,
                rank,
            } => {
                let r = rank_of(channel, rank);
                down[r] = true;
                (cycle, None, Some(r))
            }
            TraceEvent::PowerUp {
                cycle,
                channel,
                rank,
            } => {
                let r = rank_of(channel, rank);
                down[r] = false;
                (cycle, None, Some(r))
            }
            _ => continue,
        };
        if cycle >= cycles {
            continue;
        }
        if let Some(call) = call {
            calls.push((cycle, call));
        }
        if let Some(r) = change {
            let state = if down[r] {
                RankPowerState::PowerDown
            } else if open[r] != 0 {
                RankPowerState::ActiveStandby
            } else {
                RankPowerState::PrechargeStandby
            };
            changes.push((cycle, r, state, open[r]));
        }
    }

    let mut acct = EnergyAccounting::new(cfg.power, ranks);
    let mut state = vec![RankPowerState::PrechargeStandby; ranks];
    let mut open = vec![0u16; ranks];
    let (mut c, mut s) = (0, 0);
    let start = Instant::now();
    for cycle in 0..cycles {
        while c < calls.len() && calls[c].0 <= cycle {
            match calls[c].1 {
                PowerCall::Activate(mats) => acct.activation_mats(mats),
                PowerCall::Read => acct.read_line(),
                PowerCall::Write(fraction) => acct.write_line(fraction),
                PowerCall::Refresh => acct.refresh(),
            }
            c += 1;
        }
        while s < changes.len() && changes[s].0 <= cycle {
            let (_, r, st, mask) = changes[s];
            state[r] = st;
            open[r] = mask;
            s += 1;
        }
        for r in 0..ranks {
            acct.background_cycle(r, state[r]);
            acct.bank_residency(r, open[r]);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(acct.breakdown());
    let ops = c as u64 + cycles * 2 * ranks as u64;
    (Rate { secs, ops }, cycles)
}

/// Host nanoseconds of one `span!` with profiling off: the cost every
/// instrumented call site pays in an unprofiled run.
fn disabled_span_ns() -> f64 {
    sim_prof::disable();
    let batches: Vec<f64> = (0..SHORT_REPS)
        .map(|_| {
            let (secs, ()) = timed(|| {
                for _ in 0..SPAN_BATCH {
                    let guard = sim_prof::span!("benchmark.disabled_span");
                    black_box(&guard);
                }
            });
            secs * 1e9 / f64::from(SPAN_BATCH)
        })
        .collect();
    median(&batches)
}

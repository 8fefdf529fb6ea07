//! A frozen reference kernel that measures how fast the host is running.
//!
//! The host this benchmark was sized on, a shared 2-vCPU KVM guest, drifts
//! in speed by up to 2× over tens of seconds to minutes, from contention
//! this process cannot see (process CPU time equals wall time through the
//! slow spells, so it is not CPU steal). Whole runs fall inside one spell,
//! so medians within a run cannot remove it. This kernel is timed between
//! repetitions and its time scales the run's host times.
//!
//! The kernel is a set-associative LRU cache model over a random line
//! stream with a 12 MB working set, so its cache and memory behaviour
//! resembles the simulator's own; a pure ALU loop did not track the drift.
//! It shares no code with the simulator, so no change to the simulator
//! moves it. Do not edit it: its time is the unit the recorded baselines
//! are in.

use std::hint::black_box;
use std::time::Instant;

const SETS: usize = 65_536;
const WAYS: usize = 16;
const ACCESSES: u32 = 1_000_000;
const LINES: u64 = 1 << 22;

/// Kernel seconds on the host the benchmark's bounds were set on, at its
/// usual speed: host times are reported as if the kernel had taken this.
pub const REFERENCE_S: f64 = 0.125;

/// The kernel's state. It persists across timings so that every timing
/// after the first runs on a warmed, steady-state cache model.
#[derive(Debug)]
pub struct ReferenceKernel {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    rng: u64,
    clock: u32,
}

impl Default for ReferenceKernel {
    fn default() -> Self {
        let mut kernel = ReferenceKernel {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            rng: 0x9e37_79b9_7f4a_7c15,
            clock: 0,
        };
        kernel.time();
        kernel
    }
}

impl ReferenceKernel {
    /// Host seconds for one fixed batch of the kernel.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut hits = 0u32;
        for _ in 0..ACCESSES {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let line = self.rng % LINES;
            let base = (line as usize % SETS) * WAYS;
            self.clock = self.clock.wrapping_add(1);
            let ways = base..base + WAYS;
            match ways.clone().find(|&w| self.tags[w] == line) {
                Some(w) => {
                    self.stamps[w] = self.clock;
                    hits += 1;
                }
                None => {
                    let victim = ways
                        .min_by_key(|&w| self.stamps[w])
                        .expect("a set has ways");
                    self.tags[victim] = line;
                    self.stamps[victim] = self.clock;
                }
            }
        }
        black_box(hits);
        start.elapsed().as_secs_f64()
    }
}

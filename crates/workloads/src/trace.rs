//! Recording and replaying instruction traces.
//!
//! Generators are convenient but opaque; traces make runs inspectable and
//! portable: record any [`InstructionSource`] (including a [`WorkloadGen`])
//! into a [`Trace`], save it to a simple line-oriented text format, reload
//! it elsewhere, and replay it as a source again. Replay loops the trace,
//! so a recorded region can drive arbitrarily long runs the way SimPoint
//! regions do.
//!
//! Format: one op per line — `C <count>`, `L <hex addr>`, or
//! `S <hex addr> <mask bits as hex>`.
//!
//! [`WorkloadGen`]: crate::WorkloadGen

use std::io::{self, BufRead, Write};

use cpu_sim::{InstructionSource, Op};
use mem_model::{PhysAddr, WordMask};

/// A finite recorded instruction stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    ops: Vec<Op>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records `n_ops` operations from a source.
    pub fn record<S: InstructionSource + ?Sized>(source: &mut S, n_ops: usize) -> Self {
        Trace {
            ops: (0..n_ops).map(|_| source.next_op()).collect(),
        }
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Memory operations (loads + stores) in the trace.
    pub fn memory_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| !matches!(op, Op::Compute(_)))
            .count()
    }

    /// Serialises the trace to a writer. A `&mut` reference works as the
    /// writer, e.g. `trace.save(&mut file)?`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save<W: Write>(&self, mut writer: W) -> io::Result<()> {
        for op in &self.ops {
            match op {
                Op::Compute(n) => writeln!(writer, "C {n}")?,
                Op::Load(a) => writeln!(writer, "L {:x}", a.raw())?,
                Op::Store(a, m) => writeln!(writer, "S {:x} {:x}", a.raw(), m.bits())?,
            }
        }
        Ok(())
    }

    /// Parses a trace from a reader (the format [`Trace::save`] writes).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed lines; propagates reader errors.
    pub fn load<R: BufRead>(reader: R) -> io::Result<Self> {
        let bad = |line: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed trace line: {line:?}"),
            )
        };
        let mut ops = Vec::new();
        for line in reader.lines() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let kind = parts.next().ok_or_else(|| bad(&line))?;
            let op = match kind {
                "C" => {
                    let n = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(&line))?;
                    Op::Compute(n)
                }
                "L" => {
                    let a = parts
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| bad(&line))?;
                    Op::Load(PhysAddr::new(a))
                }
                "S" => {
                    let a = parts
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| bad(&line))?;
                    let bits = parts
                        .next()
                        .and_then(|v| u8::from_str_radix(v, 16).ok())
                        .ok_or_else(|| bad(&line))?;
                    if bits == 0 {
                        return Err(bad(&line));
                    }
                    Op::Store(PhysAddr::new(a), WordMask::from_bits(bits))
                }
                _ => return Err(bad(&line)),
            };
            if parts.next().is_some() {
                return Err(bad(&line));
            }
            ops.push(op);
        }
        Ok(Trace { ops })
    }

    /// A replaying source that loops this trace forever.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (an empty loop would hang the core).
    pub fn replay(&self) -> TraceReplay {
        // sim-lint: allow(no-panic-hot-path): the simulation never replays a trace; the CLI rejects an empty trace before replaying it
        assert!(!self.is_empty(), "cannot replay an empty trace");
        TraceReplay {
            trace: self.clone(),
            pos: 0,
        }
    }
}

impl FromIterator<Op> for Trace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

/// An [`InstructionSource`] that cycles through a recorded [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Trace,
    pos: usize,
}

impl TraceReplay {
    /// Completed passes over the trace so far times trace length, plus the
    /// position inside the current pass.
    pub fn ops_replayed(&self) -> usize {
        self.pos
    }
}

impl InstructionSource for TraceReplay {
    fn next_op(&mut self) -> Op {
        let op = self.trace.ops[self.pos % self.trace.len()];
        self.pos += 1;
        op
    }

    fn snap_save_state(&self, w: &mut sim_snap::SnapWriter) {
        // The trace content is a construction parameter; its length doubles
        // as a shape check that the restoring replay loops the same trace.
        w.section("trace-replay");
        w.usize(self.trace.len());
        w.usize(self.pos);
    }

    fn snap_load_state(
        &mut self,
        r: &mut sim_snap::SnapReader<'_>,
    ) -> Result<(), sim_snap::SnapError> {
        r.section("trace-replay")?;
        let len = r.usize()?;
        if len != self.trace.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "trace length mismatch: snapshot has {len}, replay has {}",
                self.trace.len()
            )));
        }
        self.pos = r.usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gups, WorkloadGen};

    #[test]
    fn record_and_replay_match_the_source() {
        let mut original = WorkloadGen::new(gups(), 3, 0);
        let trace = Trace::record(&mut original, 500);
        assert_eq!(trace.len(), 500);
        // A fresh generator with the same seed produces the trace again.
        let mut fresh = WorkloadGen::new(gups(), 3, 0);
        let mut replay = trace.replay();
        for _ in 0..500 {
            assert_eq!(replay.next_op(), fresh.next_op());
        }
        // Replay loops.
        assert_eq!(replay.next_op(), trace.ops()[0]);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut generator = WorkloadGen::new(gups(), 9, 1 << 31);
        let trace = Trace::record(&mut generator, 300);
        let mut buffer = Vec::new();
        trace.save(&mut buffer).unwrap();
        let loaded = Trace::load(buffer.as_slice()).unwrap();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn load_skips_comments_and_blanks() {
        let text = "# a comment\n\nC 4\nL 40\nS 80 81\n";
        let trace = Trace::load(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.ops()[0], Op::Compute(4));
        assert_eq!(trace.ops()[1], Op::Load(PhysAddr::new(0x40)));
        assert_eq!(
            trace.ops()[2],
            Op::Store(PhysAddr::new(0x80), WordMask::from_bits(0x81))
        );
        assert_eq!(trace.memory_ops(), 2);
    }

    #[test]
    fn load_rejects_garbage() {
        for bad in ["X 1", "L zz", "S 40", "S 40 0", "C 1 2", "L"] {
            assert!(Trace::load(bad.as_bytes()).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn from_iterator_collects() {
        let t: Trace = [Op::Compute(1), Op::Load(PhysAddr::new(64))]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_rejected() {
        let _ = Trace::new().replay();
    }

    #[test]
    fn replay_snapshot_restores_cursor() {
        let mut generator = WorkloadGen::new(gups(), 3, 0);
        let trace = Trace::record(&mut generator, 100);
        let mut live = trace.replay();
        for _ in 0..42 {
            live.next_op();
        }
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = trace.replay();
        let mut r = sim_snap::SnapReader::new(&bytes);
        restored.snap_load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.ops_replayed(), 42);
        // Identical from here on, including across the loop boundary.
        for _ in 0..200 {
            assert_eq!(live.next_op(), restored.next_op());
        }
    }

    #[test]
    fn replay_snapshot_rejects_different_trace() {
        let mut generator = WorkloadGen::new(gups(), 3, 0);
        let live = Trace::record(&mut generator, 100).replay();
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save_state(&mut w);
        let bytes = w.into_bytes();

        let mut generator = WorkloadGen::new(gups(), 3, 0);
        let mut other = Trace::record(&mut generator, 50).replay();
        let mut r = sim_snap::SnapReader::new(&bytes);
        let err = other.snap_load_state(&mut r).unwrap_err();
        assert!(
            format!("{err}").contains("trace length mismatch"),
            "unexpected error: {err}"
        );
    }
}

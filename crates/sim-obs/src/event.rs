//! Typed trace events emitted by the simulators.
//!
//! One enum covers the whole stack so a single sink can interleave DRAM
//! command, cache and core events on a common timeline. DRAM events are
//! stamped with the *memory* cycle; cache and core events with the *CPU*
//! cycle (the CPU runs at 4x the DRAM command clock in the paper's
//! configuration — consumers should keep the two domains apart or convert).

use crate::json;

/// MATs activated by a conventional full-row activation; activations below
/// this are partial (PRA / FGA / Half-DRAM). Mirrors `dram-sim`'s geometry
/// (16 MATs per sub-array row in the paper's 2 Gb x8 DDR3 chip).
pub const FULL_ROW_MATS: u32 = 16;

/// Why a core retired nothing this cycle (mirrors `cpu-sim`'s stall
/// taxonomy without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Reorder-buffer window exhausted behind the oldest load.
    Rob,
    /// Load queue full.
    Ldq,
    /// Store buffer full.
    StoreBuffer,
}

impl StallKind {
    /// Stable lowercase name used in serialized output.
    pub fn name(self) -> &'static str {
        match self {
            StallKind::Rob => "rob",
            StallKind::Ldq => "ldq",
            StallKind::StoreBuffer => "store_buffer",
        }
    }
}

/// One timestamped simulator event.
///
/// DRAM command variants correspond one-to-one with commands placed on the
/// DDR3 command bus, so counting `Activate` events in a trace reproduces
/// `DramStats::activations` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Row activation. `mats < FULL_ROW_MATS` makes it a partial (PRA)
    /// activation; `mask` is the word coverage driving the MAT selection.
    Activate {
        /// Memory cycle the command issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank within the rank.
        bank: u8,
        /// Row opened.
        row: u32,
        /// MATs activated (1..=16).
        mats: u32,
        /// Word-coverage bitmask the activation was sized for.
        mask: u8,
    },
    /// Column read command.
    Read {
        /// Memory cycle the command issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank within the rank.
        bank: u8,
        /// Row the bank had open.
        row: u32,
    },
    /// Column write command.
    Write {
        /// Memory cycle the command issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank within the rank.
        bank: u8,
        /// Row the bank had open.
        row: u32,
    },
    /// Bank precharge (explicit, auto, idle-close or refresh-forced).
    Precharge {
        /// Memory cycle the command issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank within the rank.
        bank: u8,
    },
    /// All-bank refresh on a rank.
    Refresh {
        /// Memory cycle the command issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank refreshed.
        rank: u8,
    },
    /// Rank entered precharge power-down.
    PowerDown {
        /// Memory cycle of the transition.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank powering down.
        rank: u8,
    },
    /// Rank exited power-down (wake for a request or refresh).
    PowerUp {
        /// Memory cycle of the transition.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank waking.
        rank: u8,
    },
    /// A read request finished its data transfer and left the system.
    ReadComplete {
        /// Memory cycle the data transfer finished.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Queue-to-completion latency in memory cycles.
        latency: u64,
    },
    /// The write queue crossed its high watermark and entered drain mode.
    DrainEnter {
        /// Memory cycle drain mode began.
        cycle: u64,
        /// Channel index.
        channel: u8,
    },
    /// A demand miss filled a line from the level below.
    CacheFill {
        /// CPU cycle of the access.
        cycle: u64,
        /// Requesting core.
        core: u8,
        /// Line number filled.
        line: u64,
        /// `true` when the fill came from DRAM, `false` from L2.
        from_memory: bool,
    },
    /// A dirty line left the hierarchy toward the DRAM write queue.
    CacheWriteback {
        /// CPU cycle of the eviction.
        cycle: u64,
        /// Line number written back.
        line: u64,
        /// Dirty-word mask accompanying the writeback (FGD).
        mask: u8,
        /// `true` when generated by the Dirty-Block-Index cleaner.
        dbi: bool,
    },
    /// A core finished a fully-stalled episode (one event per contiguous
    /// run of stalled cycles, emitted when the episode ends).
    CoreStall {
        /// CPU cycle the episode started.
        cycle: u64,
        /// Stalled core.
        core: u8,
        /// Dominant resource that blocked retirement.
        reason: StallKind,
        /// Length of the episode in CPU cycles.
        cycles: u64,
    },
    /// C/A parity mismatch detected on an issued command: the DRAM
    /// blocked it and asserted the ALERT_n-style error signal.
    ParityAlert {
        /// Memory cycle the faulted command issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank the faulted command addressed.
        bank: u8,
    },
    /// The recovery pipeline scheduled a replay of a faulted command.
    CommandReplay {
        /// Memory cycle the replay was scheduled (the fault cycle).
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank held closed until the replay window opens.
        bank: u8,
        /// 1-based attempt number this replay consumes.
        attempt: u32,
    },
    /// A faulted command's retry budget ran out; the terminal fallback
    /// (full-row activation or plain reschedule) was taken.
    RecoveryExhausted {
        /// Memory cycle the budget was exhausted.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank of the exhausted command.
        bank: u8,
        /// Row of the exhausted command.
        row: u32,
    },
    /// The health scoreboard demoted a row: its activations open the full
    /// row until probation elapses.
    RowDemote {
        /// Memory cycle of the demotion.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank of the demoted row.
        bank: u8,
        /// Demoted row.
        row: u32,
    },
    /// A demoted row finished probation and was re-promoted to partial
    /// activation.
    RowPromote {
        /// Memory cycle of the promotion.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank of the promoted row.
        bank: u8,
        /// Promoted row.
        row: u32,
    },
    /// An injected mask corruption flipped an even number of bits: parity
    /// matched, the chip could not detect it, and the activation
    /// proceeded with the wrong coverage (detection-coverage escape).
    ParityEscape {
        /// Memory cycle the corrupted activation issued.
        cycle: u64,
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank of the corrupted activation.
        bank: u8,
        /// Row activated with corrupted coverage.
        row: u32,
    },
    /// One epoch of DRAM energy telemetry: the window's per-component
    /// energy deltas (rounded to whole picojoules for serialization) and
    /// the epoch-average total power.
    PowerEpoch {
        /// Memory cycle the epoch closed.
        cycle: u64,
        /// Epoch index (0-based).
        epoch: u32,
        /// Activation+precharge energy this epoch (pJ, rounded).
        act_pre_pj: u64,
        /// Read core energy this epoch (pJ, rounded).
        rd_pj: u64,
        /// Write core energy this epoch (pJ, rounded).
        wr_pj: u64,
        /// Read I/O + termination energy this epoch (pJ, rounded).
        rd_io_pj: u64,
        /// Write ODT + termination energy this epoch (pJ, rounded).
        wr_io_pj: u64,
        /// Background energy this epoch (pJ, rounded).
        bg_pj: u64,
        /// Refresh energy this epoch (pJ, rounded).
        refresh_pj: u64,
        /// Epoch-average total DRAM power (microwatts, rounded).
        total_uw: u64,
    },
    /// A checkpoint snapshot of the complete simulator state was written.
    Checkpoint {
        /// Memory cycle the state was captured at.
        cycle: u64,
        /// 0-based ordinal of this checkpoint within the run.
        seq: u32,
    },
    /// The simulation resumed from a checkpoint instead of cycle 0.
    Restore {
        /// Memory cycle the restored state was captured at.
        cycle: u64,
    },
    /// One rank's power-state residency over the epoch that just closed.
    PowerRank {
        /// Memory cycle the epoch closed.
        cycle: u64,
        /// Global rank index (channel-major).
        rank: u8,
        /// Cycles in active standby this epoch.
        act_stby: u64,
        /// Cycles in precharge standby this epoch.
        pre_stby: u64,
        /// Cycles in power-down this epoch.
        pdn: u64,
        /// Epoch-average background power of this rank (microwatts,
        /// rounded).
        bg_uw: u64,
    },
}

impl TraceEvent {
    /// Stable uppercase kind tag used in serialized output. Partial
    /// activations report `PARTIAL_ACT`, full-row ones `ACT`.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Activate { mats, .. } if *mats < FULL_ROW_MATS => "PARTIAL_ACT",
            TraceEvent::Activate { .. } => "ACT",
            TraceEvent::Read { .. } => "RD",
            TraceEvent::Write { .. } => "WR",
            TraceEvent::Precharge { .. } => "PRE",
            TraceEvent::Refresh { .. } => "REF",
            TraceEvent::PowerDown { .. } => "PDN",
            TraceEvent::PowerUp { .. } => "PUP",
            TraceEvent::ReadComplete { .. } => "RD_DONE",
            TraceEvent::DrainEnter { .. } => "DRAIN",
            TraceEvent::CacheFill { .. } => "FILL",
            TraceEvent::CacheWriteback { .. } => "WB",
            TraceEvent::CoreStall { .. } => "STALL",
            TraceEvent::ParityAlert { .. } => "ALERT",
            TraceEvent::CommandReplay { .. } => "REPLAY",
            TraceEvent::RecoveryExhausted { .. } => "EXHAUSTED",
            TraceEvent::RowDemote { .. } => "DEMOTE",
            TraceEvent::RowPromote { .. } => "PROMOTE",
            TraceEvent::ParityEscape { .. } => "ESCAPE",
            TraceEvent::PowerEpoch { .. } => "POWER_EPOCH",
            TraceEvent::PowerRank { .. } => "POWER_RANK",
            TraceEvent::Checkpoint { .. } => "CHECKPOINT",
            TraceEvent::Restore { .. } => "RESTORE",
        }
    }

    /// The event's timestamp (memory cycles for DRAM events, CPU cycles
    /// for cache/core events).
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Activate { cycle, .. }
            | TraceEvent::Read { cycle, .. }
            | TraceEvent::Write { cycle, .. }
            | TraceEvent::Precharge { cycle, .. }
            | TraceEvent::Refresh { cycle, .. }
            | TraceEvent::PowerDown { cycle, .. }
            | TraceEvent::PowerUp { cycle, .. }
            | TraceEvent::ReadComplete { cycle, .. }
            | TraceEvent::DrainEnter { cycle, .. }
            | TraceEvent::CacheFill { cycle, .. }
            | TraceEvent::CacheWriteback { cycle, .. }
            | TraceEvent::CoreStall { cycle, .. }
            | TraceEvent::ParityAlert { cycle, .. }
            | TraceEvent::CommandReplay { cycle, .. }
            | TraceEvent::RecoveryExhausted { cycle, .. }
            | TraceEvent::RowDemote { cycle, .. }
            | TraceEvent::RowPromote { cycle, .. }
            | TraceEvent::ParityEscape { cycle, .. }
            | TraceEvent::PowerEpoch { cycle, .. }
            | TraceEvent::PowerRank { cycle, .. }
            | TraceEvent::Checkpoint { cycle, .. }
            | TraceEvent::Restore { cycle } => cycle,
        }
    }

    /// Appends the event as one JSON object (no trailing newline) to `out`.
    ///
    /// The serializer is hand-rolled — every field is an integer, a bool or
    /// a static tag, so no escaping is ever needed.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let kind = self.kind();
        match *self {
            TraceEvent::Activate {
                cycle,
                channel,
                rank,
                bank,
                row,
                mats,
                mask,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank},\
                     \"bank\":{bank},\"row\":{row},\"mats\":{mats},\"mask\":{mask}}}"
                );
            }
            TraceEvent::Read {
                cycle,
                channel,
                rank,
                bank,
                row,
            }
            | TraceEvent::Write {
                cycle,
                channel,
                rank,
                bank,
                row,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank},\
                     \"bank\":{bank},\"row\":{row}}}"
                );
            }
            TraceEvent::Precharge {
                cycle,
                channel,
                rank,
                bank,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank},\
                     \"bank\":{bank}}}"
                );
            }
            TraceEvent::Refresh {
                cycle,
                channel,
                rank,
            }
            | TraceEvent::PowerDown {
                cycle,
                channel,
                rank,
            }
            | TraceEvent::PowerUp {
                cycle,
                channel,
                rank,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank}}}"
                );
            }
            TraceEvent::ReadComplete {
                cycle,
                channel,
                latency,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\
                     \"latency\":{latency}}}"
                );
            }
            TraceEvent::DrainEnter { cycle, channel } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel}}}"
                );
            }
            TraceEvent::CacheFill {
                cycle,
                core,
                line,
                from_memory,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"core\":{core},\"line\":{line},\
                     \"from_memory\":{from_memory}}}"
                );
            }
            TraceEvent::CacheWriteback {
                cycle,
                line,
                mask,
                dbi,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"line\":{line},\"mask\":{mask},\
                     \"dbi\":{dbi}}}"
                );
            }
            TraceEvent::CoreStall {
                cycle,
                core,
                reason,
                cycles,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"core\":{core},\
                     \"reason\":\"{}\",\"cycles\":{cycles}}}",
                    reason.name()
                );
            }
            TraceEvent::ParityAlert {
                cycle,
                channel,
                rank,
                bank,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank},\
                     \"bank\":{bank}}}"
                );
            }
            TraceEvent::CommandReplay {
                cycle,
                channel,
                rank,
                bank,
                attempt,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank},\
                     \"bank\":{bank},\"attempt\":{attempt}}}"
                );
            }
            TraceEvent::RecoveryExhausted {
                cycle,
                channel,
                rank,
                bank,
                row,
            }
            | TraceEvent::RowDemote {
                cycle,
                channel,
                rank,
                bank,
                row,
            }
            | TraceEvent::RowPromote {
                cycle,
                channel,
                rank,
                bank,
                row,
            }
            | TraceEvent::ParityEscape {
                cycle,
                channel,
                rank,
                bank,
                row,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"ch\":{channel},\"rank\":{rank},\
                     \"bank\":{bank},\"row\":{row}}}"
                );
            }
            TraceEvent::PowerEpoch {
                cycle,
                epoch,
                act_pre_pj,
                rd_pj,
                wr_pj,
                rd_io_pj,
                wr_io_pj,
                bg_pj,
                refresh_pj,
                total_uw,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"epoch\":{epoch},\
                     \"act_pre_pj\":{act_pre_pj},\"rd_pj\":{rd_pj},\"wr_pj\":{wr_pj},\
                     \"rd_io_pj\":{rd_io_pj},\"wr_io_pj\":{wr_io_pj},\"bg_pj\":{bg_pj},\
                     \"refresh_pj\":{refresh_pj},\"total_uw\":{total_uw}}}"
                );
            }
            TraceEvent::PowerRank {
                cycle,
                rank,
                act_stby,
                pre_stby,
                pdn,
                bg_uw,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"rank\":{rank},\
                     \"act_stby\":{act_stby},\"pre_stby\":{pre_stby},\"pdn\":{pdn},\
                     \"bg_uw\":{bg_uw}}}"
                );
            }
            TraceEvent::Checkpoint { cycle, seq } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"seq\":{seq}}}"
                );
            }
            TraceEvent::Restore { cycle } => {
                let _ = write!(out, "{{\"kind\":\"{kind}\",\"cycle\":{cycle}}}");
            }
        }
    }
}

impl TraceEvent {
    /// Parses one JSON line previously produced by
    /// [`TraceEvent::write_json`], the inverse used by trace converters
    /// (`pra trace export-perfetto --in`).
    ///
    /// Returns `None` for malformed lines and unknown kinds — a tolerant
    /// reader, so traces from newer simulator versions degrade to skipped
    /// lines rather than hard errors.
    pub fn parse_json(line: &str) -> Option<TraceEvent> {
        let kind = json::str(line, "kind")?;
        let kind = kind.as_str();
        let cycle = json::u64(line, "cycle")?;
        match kind {
            "ACT" | "PARTIAL_ACT" => Some(TraceEvent::Activate {
                cycle,
                channel: json::u64(line, "ch")? as u8,
                rank: json::u64(line, "rank")? as u8,
                bank: json::u64(line, "bank")? as u8,
                row: json::u64(line, "row")? as u32,
                mats: json::u64(line, "mats")? as u32,
                mask: json::u64(line, "mask")? as u8,
            }),
            "RD" | "WR" => {
                let channel = json::u64(line, "ch")? as u8;
                let rank = json::u64(line, "rank")? as u8;
                let bank = json::u64(line, "bank")? as u8;
                let row = json::u64(line, "row")? as u32;
                Some(if kind == "RD" {
                    TraceEvent::Read {
                        cycle,
                        channel,
                        rank,
                        bank,
                        row,
                    }
                } else {
                    TraceEvent::Write {
                        cycle,
                        channel,
                        rank,
                        bank,
                        row,
                    }
                })
            }
            "PRE" => Some(TraceEvent::Precharge {
                cycle,
                channel: json::u64(line, "ch")? as u8,
                rank: json::u64(line, "rank")? as u8,
                bank: json::u64(line, "bank")? as u8,
            }),
            "REF" | "PDN" | "PUP" => {
                let channel = json::u64(line, "ch")? as u8;
                let rank = json::u64(line, "rank")? as u8;
                Some(match kind {
                    "REF" => TraceEvent::Refresh {
                        cycle,
                        channel,
                        rank,
                    },
                    "PDN" => TraceEvent::PowerDown {
                        cycle,
                        channel,
                        rank,
                    },
                    _ => TraceEvent::PowerUp {
                        cycle,
                        channel,
                        rank,
                    },
                })
            }
            "RD_DONE" => Some(TraceEvent::ReadComplete {
                cycle,
                channel: json::u64(line, "ch")? as u8,
                latency: json::u64(line, "latency")?,
            }),
            "DRAIN" => Some(TraceEvent::DrainEnter {
                cycle,
                channel: json::u64(line, "ch")? as u8,
            }),
            "FILL" => Some(TraceEvent::CacheFill {
                cycle,
                core: json::u64(line, "core")? as u8,
                line: json::u64(line, "line")?,
                from_memory: json::bool(line, "from_memory")?,
            }),
            "WB" => Some(TraceEvent::CacheWriteback {
                cycle,
                line: json::u64(line, "line")?,
                mask: json::u64(line, "mask")? as u8,
                dbi: json::bool(line, "dbi")?,
            }),
            "STALL" => Some(TraceEvent::CoreStall {
                cycle,
                core: json::u64(line, "core")? as u8,
                reason: match json::str(line, "reason")?.as_str() {
                    "rob" => StallKind::Rob,
                    "ldq" => StallKind::Ldq,
                    "store_buffer" => StallKind::StoreBuffer,
                    _ => return None,
                },
                cycles: json::u64(line, "cycles")?,
            }),
            "ALERT" => Some(TraceEvent::ParityAlert {
                cycle,
                channel: json::u64(line, "ch")? as u8,
                rank: json::u64(line, "rank")? as u8,
                bank: json::u64(line, "bank")? as u8,
            }),
            "REPLAY" => Some(TraceEvent::CommandReplay {
                cycle,
                channel: json::u64(line, "ch")? as u8,
                rank: json::u64(line, "rank")? as u8,
                bank: json::u64(line, "bank")? as u8,
                attempt: json::u64(line, "attempt")? as u32,
            }),
            "EXHAUSTED" | "DEMOTE" | "PROMOTE" | "ESCAPE" => {
                let channel = json::u64(line, "ch")? as u8;
                let rank = json::u64(line, "rank")? as u8;
                let bank = json::u64(line, "bank")? as u8;
                let row = json::u64(line, "row")? as u32;
                Some(match kind {
                    "EXHAUSTED" => TraceEvent::RecoveryExhausted {
                        cycle,
                        channel,
                        rank,
                        bank,
                        row,
                    },
                    "DEMOTE" => TraceEvent::RowDemote {
                        cycle,
                        channel,
                        rank,
                        bank,
                        row,
                    },
                    "PROMOTE" => TraceEvent::RowPromote {
                        cycle,
                        channel,
                        rank,
                        bank,
                        row,
                    },
                    _ => TraceEvent::ParityEscape {
                        cycle,
                        channel,
                        rank,
                        bank,
                        row,
                    },
                })
            }
            "POWER_EPOCH" => Some(TraceEvent::PowerEpoch {
                cycle,
                epoch: json::u64(line, "epoch")? as u32,
                act_pre_pj: json::u64(line, "act_pre_pj")?,
                rd_pj: json::u64(line, "rd_pj")?,
                wr_pj: json::u64(line, "wr_pj")?,
                rd_io_pj: json::u64(line, "rd_io_pj")?,
                wr_io_pj: json::u64(line, "wr_io_pj")?,
                bg_pj: json::u64(line, "bg_pj")?,
                refresh_pj: json::u64(line, "refresh_pj")?,
                total_uw: json::u64(line, "total_uw")?,
            }),
            "POWER_RANK" => Some(TraceEvent::PowerRank {
                cycle,
                rank: json::u64(line, "rank")? as u8,
                act_stby: json::u64(line, "act_stby")?,
                pre_stby: json::u64(line, "pre_stby")?,
                pdn: json::u64(line, "pdn")?,
                bg_uw: json::u64(line, "bg_uw")?,
            }),
            "CHECKPOINT" => Some(TraceEvent::Checkpoint {
                cycle,
                seq: json::u64(line, "seq")? as u32,
            }),
            "RESTORE" => Some(TraceEvent::Restore { cycle }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_vs_full_activation_kind() {
        let full = TraceEvent::Activate {
            cycle: 1,
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
            mats: 16,
            mask: 0xFF,
        };
        let partial = TraceEvent::Activate {
            cycle: 1,
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
            mats: 2,
            mask: 0x03,
        };
        assert_eq!(full.kind(), "ACT");
        assert_eq!(partial.kind(), "PARTIAL_ACT");
    }

    #[test]
    fn json_shape() {
        let ev = TraceEvent::Activate {
            cycle: 42,
            channel: 1,
            rank: 0,
            bank: 3,
            row: 77,
            mats: 4,
            mask: 0x0F,
        };
        let mut s = String::new();
        ev.write_json(&mut s);
        assert_eq!(
            s,
            "{\"kind\":\"PARTIAL_ACT\",\"cycle\":42,\"ch\":1,\"rank\":0,\"bank\":3,\
             \"row\":77,\"mats\":4,\"mask\":15}"
        );
    }

    #[test]
    fn parse_json_roundtrips_every_variant() {
        let events = [
            TraceEvent::Activate {
                cycle: 42,
                channel: 1,
                rank: 0,
                bank: 3,
                row: 77,
                mats: 4,
                mask: 0x0F,
            },
            TraceEvent::Activate {
                cycle: 43,
                channel: 0,
                rank: 1,
                bank: 7,
                row: 1024,
                mats: 16,
                mask: 0xFF,
            },
            TraceEvent::Read {
                cycle: 50,
                channel: 0,
                rank: 0,
                bank: 1,
                row: 9,
            },
            TraceEvent::Write {
                cycle: 51,
                channel: 1,
                rank: 1,
                bank: 2,
                row: 10,
            },
            TraceEvent::Precharge {
                cycle: 60,
                channel: 0,
                rank: 0,
                bank: 4,
            },
            TraceEvent::Refresh {
                cycle: 70,
                channel: 0,
                rank: 1,
            },
            TraceEvent::PowerDown {
                cycle: 80,
                channel: 0,
                rank: 0,
            },
            TraceEvent::PowerUp {
                cycle: 90,
                channel: 0,
                rank: 0,
            },
            TraceEvent::ReadComplete {
                cycle: 100,
                channel: 1,
                latency: 37,
            },
            TraceEvent::DrainEnter {
                cycle: 110,
                channel: 0,
            },
            TraceEvent::CacheFill {
                cycle: 120,
                core: 2,
                line: 555,
                from_memory: true,
            },
            TraceEvent::CacheWriteback {
                cycle: 130,
                line: 556,
                mask: 0x3C,
                dbi: false,
            },
            TraceEvent::CoreStall {
                cycle: 140,
                core: 3,
                reason: StallKind::StoreBuffer,
                cycles: 12,
            },
            TraceEvent::ParityAlert {
                cycle: 150,
                channel: 0,
                rank: 1,
                bank: 5,
            },
            TraceEvent::CommandReplay {
                cycle: 151,
                channel: 0,
                rank: 1,
                bank: 5,
                attempt: 2,
            },
            TraceEvent::RecoveryExhausted {
                cycle: 160,
                channel: 1,
                rank: 0,
                bank: 2,
                row: 99,
            },
            TraceEvent::RowDemote {
                cycle: 161,
                channel: 1,
                rank: 0,
                bank: 2,
                row: 99,
            },
            TraceEvent::RowPromote {
                cycle: 170,
                channel: 1,
                rank: 0,
                bank: 2,
                row: 99,
            },
            TraceEvent::ParityEscape {
                cycle: 180,
                channel: 0,
                rank: 0,
                bank: 7,
                row: 12,
            },
            TraceEvent::PowerEpoch {
                cycle: 200_000,
                epoch: 3,
                act_pre_pj: 12_345,
                rd_pj: 678,
                wr_pj: 90,
                rd_io_pj: 11,
                wr_io_pj: 22,
                bg_pj: 33_000,
                refresh_pj: 4_400,
                total_uw: 123_456,
            },
            TraceEvent::PowerRank {
                cycle: 200_000,
                rank: 1,
                act_stby: 60_000,
                pre_stby: 30_000,
                pdn: 10_000,
                bg_uw: 55_000,
            },
            TraceEvent::Checkpoint {
                cycle: 250_000,
                seq: 2,
            },
            TraceEvent::Restore { cycle: 250_000 },
        ];
        for ev in events {
            let mut line = String::new();
            ev.write_json(&mut line);
            let parsed = TraceEvent::parse_json(&line);
            assert_eq!(parsed, Some(ev), "roundtrip failed for {line}");
        }
    }

    #[test]
    fn parse_json_rejects_malformed_lines() {
        for bad in [
            "",
            "not json",
            "{\"kind\":\"NOPE\",\"cycle\":1}",
            "{\"kind\":\"ACT\",\"cycle\":1}",
            "{\"cycle\":5}",
            "{\"kind\":\"STALL\",\"cycle\":1,\"core\":0,\"reason\":\"coffee\",\"cycles\":2}",
        ] {
            assert_eq!(TraceEvent::parse_json(bad), None, "accepted: {bad}");
        }
    }

    #[test]
    fn cycle_accessor_covers_all_variants() {
        let evs = [
            TraceEvent::Refresh {
                cycle: 5,
                channel: 0,
                rank: 1,
            },
            TraceEvent::DrainEnter {
                cycle: 6,
                channel: 0,
            },
            TraceEvent::CoreStall {
                cycle: 7,
                core: 0,
                reason: StallKind::Rob,
                cycles: 3,
            },
        ];
        assert_eq!(
            evs.iter().map(TraceEvent::cycle).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
    }
}

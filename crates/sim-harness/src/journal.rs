//! The append-only campaign journal.
//!
//! One JSON line per completed run, flushed as each run finishes, so a
//! killed campaign loses at most the in-flight runs. Loading is tolerant:
//! a malformed or truncated trailing line (the artifact of killing the
//! process mid-write) is dropped and counted, never fatal — the affected
//! run simply re-executes on resume.

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use sim_obs::json;

/// How a journaled run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The simulation completed and produced a report.
    Ok,
    /// The simulation completed, but only because the recovery pipeline
    /// engaged: at least one parity alert fired and was replayed or
    /// degraded. Counts as success for [`crate::CampaignSummary`]
    /// purposes, but is reported separately so fault campaigns can assert
    /// the pipeline actually ran.
    Recovered,
    /// The run panicked or returned a non-liveness error.
    Failed,
    /// A liveness watchdog (or the protocol checker) tripped mid-run.
    Hung,
}

impl RunStatus {
    /// The journal's string encoding of this status.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Recovered => "recovered",
            RunStatus::Failed => "failed",
            RunStatus::Hung => "hung",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "recovered" => Some(RunStatus::Recovered),
            "failed" => Some(RunStatus::Failed),
            "hung" => Some(RunStatus::Hung),
            _ => None,
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journaled run: identity, outcome and enough context to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// [`crate::CampaignRun::config_digest`] of the run (seed excluded).
    pub config_digest: u64,
    /// Workload RNG seed of the run.
    pub seed: u64,
    /// How the run ended.
    pub status: RunStatus,
    /// Scheme name, for human-readable reports.
    pub scheme: String,
    /// Workload name, for human-readable reports.
    pub workload: String,
    /// CPU cycles the run simulated (0 for failed/hung runs).
    pub cycles: u64,
    /// Host wall-clock nanoseconds the run took to execute (build + run,
    /// measured around the panic-isolation boundary). 0 when the record
    /// predates this field — old journals parse fine.
    pub host_nanos: u64,
    /// Total DRAM energy of a successful run in whole picojoules
    /// (`Report::energy.total().round()`). 0 for failed/hung runs and for
    /// records that predate power telemetry.
    pub energy_pj: u64,
    /// Average DRAM power of a successful run in whole milliwatts
    /// (`Report::power.total().round()`). 0 for failed/hung runs and old
    /// records.
    pub avg_power_mw: u64,
    /// Memory cycle this run was restored from before executing (0 when it
    /// ran from cycle 0). Non-zero means the harness found a valid
    /// checkpoint from an earlier killed or failed attempt and resumed the
    /// simulation mid-flight instead of repeating the prefix.
    pub resumed_from_cycle: u64,
    /// [`pra_core::Report::state_digest`] of a successful run.
    pub state_digest: Option<u64>,
    /// Failure detail: panic payload or error message (empty when ok).
    pub detail: String,
    /// Copy-pasteable reproduction command.
    pub repro: String,
}

impl JournalRecord {
    /// Serialises the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"config\":\"{:016x}\",\"seed\":{},\"status\":\"{}\",\"scheme\":\"{}\",\
             \"workload\":\"{}\",\"cycles\":{},\"host_nanos\":{},\
             \"energy_pj\":{},\"avg_power_mw\":{},\"resumed_from_cycle\":{}",
            self.config_digest,
            self.seed,
            self.status,
            json::escape(&self.scheme),
            json::escape(&self.workload),
            self.cycles,
            self.host_nanos,
            self.energy_pj,
            self.avg_power_mw,
            self.resumed_from_cycle,
        );
        if let Some(digest) = self.state_digest {
            line.push_str(&format!(",\"state_digest\":\"{digest:016x}\""));
        }
        line.push_str(&format!(
            ",\"detail\":\"{}\",\"repro\":\"{}\"}}",
            json::escape(&self.detail),
            json::escape(&self.repro)
        ));
        line
    }

    /// Parses one journal line; `None` for malformed or truncated input.
    pub fn parse(line: &str) -> Option<Self> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(JournalRecord {
            config_digest: u64::from_str_radix(&json::str(line, "config")?, 16).ok()?,
            seed: json::u64(line, "seed")?,
            status: RunStatus::from_str(&json::str(line, "status")?)?,
            scheme: json::str(line, "scheme")?,
            workload: json::str(line, "workload")?,
            cycles: json::u64(line, "cycles")?,
            // Absent in journals written before host timing existed.
            host_nanos: json::u64(line, "host_nanos").unwrap_or(0),
            // Absent in journals written before power telemetry existed.
            energy_pj: json::u64(line, "energy_pj").unwrap_or(0),
            avg_power_mw: json::u64(line, "avg_power_mw").unwrap_or(0),
            // Absent in journals written before checkpoint recovery existed.
            resumed_from_cycle: json::u64(line, "resumed_from_cycle").unwrap_or(0),
            state_digest: match json::str(line, "state_digest") {
                Some(s) => Some(u64::from_str_radix(&s, 16).ok()?),
                None => None,
            },
            detail: json::str(line, "detail")?,
            repro: json::str(line, "repro")?,
        })
    }

    /// Simulated CPU cycles per host second (0 when nothing was timed).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            return 0.0;
        }
        self.cycles as f64 * 1e9 / self.host_nanos as f64
    }

    /// This run's row in a "slowest runs" table.
    pub fn timing_row(&self) -> String {
        format!(
            "  {:>9.3} s  [{}] {}/{} seed {} ({:.0} cycles/s)",
            self.host_nanos as f64 / 1e9,
            self.status,
            self.scheme,
            self.workload,
            self.seed,
            self.cycles_per_sec(),
        )
    }

    /// Two lines for a failed or hung run: what went wrong, and the repro.
    pub fn failure_report(&self) -> String {
        format!(
            "[{}] {}/{} seed {} (config {:016x}): {}\n  repro: {}",
            self.status,
            self.scheme,
            self.workload,
            self.seed,
            self.config_digest,
            self.detail,
            self.repro
        )
    }

    /// The resume key: a run is "already done" when its (config, seed)
    /// pair appears in the journal, whatever its status — failed runs are
    /// not silently retried.
    pub fn key(&self) -> (u64, u64) {
        (self.config_digest, self.seed)
    }
}

/// A journal read back from disk.
#[derive(Debug, Clone, Default)]
pub struct LoadedJournal {
    /// Every well-formed record, in file order.
    pub records: Vec<JournalRecord>,
    /// Lines that failed to parse (typically a truncated tail after a
    /// mid-write kill) — dropped, their runs will re-execute on resume.
    pub dropped_lines: usize,
}

impl LoadedJournal {
    /// The set of (config-digest, seed) pairs already journaled.
    pub fn completed_keys(&self) -> HashSet<(u64, u64)> {
        self.records.iter().map(JournalRecord::key).collect()
    }
}

/// Reads a journal, tolerating malformed lines.
///
/// # Errors
///
/// Only on I/O failure; parse failures are counted in
/// [`LoadedJournal::dropped_lines`] instead.
pub fn load_journal(path: &Path) -> io::Result<LoadedJournal> {
    let text = std::fs::read_to_string(path)?;
    let mut loaded = LoadedJournal::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match JournalRecord::parse(line) {
            Some(record) => loaded.records.push(record),
            None => loaded.dropped_lines += 1,
        }
    }
    Ok(loaded)
}

/// An append-only journal writer: one flushed JSON line per record.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it (and nothing else) when
    /// missing. If the existing file ends mid-line (a kill landed inside a
    /// write), a newline is emitted first so the stranded fragment cannot
    /// merge with — and masquerade as — the next record.
    ///
    /// # Errors
    ///
    /// Any underlying [`io::Error`].
    pub fn open_append(path: &Path) -> io::Result<Self> {
        use std::io::{Read, Seek, SeekFrom};
        let needs_newline = match File::open(path) {
            Ok(mut file) => {
                if file.metadata()?.len() == 0 {
                    false
                } else {
                    file.seek(SeekFrom::End(-1))?;
                    let mut last = [0u8; 1];
                    file.read_exact(&mut last)?;
                    last[0] != b'\n'
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = BufWriter::new(file);
        if needs_newline {
            out.write_all(b"\n")?;
            out.flush()?;
        }
        Ok(JournalWriter { out })
    }

    /// Appends one record and flushes, so a kill right after loses
    /// nothing.
    ///
    /// # Errors
    ///
    /// Any underlying [`io::Error`].
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        writeln!(self.out, "{}", record.to_json_line())?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, status: RunStatus) -> JournalRecord {
        JournalRecord {
            config_digest: 0xdead_beef_0123_4567,
            seed,
            status,
            scheme: "PRA".to_string(),
            workload: "GUPS".to_string(),
            cycles: if status == RunStatus::Ok { 12_345 } else { 0 },
            host_nanos: 987_654_321,
            energy_pj: if status == RunStatus::Ok {
                55_123_456
            } else {
                0
            },
            avg_power_mw: if status == RunStatus::Ok { 1_234 } else { 0 },
            resumed_from_cycle: if status == RunStatus::Ok { 48_000 } else { 0 },
            state_digest: (status == RunStatus::Ok).then_some(0xabcd),
            detail: if status == RunStatus::Ok {
                String::new()
            } else {
                "panicked: \"quoted\"\nsecond line".to_string()
            },
            repro: "pra run --scheme pra --workload GUPS --seed 1".to_string(),
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        for status in [
            RunStatus::Ok,
            RunStatus::Recovered,
            RunStatus::Failed,
            RunStatus::Hung,
        ] {
            let r = record(7, status);
            let parsed = JournalRecord::parse(&r.to_json_line()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn journals_without_host_nanos_still_parse() {
        // A line as written before the host_nanos field existed.
        let old = "{\"config\":\"00000000deadbeef\",\"seed\":3,\"status\":\"ok\",\
                   \"scheme\":\"PRA\",\"workload\":\"GUPS\",\"cycles\":42,\
                   \"state_digest\":\"000000000000abcd\",\"detail\":\"\",\"repro\":\"pra run\"}";
        let parsed = JournalRecord::parse(old).unwrap();
        assert_eq!(parsed.host_nanos, 0);
        assert_eq!(parsed.cycles, 42);
    }

    #[test]
    fn power_fields_default_to_zero_on_old_journals() {
        // A line as written before the energy/power fields existed.
        let old = "{\"config\":\"00000000deadbeef\",\"seed\":4,\"status\":\"ok\",\
                   \"scheme\":\"PRA\",\"workload\":\"GUPS\",\"cycles\":42,\"host_nanos\":7,\
                   \"state_digest\":\"000000000000abcd\",\"detail\":\"\",\"repro\":\"pra run\"}";
        let parsed = JournalRecord::parse(old).unwrap();
        assert_eq!(parsed.energy_pj, 0);
        assert_eq!(parsed.avg_power_mw, 0);
        // And the new encoding round-trips them.
        let r = record(5, RunStatus::Ok);
        let parsed = JournalRecord::parse(&r.to_json_line()).unwrap();
        assert_eq!(parsed.energy_pj, 55_123_456);
        assert_eq!(parsed.avg_power_mw, 1_234);
    }

    #[test]
    fn truncated_and_garbage_lines_are_dropped_not_fatal() {
        let dir = std::env::temp_dir().join("sim_harness_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.jsonl");
        let good = record(1, RunStatus::Ok).to_json_line();
        let half = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}\nnot json\n{half}")).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.dropped_lines, 2);
        assert!(loaded
            .completed_keys()
            .contains(&(0xdead_beef_0123_4567, 1)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resumed_from_cycle_roundtrips_and_defaults_to_zero() {
        let r = record(6, RunStatus::Ok);
        let parsed = JournalRecord::parse(&r.to_json_line()).unwrap();
        assert_eq!(parsed.resumed_from_cycle, 48_000);
        // A journal written before checkpoint recovery existed.
        let old = "{\"config\":\"00000000deadbeef\",\"seed\":4,\"status\":\"ok\",\
                   \"scheme\":\"PRA\",\"workload\":\"GUPS\",\"cycles\":42,\
                   \"detail\":\"\",\"repro\":\"pra run\"}";
        assert_eq!(JournalRecord::parse(old).unwrap().resumed_from_cycle, 0);
    }

    #[test]
    fn unknown_status_and_non_objects_are_rejected() {
        // Field-level fuzzing lives with the reader in `sim_obs::json`;
        // these are the record-level checks on top of it.
        let line = record(1, RunStatus::Ok)
            .to_json_line()
            .replace("\"status\":\"ok\"", "\"status\":\"exploded\"");
        assert!(JournalRecord::parse(&line).is_none());
        let line = record(1, RunStatus::Ok)
            .to_json_line()
            .replace("\"seed\":1", "\"seed\":-5");
        assert!(JournalRecord::parse(&line).is_none());
        assert!(JournalRecord::parse("{\"config\":\"00ff").is_none());
        assert!(JournalRecord::parse("[1,2,3]").is_none());
        assert!(JournalRecord::parse("").is_none());
    }

    #[test]
    fn journal_full_of_garbage_loads_with_every_line_counted() {
        let dir = std::env::temp_dir().join("sim_harness_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        let good = record(3, RunStatus::Ok).to_json_line();
        let mut text = String::new();
        for i in 0..50 {
            text.push_str(&format!("garbage line {i} \u{fffd}\t{{{{\n"));
        }
        text.push_str(&good);
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.dropped_lines, 50);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_appends_without_rewriting() {
        let dir = std::env::temp_dir().join("sim_harness_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.append(&record(1, RunStatus::Ok)).unwrap();
        }
        let first_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.append(&record(2, RunStatus::Hung)).unwrap();
        }
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert!(std::fs::metadata(&path).unwrap().len() > first_len);
        assert_eq!(loaded.records[0].seed, 1, "append must not rewrite");
        std::fs::remove_file(&path).unwrap();
    }
}

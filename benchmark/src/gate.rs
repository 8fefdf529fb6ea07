//! The correctness gate: every simulation the benchmark runs must give the
//! recorded (or, without a record, the first) answer.

use pra_core::Report;

/// Tally of checked simulation runs.
#[derive(Debug, Default)]
pub struct Gate {
    expected: Option<Vec<u64>>,
    /// Simulation runs checked.
    pub attempted: u64,
    /// Runs that returned an error, panicked, timed out or gave another
    /// `state_digest` than expected.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Gate {
    /// A gate expecting these digests, in report order. Without them the
    /// first successful run sets the expectation, so later runs must agree
    /// with it.
    pub fn expecting(expected: Option<Vec<u64>>) -> Self {
        Gate {
            expected,
            ..Gate::default()
        }
    }

    /// Checks one repetition's reports; `true` if every one passed.
    pub fn check(&mut self, what: &str, run: &Result<Vec<Report>, String>) -> bool {
        let reports = match run {
            Ok(reports) => reports,
            Err(e) => {
                let lost = self.expected.as_ref().map_or(1, Vec::len) as u64;
                self.attempted += lost;
                self.fail(lost, format!("{what}: {e}"));
                return false;
            }
        };
        let digests: Vec<u64> = reports.iter().map(Report::state_digest).collect();
        let expected = self.expected.get_or_insert_with(|| digests.clone());
        let runs = digests.len().max(expected.len());
        let mut bad = 0;
        for i in 0..runs {
            let (got, want) = (digests.get(i), expected.get(i));
            let timed_out = reports.get(i).is_some_and(|r| r.timed_out);
            if got != want || timed_out {
                bad += 1;
                let got = got.map_or("none".to_string(), |d| format!("{d:#018x}"));
                let want = want.map_or("none".to_string(), |d| format!("{d:#018x}"));
                self.errors.push(format!(
                    "{what}, report {i}: digest {got}, expected {want}{}",
                    if timed_out { ", timed out" } else { "" }
                ));
            }
        }
        self.attempted += runs as u64;
        self.failed += bad;
        bad == 0
    }

    fn fail(&mut self, runs: u64, message: String) {
        self.failed += runs;
        self.errors.push(message);
    }

    /// Adds another gate's tally to this one.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

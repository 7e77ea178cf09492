//! Output checks. A simulated run is correct when it met its job quota
//! and its digest equals the reference: the digest pinned in
//! `golden.txt` for this workload and seed, or else the first run of
//! the process. Traced, telemetry-off and repeated runs must all
//! reproduce it, because neither an observer nor a repetition may change
//! what the simulator computes.

use astriflash_core::RunReport;
use astriflash_stats::Phase;

/// Digests pinned at full scale, one `workload seed digest` per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// FNV-1a over everything a speed-only change must leave alone: the
/// rendered report, the kernel's event count and the per-phase miss
/// latency percentiles.
pub fn digest(report: &RunReport) -> u64 {
    let mut text = report.render();
    text.push_str(&format!("events {}\n", report.events_processed));
    for phase in Phase::all() {
        text.push_str(&format!(
            "{} {:?}\n",
            phase.label(),
            report.phase_percentiles(phase)
        ));
    }
    fnv1a(text.as_bytes(), FNV_OFFSET)
}

/// Folds per-run digests, in order, into one digest.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(&d.to_le_bytes(), h))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned digest for `workload` at `seed`, if there is one.
pub fn golden(workload: &str, seed: u64) -> Option<u64> {
    parse_golden(GOLDEN, workload, seed)
}

fn parse_golden(text: &str, workload: &str, seed: u64) -> Option<u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse() == Ok(seed))
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
}

/// Tracks attempted and failed simulated runs against one reference
/// digest.
#[derive(Debug)]
pub struct Checker {
    reference: Option<u64>,
    pinned: bool,
    /// Simulated runs checked.
    pub attempted: u64,
    /// Simulated runs that failed a check.
    pub failed: u64,
    /// One line per failed run.
    pub errors: Vec<String>,
}

impl Checker {
    /// A checker whose reference is the pinned digest when one exists.
    pub fn new(pinned: Option<u64>) -> Self {
        Checker {
            reference: pinned,
            pinned: pinned.is_some(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// The digest every run is held to, once known.
    pub fn reference(&self) -> Option<u64> {
        self.reference
    }

    /// Whether the reference came from `golden.txt`.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Checks `digest` against the reference (adopting it if there is
    /// none yet). Returns the failure, if any, without recording it.
    pub fn digest_problem(&mut self, digest: u64) -> Option<String> {
        match self.reference {
            None => {
                self.reference = Some(digest);
                None
            }
            Some(r) if r != digest => Some(format!(
                "digest {digest:016x} differs from the {} digest {r:016x}",
                if self.pinned { "pinned" } else { "first run's" }
            )),
            Some(_) => None,
        }
    }

    /// Records `n` simulated runs, of which those with a problem failed.
    pub fn record(&mut self, label: &str, n: u64, problems: Vec<String>) {
        self.attempted += n;
        if !problems.is_empty() {
            self.failed += n;
            self.errors
                .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }
}

/// Problems a single finished run can show on its own: a missed job
/// quota (a closed-loop run that hit the time cap) or dropped telemetry
/// windows.
pub fn run_problems(report: &RunReport, expected_jobs: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if report.jobs_completed != expected_jobs {
        problems.push(format!(
            "measured {} jobs, expected {expected_jobs} (time cap hit)",
            report.jobs_completed
        ));
    }
    if let Some(t) = &report.telemetry {
        if t.dropped() > 0 {
            problems.push(format!("telemetry dropped {} windows", t.dropped()));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lookup_matches_workload_and_seed() {
        let text = "# comment\nfig9_sweep 1 00ff\n\ntatp_steady 2 abcdef0123456789\n";
        assert_eq!(parse_golden(text, "fig9_sweep", 1), Some(0xff));
        assert_eq!(
            parse_golden(text, "tatp_steady", 2),
            Some(0xabcd_ef01_2345_6789)
        );
        assert_eq!(parse_golden(text, "tatp_steady", 1), None);
        assert_eq!(parse_golden(text, "hashtable_dram", 1), None);
    }

    #[test]
    fn every_workload_is_pinned_at_seeds_one_and_two() {
        for w in crate::workloads::Workload::all() {
            for seed in [1, 2] {
                assert!(golden(w.name(), seed).is_some(), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn checker_adopts_the_first_digest_then_holds_runs_to_it() {
        let mut c = Checker::new(None);
        assert_eq!(c.digest_problem(7), None);
        assert_eq!(c.digest_problem(7), None);
        assert!(c.digest_problem(8).is_some());
        let mut pinned = Checker::new(Some(9));
        assert!(pinned.digest_problem(7).unwrap().contains("pinned"));
    }

    #[test]
    fn record_counts_failed_runs() {
        let mut c = Checker::new(None);
        c.record("pass 1", 49, Vec::new());
        c.record("rep 2", 1, vec!["panicked".into()]);
        assert_eq!((c.attempted, c.failed), (50, 1));
        assert_eq!(c.errors, vec!["rep 2: panicked".to_string()]);
    }

    #[test]
    fn combine_depends_on_order() {
        assert_ne!(combine([1, 2]), combine([2, 1]));
        assert_eq!(combine([1, 2]), combine(vec![1, 2]));
    }
}

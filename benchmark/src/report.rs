//! What one benchmark run prints: every metric by name with its unit,
//! the output checks, and the closing one-line JSON result.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How the value was obtained (statistic, sample count, raw range).
    pub note: String,
}

/// How a run condenses the samples of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The middle sample.
    Median,
    /// The fastest time.
    Min,
    /// The fastest rate.
    Max,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulated runs started.
    pub attempted: u64,
    /// Simulated runs that panicked or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Informational lines (digests, accuracy against the paper).
    pub notes: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric with no sampling note.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    /// Records a metric with a sampling note for the human-readable lines.
    pub fn push_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Records `stat` of `samples` times `factor` (a calibration scale,
    /// or 1), noting the raw count, median, min and max.
    pub fn push_stat(
        &mut self,
        name: &str,
        samples: &[f64],
        unit: &'static str,
        stat: Stat,
        factor: f64,
    ) {
        if samples.is_empty() {
            // Every run failed; the failure is already recorded.
            self.push_noted(name, 0.0, unit, "no successful run".into());
            return;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mid = crate::summary::median(samples);
        let (label, raw) = match stat {
            Stat::Median => ("median", mid),
            Stat::Min => ("min", min),
            Stat::Max => ("max", max),
        };
        let note = format!(
            "{label} of {} x {factor:.4}; raw median {mid:.6}, min {min:.6}, max {max:.6}",
            samples.len()
        );
        self.push_noted(name, raw * factor, unit, note);
    }

    /// Whether every simulated run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Human-readable lines: metrics, then check results.
    pub fn render_text(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(
                out,
                "  {:<width$}  {:>16} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED: {e}");
        }
        let _ = writeln!(
            out,
            "  checks: {} of {} simulated runs failed",
            self.failed, self.attempted
        );
        out
    }

    /// The closing result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric as `{"value": …, "unit": …}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Shortest round-trip decimal form, so every measured digit survives.
/// JSON has no NaN or infinity; those become 0 (they arise only from an
/// empty denominator, which a failed check already reports).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.push("wall_s", 1.25, "s");
        o.push("peak_rss_mb", 512.5, "MB");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 512.5, \"unit\": \"MB\"}}}"
        );
        let doc = astriflash_analyze::parse(&o.to_json()).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(4));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        o.errors.push("rep 2: digest differs".into());
        assert!(!o.correct());
        assert!(o.to_json().starts_with("{\"correct\": false"));
        assert!(o.render_text().contains("FAILED: rep 2"));
    }

    #[test]
    fn numbers_keep_all_digits_and_stay_valid_json() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(1e21), "1e21");
    }
}

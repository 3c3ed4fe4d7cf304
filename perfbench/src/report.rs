//! Result bookkeeping: latency samples with their median and tail,
//! op tallies, named metrics, and the final JSON line.

use std::fmt::Write as _;

/// Latency samples of one kind of op, in milliseconds. A failed op is
/// recorded as `+inf`, so it misses every latency limit.
#[derive(Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count),
    /// or `None` without samples.
    pub fn median(&self) -> Option<f64> {
        median_of(&self.ms)
    }

    /// The highest of p99.9/p99/p95/p90/p75 that still has at least
    /// ten samples beyond it, as `(percentile, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        // Percentiles in tenths, so the rank arithmetic stays exact.
        [999usize, 990, 950, 900, 750].into_iter().find_map(|p| {
            // Nearest rank.
            let rank = (p * n).div_ceil(1000).max(1);
            (n - rank >= 10)
                .then(|| v.get(rank - 1).map(|&x| (p as f64 / 10.0, x)))
                .flatten()
        })
    }

    /// One human-readable line: median, tail, and sample count.
    pub fn describe(&self, what: &str) -> String {
        let median = self
            .median()
            .map_or_else(|| "-".to_string(), |m| format!("{m:.3} ms"));
        let tail = self.tail().map_or_else(
            || "no tail (fewer than 20 samples)".to_string(),
            |(p, x)| format!("p{p} {x:.3} ms"),
        );
        format!("{what}: p50 {median}, {tail}, n={}", self.len())
    }
}

/// The median of a slice (mean of the two middle values for an even
/// count).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v.get(n / 2 - 1)? + v.get(n / 2)?) / 2.0),
    }
}

/// Ops attempted and failed in the timed phase, with the first few
/// failure messages kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: &str, msg: &str) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(format!("{what}: {msg}"));
        }
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Everything one run produces.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Failed correctness checks, by description.
    pub check_failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Report lines printed above the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.check_failures.push(format!("{what}: {e}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The final result line. A failed check counts as a failed op.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let failed = self.tally.failed + self.check_failures.len() as u64;
        let attempted = self.tally.attempted.max(1) + self.check_failures.len() as u64;
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.correct()
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

/// Restarts the peak resident set (`VmHWM`) from the current resident
/// set, so that what came before no longer counts.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.median(), Some(50.5));
        // 100 samples: p90 is the highest with >= 10 beyond it.
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        s.push_failed();
        assert_eq!(s.median(), Some(51.0));
    }

    #[test]
    fn json_counts_failed_checks() {
        let mut o = Outcome::default();
        o.tally.attempted = 10;
        o.end_to_end.push(Metric::new("setup_s", "s", 0.25));
        o.check("x", Err("bad".into()));
        assert_eq!(
            o.json(false),
            "{\"correct\": false, \"attempted\": 11, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}

//! The result line every run ends with, plus the process-wide numbers all
//! workloads share.

use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's outputs are not correct; empty when they are.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    /// Workload-specific figures under the names a reader of that workload
    /// looks for, printed on a line of their own before the result.
    detail: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn detail(&mut self, name: &str, value: impl std::fmt::Display) {
        self.detail.push((name.to_string(), value.to_string()));
    }

    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    /// Checks an invariant of the run; a broken one makes it incorrect.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.error(message());
        }
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    /// Takes `other`'s metrics in place of this report's.
    pub fn replace_metrics(&mut self, other: Report) {
        self.metrics = other.metrics;
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The detail line.
    pub fn detail_line(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.detail.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", json_string(k), v);
        }
        s.push('}');
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&mut self) -> String {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.errors
                    .push(format!("metric {name} is not a finite number"));
            }
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives it.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms_p50", 1.25, "ms");
        r.metric("count", 2.0, "count");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        r.metric("bad", f64::NAN, "ms");
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}

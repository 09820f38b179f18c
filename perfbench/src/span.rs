//! Spans recorded from the benchmark's own code around calls into each
//! layer, kept in memory, and their self-time arithmetic.

use std::time::Instant;

/// One timed interval, in nanoseconds since the log's origin. `parent` is
/// the index of the span that caused it; spans of one operation share `op`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log. When disabled, `enter`/`exit` do no work, so the
/// untraced runs pay one branch per span site.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`usize::MAX` when disabled).
    pub fn enter(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, index: usize) {
        if index == usize::MAX {
            return;
        }
        let now = self.now_ns();
        self.spans[index].end_ns = now;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times in microseconds of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        self_times_ns(&self.spans)
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| ns as f64 / 1e3)
            .collect()
    }
}

/// Every span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans[p];
            let clipped = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if clipped.0 < clipped.1 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let (mut union, mut cursor) = (0, span.start_ns);
            for (a, b) in covered {
                let a = a.max(cursor);
                if b > a {
                    union += b - a;
                    cursor = b;
                }
            }
            span.duration_ns() - union
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("load", None, 0, 100),
            span("decode", Some(0), 10, 30),
            span("instantiate", Some(0), 30, 80),
            // A grandchild does not count against the root.
            span("build", Some(2), 35, 75),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 100 - 20 - 50);
        assert_eq!(self_ns[2], 50 - 40);
        assert_eq!(self_ns[3], 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped_and_merged() {
        let spans = vec![
            span("batch", None, 100, 200),
            span("worker", Some(0), 90, 150),
            span("worker", Some(0), 120, 170),
            span("worker", Some(0), 190, 260),
        ];
        // Covered: [100, 170) and [190, 200) = 80 of 100.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let s = log.enter("x", 0, None);
        log.exit(s);
        assert!(log.spans().is_empty());
        log.set_enabled(true);
        let s = log.enter("x", 1, None);
        log.exit(s);
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.self_times_us("x").len(), 1);
    }
}

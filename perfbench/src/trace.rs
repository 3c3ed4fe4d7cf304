//! An in-memory span recorder for the traced run. Spans are pushed
//! into a `Vec` as they close and written out as Chrome-trace JSON
//! when the run ends. A span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The op (client request) this span belongs to; `0` for spans
    /// outside any op.
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A span that has been entered but not yet exited.
#[must_use]
pub struct Open {
    index: usize,
    started: Instant,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Time spent inside the recorder itself: the tracing overhead
    /// the traced run adds to whichever thread records.
    cost_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            cost_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let t = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.stack.last().copied(),
            start_ns: nanos(t.duration_since(self.origin)),
            dur_ns: 0,
        });
        self.stack.push(index);
        let started = Instant::now();
        self.cost_ns += nanos(started.duration_since(t));
        Some(Open { index, started })
    }

    pub fn exit(&mut self, open: Option<Open>) {
        let Some(open) = open else {
            return;
        };
        let t = Instant::now();
        if let Some(span) = self.spans.get_mut(open.index) {
            span.dur_ns = nanos(t.duration_since(open.started));
        }
        if self.stack.last() == Some(&open.index) {
            self.stack.pop();
        }
        self.cost_ns += nanos(t.elapsed());
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let out = f();
        self.exit(open);
        out
    }

    pub fn cost_ns(&self) -> u64 {
        self.cost_ns
    }

    /// Self time per span, in recording order.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Summed self time and span count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        out
    }

    /// Summed self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_time_by_name()
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    }

    /// Median self time of the spans named `name`, in nanoseconds.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect();
        crate::report::median_of(&values).unwrap_or(0.0)
    }

    /// Writes every span as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto), with the op id and self time in each event's args.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"req\": {}, \
                 \"self_us\": {:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.req,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", 1);
        r.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(outer);
        let by_name = r.self_time_by_name();
        let (outer_self, _) = by_name["outer"];
        let (inner_self, n) = by_name["inner"];
        assert_eq!(n, 1);
        assert!(inner_self >= 2_000_000);
        assert!(outer_self < inner_self);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut r = Recorder::new(false);
        r.time("x", 1, || ());
        assert!(r.self_time_by_name().is_empty());
    }
}

//! In-memory spans recorded around calls into each layer.
//!
//! A span is a named interval with a parent and a run id (the traced
//! repetition it belongs to). Spans stay in memory while the benchmark
//! runs and are written out once at the end, so recording one costs two
//! clock reads and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `cluster.server`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Traced repetition this span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store with a monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    run: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            run: 0,
        }
    }

    /// Tags spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the origin to `t` (0 if `t` is earlier).
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, start, end);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of spans named `name` in run `run`.
    #[must_use]
    pub fn total_ns(&self, name: &str, run: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count
    /// once; a child sticking out of its parent counts only inside it).
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Sum of the self times of spans named `name` in run `run`.
    #[must_use]
    pub fn self_total_ns(&self, name: &str, run: u32) -> u64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.run == run && s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// All spans as JSON lines: a header object naming the fields, then
    /// one array `[id, name, start_ns, end_ns, parent, run]` per span
    /// (`parent` is `null` for a root).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        out.push_str(
            "{\"span_fields\": [\"id\", \"name\", \"start_ns\", \"end_ns\", \"parent\", \"run\"]}\n",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "[{id},\"{}\",{},{},{parent},{}]",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

/// Median cost of reading the clock twice, subtracted from per-call
/// timings of sub-microsecond operations.
#[must_use]
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| Instant::now().elapsed().as_nanos() as f64)
        .collect();
    crate::stats::percentile(&mut v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = Tracer::new();
        let root = t.record("root", None, 0, 100);
        let a = t.record("a", Some(root), 10, 40);
        // Overlaps `a`: the union [10, 50) is covered, not 30 + 20.
        t.record("b", Some(root), 30, 50);
        // Grandchild: covers part of `a`, not of `root` directly.
        t.record("c", Some(a), 15, 25);
        // Sticks out of the parent: only [90, 100) counts.
        t.record("d", Some(root), 90, 120);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[a], 30 - 10);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 30);
    }

    #[test]
    fn totals_filter_by_name_and_run() {
        let mut t = Tracer::new();
        t.record("x", None, 0, 5);
        t.set_run(1);
        let p = t.record("x", None, 10, 30);
        t.record("y", Some(p), 12, 20);
        assert_eq!(t.total_ns("x", 0), 5);
        assert_eq!(t.total_ns("x", 1), 20);
        assert_eq!(t.self_total_ns("x", 1), 12);
        assert_eq!(t.spans()[2].run, 1);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        assert_eq!(lines.lines().nth(3), Some("[2,\"y\",12,20,1,1]"));
        for l in lines.lines() {
            crate::report::Json::parse(l).unwrap();
        }
    }

    #[test]
    fn open_close_orders_time() {
        let mut t = Tracer::new();
        let id = t.open("outer", None);
        let inner = t.time("inner", Some(id), || (0..1000u64).sum::<u64>());
        t.close(id);
        assert_eq!(inner, 499_500);
        let s = &t.spans()[id];
        assert!(s.end_ns >= t.spans()[1].end_ns);
        assert!(s.start_ns <= t.spans()[1].start_ns);
    }
}

//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer, plus task-attempt intervals rebuilt from
//! the journal's timestamps. Nothing inside the runtime is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (e.g. `exec.apply_chain`).
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Microseconds since the tracer's origin.
    pub start_us: u64,
    /// Microseconds since the tracer's origin (`>= start_us`).
    pub end_us: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Collects spans; a span's id is its index.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Microseconds from the origin to `t` (0 for instants before it).
    pub fn at_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a finished span; `end_us` is clamped to `start_us`.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start_us: u64,
        end_us: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            job,
            parent,
            start_us,
            end_us: end_us.max(start_us),
        });
        self.spans.len() - 1
    }

    /// Opens a span at the current time; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.record(name, job, parent, now, now)
    }

    /// Ends an open span at the current time.
    pub fn close(&mut self, id: usize) {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now.max(span.start_us);
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, job, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Total microseconds of the spans named `name` belonging to `job`.
    pub fn total_us(&self, name: &str, job: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.job == job)
            .map(Span::dur)
            .sum()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children — parallel
    /// task attempts — count once).
    pub fn self_times_us(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                let (a, b) = (s.start_us.max(ps.start_us), s.end_us.min(ps.end_us));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in kids {
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
                s.dur() - covered
            })
            .collect()
    }

    /// Self time per layer name, summed over all spans.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_us()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn spans_json(&self) -> String {
        let selfs = self.self_times_us();
        let mut out = String::from("[");
        for (i, (s, self_us)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\
                 \"start_us\":{},\"end_us\":{},\"self_us\":{self_us}}}",
                s.name, s.job, s.start_us, s.end_us
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record("job", 0, None, 0, 100);
        t.record("task.run", 0, Some(root), 10, 40);
        t.record("task.run", 0, Some(root), 30, 60);
        // Clipped to the parent's interval.
        t.record("task.run", 0, Some(root), 90, 130);
        assert_eq!(t.self_times_us(), vec![100 - 50 - 10, 30, 30, 40]);
        assert_eq!(t.self_us_by_name()["task.run"], 100);
    }
}

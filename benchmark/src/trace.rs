//! Host-time spans around every call the benchmark makes into a layer.
//!
//! All host timing goes through [`Tracer::open`] / [`Tracer::close`], so
//! the untraced and traced runs time exactly the same intervals; a traced
//! run additionally keeps each span in memory and writes them out as JSON
//! lines when the benchmark ends. Spans the program records itself (GC
//! phases, OS epochs, the measured iteration) are adopted from a profiled
//! run's [`SpanRecord`]s; they carry only a host duration, not a start.

use hemu_obs::json::JsonObject;
use hemu_obs::SpanRecord;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created (`None` for program spans).
    pub start_ns: Option<u64>,
    pub end_ns: Option<u64>,
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index into the tracer's run table.
    pub run: usize,
}

/// A span that has been opened; close it with [`Tracer::close`].
#[must_use]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

impl Open {
    /// The span's index, for use as a child's parent (`None` when untraced).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

/// The benchmark's span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// (label, is a probe) per run.
    runs: Vec<(String, bool)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Registers a run (a workload run, a kernel repetition or a probe) and
    /// returns its index for the spans recorded under it.
    pub fn run(&mut self, label: String, probe: bool) -> usize {
        self.runs.push((label, probe));
        self.runs.len() - 1
    }

    pub fn open(&mut self, name: &'static str, run: usize, parent: Option<usize>) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: Some(self.nanos(start)),
                end_ns: None,
                dur_ns: 0,
                parent,
                run,
            });
            self.spans.len() - 1
        });
        Open { id, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let dur = end.duration_since(open.start);
        if let Some(id) = open.id {
            let end_ns = self.nanos(end);
            let span = &mut self.spans[id];
            span.end_ns = Some(end_ns);
            span.dur_ns = dur.as_nanos() as u64;
        }
        dur.as_secs_f64()
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Adopts a profiled run's program spans under `parent`. Records arrive
    /// in close order with their nesting depth, so a span's parent is the
    /// first later record one level up.
    pub fn adopt(&mut self, records: &[SpanRecord], parent: Option<usize>, run: usize) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        for (i, r) in records.iter().enumerate() {
            let up = match r.depth {
                0 => parent,
                d => records[i + 1..]
                    .iter()
                    .position(|p| p.depth == d - 1)
                    .map(|j| base + i + 1 + j),
            };
            self.spans.push(Span {
                name: r.name,
                start_ns: None,
                end_ns: None,
                dur_ns: r.wall_nanos,
                parent: up,
                run,
            });
        }
    }

    fn of(&self, probe: bool) -> impl Iterator<Item = (usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| self.runs[s.run].1 == probe)
    }

    /// Durations in seconds of the spans named `name`, on probe runs or on
    /// the workload's own runs.
    pub fn durations(&self, probe: bool, name: &str) -> Vec<f64> {
        self.of(probe)
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Total seconds of the spans named any of `names`; `None` when there
    /// are none (the layer was never entered).
    pub fn total(&self, probe: bool, names: &[&str]) -> Option<f64> {
        let spans: Vec<f64> = names
            .iter()
            .flat_map(|n| self.durations(probe, n))
            .collect();
        (!spans.is_empty()).then(|| spans.iter().sum())
    }

    /// Total self time in seconds of the spans named `name`: each span's
    /// duration minus that of its direct children.
    pub fn self_total(&self, probe: bool, name: &str) -> Option<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns;
            }
        }
        let selves: Vec<f64> = self
            .of(probe)
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns.saturating_sub(children[i]) as f64 * 1e-9)
            .collect();
        (!selves.is_empty()).then(|| selves.iter().sum())
    }

    /// Writes every span as one JSON object per line:
    /// `{name, start, end, dur, parent, run}` (times in host nanoseconds).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let mut obj = JsonObject::new(&mut out);
            obj.field("name", s.name)
                .field("start", &s.start_ns)
                .field("end", &s.end_ns)
                .field("dur", &s.dur_ns)
                .field("parent", &s.parent)
                .field("run", self.runs[s.run].0.as_str());
            obj.finish();
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_types::Cycles;

    fn rec(name: &'static str, depth: u32, wall_nanos: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "gc",
            begin: Cycles::ZERO,
            end: Cycles::ZERO,
            depth,
            wall_nanos,
        }
    }

    #[test]
    fn adopted_spans_nest_by_depth_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let run = t.run("r".into(), false);
        let outer = t.open("run", run, None);
        let id = outer.id();
        // Close order of: iteration{ minor{ trace evacuate } os_epoch }.
        t.adopt(
            &[
                rec("trace", 2, 10),
                rec("evacuate", 2, 20),
                rec("minor", 1, 50),
                rec("os_epoch", 1, 5),
                rec("iteration", 0, 100),
            ],
            id,
            run,
        );
        let _ = t.close(outer);
        let parents: Vec<Option<usize>> = t.spans[1..].iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![Some(3), Some(3), Some(5), Some(5), Some(0)]);
        let ns = |s: Option<f64>| s.map(|s| (s * 1e9).round() as u64);
        assert_eq!(ns(t.self_total(false, "iteration")), Some(45));
        assert_eq!(ns(t.self_total(false, "minor")), Some(20));
        assert_eq!(ns(t.total(false, &["trace", "evacuate"])), Some(30));
        assert_eq!(t.total(false, &["sweep"]), None);
        assert_eq!(t.total(true, &["trace"]), None);
    }

    #[test]
    fn untraced_spans_still_time_but_keep_nothing() {
        let mut t = Tracer::new(false);
        let run = t.run("r".into(), false);
        let o = t.open("x", run, None);
        assert!(o.id().is_none());
        assert!(t.close(o) >= 0.0);
        assert!(t.spans.is_empty());
    }
}

//! Hierarchical execution spans in virtual and wall time.
//!
//! A span is a named interval of execution — a GC phase, an OS epoch, a
//! measured iteration — with a begin and end stamp in *virtual* time
//! (machine cycles) plus a wall-clock duration measured on the host. The
//! recorder keeps a bounded buffer of closed spans in the same ring type as
//! the event [`Tracer`](crate::Tracer): when full, the oldest span is
//! overwritten and a drop counter advances.
//!
//! Virtual stamps are deterministic (they replay bit-identically across
//! runs and worker counts); wall durations are host noise and therefore
//! never exported into deterministic artifacts — they exist for interactive
//! progress display and ad-hoc host-side profiling only. The JSON form of a
//! [`SpanRecord`] deliberately omits them.
//!
//! A disabled recorder (the default) records nothing and costs one branch
//! per call, so instrumentation points stay unconditional.

use crate::json::{JsonObject, ToJson};
use crate::ring::Ring;
use hemu_types::Cycles;
use std::time::Instant;

/// One closed span: a named interval in virtual time plus its nesting
/// depth at the time it was opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `minor`, `evacuate`, `os_epoch`).
    pub name: &'static str,
    /// Category the span belongs to (`gc`, `os`, `run`), used as the
    /// Chrome trace-event `cat` field.
    pub cat: &'static str,
    /// Virtual time the span opened.
    pub begin: Cycles,
    /// Virtual time the span closed.
    pub end: Cycles,
    /// Nesting depth when opened (0 = outermost).
    pub depth: u32,
    /// Host wall-clock nanoseconds between open and close. Excluded from
    /// the JSON form: wall time is nondeterministic.
    pub wall_nanos: u64,
}

impl SpanRecord {
    /// Virtual cycles the span covered.
    pub fn cycles(&self) -> u64 {
        self.end.raw().saturating_sub(self.begin.raw())
    }
}

impl ToJson for SpanRecord {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("name", self.name)
            .field("cat", self.cat)
            .field("begin_cycles", &self.begin)
            .field("end_cycles", &self.end)
            .field("depth", &self.depth);
        obj.finish();
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    cat: &'static str,
    begin: Cycles,
    opened: Instant,
}

/// An owned, bounded buffer of closed spans plus the stack of open ones.
///
/// The default recorder is disabled: [`SpanRecorder::begin`] and
/// [`SpanRecorder::end`] are no-ops. [`SpanRecorder::bounded`] creates a
/// live one.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    ring: Option<Ring<SpanRecord>>,
    stack: Vec<OpenSpan>,
}

impl SpanRecorder {
    /// A recorder keeping the most recent `capacity` closed spans
    /// (clamped to at least 1).
    pub fn bounded(capacity: usize) -> Self {
        SpanRecorder {
            ring: Some(Ring::new(capacity)),
            stack: Vec::new(),
        }
    }

    /// Opens a span at virtual time `t`. No-op when disabled.
    pub fn begin(&mut self, name: &'static str, cat: &'static str, t: Cycles) {
        if self.ring.is_some() {
            self.stack.push(OpenSpan {
                name,
                cat,
                begin: t,
                opened: Instant::now(),
            });
        }
    }

    /// Closes the innermost open span at virtual time `t` and records it.
    /// No-op when disabled or when no span is open.
    pub fn end(&mut self, t: Cycles) {
        let (Some(ring), Some(open)) = (&mut self.ring, self.stack.pop()) else {
            return;
        };
        ring.push(SpanRecord {
            name: open.name,
            cat: open.cat,
            begin: open.begin,
            end: t,
            depth: self.stack.len() as u32,
            wall_nanos: open.opened.elapsed().as_nanos() as u64,
        });
    }

    /// Number of closed spans currently buffered.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, Ring::len)
    }

    /// Whether the buffer is empty (always `true` when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of closed spans overwritten because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, Ring::dropped)
    }

    /// Discards every buffered and open span (start of a measured
    /// iteration) and resets the drop counter.
    pub fn reset(&mut self) {
        self.stack.clear();
        if let Some(ring) = &mut self.ring {
            ring.drain();
        }
    }

    /// Copies out the buffered spans, oldest first, leaving them in place.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.iter().flat_map(Ring::iter).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: u64) -> Cycles {
        Cycles::new(t)
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut s = SpanRecorder::default();
        s.begin("x", "gc", at(1));
        s.end(at(2));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn nesting_records_depth_and_orders_by_close() {
        let mut s = SpanRecorder::bounded(8);
        s.begin("outer", "run", at(0));
        s.begin("inner", "gc", at(10));
        s.end(at(20)); // inner
        s.end(at(30)); // outer
        let spans = s.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].depth), ("inner", 1));
        assert_eq!((spans[1].name, spans[1].depth), ("outer", 0));
        assert_eq!(spans[0].cycles(), 10);
        assert_eq!(spans[1].cycles(), 30);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut s = SpanRecorder::bounded(2);
        for i in 0..4u64 {
            s.begin("p", "gc", at(i));
            s.end(at(i + 1));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 2);
        let kept: Vec<u64> = s.snapshot().iter().map(|r| r.begin.raw()).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let mut s = SpanRecorder::bounded(2);
        s.end(at(5));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn reset_discards_open_and_closed_spans() {
        let mut s = SpanRecorder::bounded(4);
        s.begin("a", "gc", at(0));
        s.end(at(1));
        s.begin("open", "gc", at(2));
        s.reset();
        assert_eq!(s.len(), 0);
        s.begin("b", "gc", at(3));
        s.end(at(4));
        let spans = s.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].depth, 0, "the abandoned open span is gone");
    }

    #[test]
    fn json_form_omits_wall_time() {
        let rec = SpanRecord {
            name: "minor",
            cat: "gc",
            begin: at(100),
            end: at(250),
            depth: 2,
            wall_nanos: 999,
        };
        assert_eq!(
            rec.to_json(),
            r#"{"name":"minor","cat":"gc","begin_cycles":100,"end_cycles":250,"depth":2}"#
        );
    }
}

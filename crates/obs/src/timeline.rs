//! Chrome trace-event timeline export for [`SpanRecord`]s.
//!
//! Renders the spans of one or more runs as a Chrome trace-event JSON
//! document (`{"traceEvents":[...]}`) loadable in Perfetto or
//! `chrome://tracing`. Each run becomes one track (`tid`), named after the
//! run via a `thread_name` metadata event; spans become complete (`"X"`)
//! events whose `ts`/`dur` are *virtual* microseconds — cycles divided by
//! the emulated core frequency. Runs are laid out end-to-end in the order
//! they were added, under one synthetic `sweep` span on track 0, so a whole
//! sweep reads as a single timeline.
//!
//! Only virtual time appears in the document. Wall-clock durations are host
//! noise and would break the platform's byte-identical-at-any-`--jobs`
//! artifact contract, so they are deliberately excluded.

use crate::json::{push_json_f64, push_json_str};
use crate::span::SpanRecord;
use hemu_types::Cycles;

/// One run's spans plus the scale needed to place them on the timeline.
#[derive(Debug, Clone)]
struct TimelineRun {
    label: String,
    freq_hz: f64,
    elapsed: Cycles,
    spans: Vec<SpanRecord>,
}

/// Accumulates runs and renders them as one Chrome trace-event document.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    runs: Vec<TimelineRun>,
}

impl Timeline {
    /// Appends one run's spans. `elapsed` is the run's total virtual time
    /// (its extent on the timeline); `freq_hz` converts its cycle stamps to
    /// microseconds. Call order determines track order and layout — callers
    /// must add runs in a deterministic order.
    pub fn add_run(&mut self, label: &str, freq_hz: f64, elapsed: Cycles, spans: Vec<SpanRecord>) {
        self.runs.push(TimelineRun {
            label: label.to_string(),
            freq_hz: if freq_hz > 0.0 { freq_hz } else { 1.0 },
            elapsed,
            spans,
        });
    }

    /// Renders the trace-event JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push_event =
            |out: &mut String, name: &str, cat: &str, ts: f64, dur: f64, tid: usize| {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"name\":");
                push_json_str(out, name);
                out.push_str(",\"cat\":");
                push_json_str(out, cat);
                out.push_str(",\"ph\":\"X\",\"ts\":");
                push_json_f64(out, ts);
                out.push_str(",\"dur\":");
                push_json_f64(out, dur);
                out.push_str(&format!(",\"pid\":1,\"tid\":{tid}}}"));
            };

        let mut offset_us = 0.0f64;
        let mut total_us = 0.0f64;
        for (i, run) in self.runs.iter().enumerate() {
            let tid = i + 1;
            let scale = 1e6 / run.freq_hz;
            let run_us = run.elapsed.raw() as f64 * scale;
            push_event(&mut out, &run.label, "run", offset_us, run_us, tid);
            for span in &run.spans {
                let ts = offset_us + span.begin.raw() as f64 * scale;
                let dur = span.cycles() as f64 * scale;
                push_event(&mut out, span.name, span.cat, ts, dur, tid);
            }
            offset_us += run_us;
            total_us = offset_us;
        }
        if !self.runs.is_empty() {
            push_event(&mut out, "sweep", "sweep", 0.0, total_us, 0);
        }

        // Name the tracks after their runs (metadata events carry no time).
        let mut names = vec![("sweep".to_string(), 0usize)];
        names.extend(
            self.runs
                .iter()
                .enumerate()
                .map(|(i, r)| (r.label.clone(), i + 1)),
        );
        for (label, tid) in names {
            if !self.runs.is_empty() || tid > 0 {
                out.push(',');
                out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
                out.push_str(&format!("{tid}"));
                out.push_str(",\"args\":{\"name\":");
                push_json_str(&mut out, &label);
                out.push_str("}}");
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, begin: u64, end: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            name,
            cat: "gc",
            begin: Cycles::new(begin),
            end: Cycles::new(end),
            depth,
            wall_nanos: 12345, // must never surface in the document
        }
    }

    #[test]
    fn empty_timeline_renders_a_valid_document() {
        let doc = Timeline::default().render();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn runs_lay_out_end_to_end_in_add_order() {
        let mut t = Timeline::default();
        // 1 MHz: 1 cycle = 1 µs, so stamps read directly.
        t.add_run("a", 1e6, Cycles::new(100), vec![span("minor", 10, 30, 0)]);
        t.add_run("b", 1e6, Cycles::new(50), vec![span("full", 0, 20, 0)]);
        let doc = t.render();
        // Run `a` occupies [0, 100); its span sits at ts=10.
        assert!(
            doc.contains(r#"{"name":"a","cat":"run","ph":"X","ts":0,"dur":100,"pid":1,"tid":1}"#)
        );
        assert!(doc
            .contains(r#"{"name":"minor","cat":"gc","ph":"X","ts":10,"dur":20,"pid":1,"tid":1}"#));
        // Run `b` starts where `a` ended.
        assert!(
            doc.contains(r#"{"name":"b","cat":"run","ph":"X","ts":100,"dur":50,"pid":1,"tid":2}"#)
        );
        assert!(doc
            .contains(r#"{"name":"full","cat":"gc","ph":"X","ts":100,"dur":20,"pid":1,"tid":2}"#));
        // The sweep span covers both on track 0.
        assert!(doc.contains(
            r#"{"name":"sweep","cat":"sweep","ph":"X","ts":0,"dur":150,"pid":1,"tid":0}"#
        ));
        // Tracks are named.
        assert!(
            doc.contains(r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"a"}}"#)
        );
        // Wall time never leaks into the document.
        assert!(!doc.contains("12345"));
    }

    #[test]
    fn zero_frequency_is_tolerated() {
        let mut t = Timeline::default();
        t.add_run("x", 0.0, Cycles::new(10), Vec::new());
        assert!(t.render().contains("\"tid\":1"));
    }
}

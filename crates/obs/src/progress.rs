//! A serialized progress reporter for concurrent sweeps.
//!
//! When the bench harness runs experiments on a worker pool, every worker
//! wants to announce what it is doing. Writing to stderr directly from
//! many threads interleaves partial lines; a [`Reporter`] funnels all
//! progress output through one mutex so each line lands whole, in the
//! order it was emitted.
//!
//! The reporter is the *only* piece of `hemu-obs` that is shared between
//! threads. Everything else in this crate (tracer ring, span recorder) is
//! a plain owned value scoped to one run: a parallel sweep gives every run
//! its own machine, with its own tracer and spans, and merges the exported
//! artifacts deterministically afterwards, so the hot recording paths
//! never pay for synchronization.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Where reporter lines go.
enum Sink {
    /// Process stderr (the default).
    Stderr,
    /// An arbitrary writer, e.g. a buffer in tests.
    Writer(Box<dyn Write + Send>),
}

/// A cheaply cloneable, thread-safe, line-oriented progress sink.
///
/// Clones share the same underlying sink and lock, so handing a clone to
/// each worker thread serializes their output.
///
/// # Examples
///
/// ```
/// use hemu_obs::progress::Reporter;
/// let r = Reporter::stderr();
/// let clone = r.clone();
/// clone.line("  running lusearch|KG-N|1|Emulation ...");
/// ```
#[derive(Clone)]
pub struct Reporter {
    sink: Arc<Mutex<Sink>>,
    /// Labels announced via [`Reporter::begin`] but not yet finalized via
    /// [`Reporter::finish`]. A well-behaved runner leaves this empty: every
    /// run — successful, failed, or retried — must finalize its line so a
    /// FAIL never leaves a stale `running ...` as the label's last word.
    open: Arc<Mutex<BTreeSet<String>>>,
}

impl Reporter {
    /// A reporter that writes lines to process stderr.
    pub fn stderr() -> Self {
        Reporter {
            sink: Arc::new(Mutex::new(Sink::Stderr)),
            open: Arc::new(Mutex::new(BTreeSet::new())),
        }
    }

    /// A reporter that writes lines to an arbitrary sink (tests, files).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        Reporter {
            sink: Arc::new(Mutex::new(Sink::Writer(w))),
            open: Arc::new(Mutex::new(BTreeSet::new())),
        }
    }

    /// Announces that work on `label` started (`  running <label> ...`) and
    /// marks the label in-progress until [`Reporter::finish`] is called
    /// with it.
    pub fn begin(&self, label: &str) {
        if let Ok(mut open) = self.open.lock() {
            open.insert(label.to_string());
        }
        self.line(&format!("  running {label} ..."));
    }

    /// Announces that `label` was requeued after a supervised failure
    /// (`  retried <label> ...`). Unlike [`Reporter::begin`] this never
    /// inserts a duplicate in-progress mark — the label is already open
    /// from its original `begin`, so progress output stays parseable as
    /// one `running`/`retried*`/final-line sequence per label.
    pub fn retried(&self, label: &str) {
        if let Ok(mut open) = self.open.lock() {
            open.insert(label.to_string());
        }
        self.line(&format!("  retried {label} ..."));
    }

    /// Finalizes `label`'s display with `msg` (emitted two-space indented,
    /// like [`Reporter::begin`]) and clears its in-progress mark. Safe to
    /// call for a label that was never begun — the message still lands.
    pub fn finish(&self, label: &str, msg: &str) {
        if let Ok(mut open) = self.open.lock() {
            open.remove(label);
        }
        self.line(&format!("  {msg}"));
    }

    /// Labels begun but not yet finished. Empty for a well-behaved runner
    /// at the end of a sweep.
    pub fn open_labels(&self) -> Vec<String> {
        self.open
            .lock()
            .map_or_else(|_| Vec::new(), |open| open.iter().cloned().collect())
    }

    /// Emits one line (a newline is appended). Lines from concurrent
    /// callers never interleave; I/O errors are ignored, as with
    /// `eprintln!`.
    pub fn line(&self, msg: &str) {
        // A poisoned lock just means another worker panicked mid-line;
        // keep reporting.
        let mut guard = match self.sink.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match &mut *guard {
            Sink::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{msg}");
            }
            Sink::Writer(w) => {
                let _ = writeln!(w, "{msg}");
            }
        }
    }
}

impl Default for Reporter {
    fn default() -> Self {
        Reporter::stderr()
    }
}

impl std::fmt::Debug for Reporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reporter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A writer appending into a shared buffer.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let Ok(mut b) = self.0.lock() {
                b.extend_from_slice(buf);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_lines_arrive_whole() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let r = Reporter::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        thread::scope(|s| {
            for t in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        r.line(&format!("worker-{t} line-{i} end"));
                    }
                });
            }
        });
        let text = String::from_utf8(buf.lock().expect("buffer lock").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 200);
        assert!(lines
            .iter()
            .all(|l| l.starts_with("worker-") && l.ends_with(" end")));
    }

    #[test]
    fn begin_finish_pairs_leave_no_stale_labels() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let r = Reporter::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        r.begin("a|KG-N|1|Emulation");
        r.begin("b|KG-W|1|Emulation");
        assert_eq!(r.open_labels().len(), 2);
        r.finish("a|KG-N|1|Emulation", "done a|KG-N|1|Emulation");
        r.finish(
            "b|KG-W|1|Emulation",
            "FAILED b|KG-W|1|Emulation after 3 attempt(s): timeout",
        );
        assert!(r.open_labels().is_empty(), "every begin must be finalized");
        let text = String::from_utf8(buf.lock().expect("lock").clone()).expect("utf8");
        // The failed run's last word is its FAIL line, not `running ...`.
        let last_b = text
            .lines()
            .filter(|l| l.contains("b|KG-W"))
            .next_back()
            .expect("b lines");
        assert!(last_b.contains("FAILED"), "stale in-progress display");
    }

    #[test]
    fn retried_emits_one_line_without_duplicate_begin() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let r = Reporter::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        r.begin("a|KG-N|1|None");
        r.retried("a|KG-N|1|None");
        assert_eq!(r.open_labels(), vec!["a|KG-N|1|None".to_string()]);
        r.finish("a|KG-N|1|None", "done a|KG-N|1|None");
        assert!(r.open_labels().is_empty());
        let text = String::from_utf8(buf.lock().expect("lock").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("  running "));
        assert!(lines[1].starts_with("  retried "));
        assert!(lines[2].starts_with("  done "));
        // Exactly one `running` line even though the job ran twice.
        assert_eq!(text.matches("running").count(), 1);
    }

    #[test]
    fn finish_without_begin_still_lands() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let r = Reporter::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        r.finish("never-begun", "done never-begun");
        assert!(r.open_labels().is_empty());
        let text = String::from_utf8(buf.lock().expect("lock").clone()).expect("utf8");
        assert!(text.contains("done never-begun"));
    }
}

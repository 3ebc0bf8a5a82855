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
/// use hemu_obs::Reporter;
/// let r = Reporter::default(); // writes to stderr
/// let clone = r.clone();
/// clone.line("  running lusearch|KG-N|1|Emulation ...");
/// ```
#[derive(Clone)]
pub struct Reporter {
    sink: Arc<Mutex<Sink>>,
}

impl Reporter {
    /// A reporter that writes lines to an arbitrary sink (tests, files).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        Reporter {
            sink: Arc::new(Mutex::new(Sink::Writer(w))),
        }
    }

    /// Announces that work on `label` started (`  running <label> ...`).
    /// Every run — successful, failed, or retried — ends with
    /// [`Reporter::finish`], so a FAIL never leaves a stale `running ...`
    /// as the label's last word.
    pub fn begin(&self, label: &str) {
        self.line(&format!("  running {label} ..."));
    }

    /// Finalizes a label's display with `msg` (emitted two-space indented,
    /// like [`Reporter::begin`]). Safe to call for a label that was never
    /// begun — the message still lands.
    pub fn finish(&self, msg: &str) {
        self.line(&format!("  {msg}"));
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

/// A reporter that writes lines to process stderr.
impl Default for Reporter {
    fn default() -> Self {
        Reporter {
            sink: Arc::new(Mutex::new(Sink::Stderr)),
        }
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
        r.finish("done a|KG-N|1|Emulation");
        r.finish("FAILED b|KG-W|1|Emulation after 3 attempt(s): timeout");
        let text = String::from_utf8(buf.lock().expect("lock").clone()).expect("utf8");
        // The failed run's last word is its FAIL line, not `running ...`.
        let last_b = text
            .lines()
            .rfind(|l| l.contains("b|KG-W"))
            .expect("b lines");
        assert!(last_b.contains("FAILED"), "stale in-progress display");
    }

    #[test]
    fn finish_without_begin_still_lands() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let r = Reporter::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        r.finish("done never-begun");
        let text = String::from_utf8(buf.lock().expect("lock").clone()).expect("utf8");
        assert!(text.contains("done never-begun"));
    }
}

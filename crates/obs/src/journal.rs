//! Write-ahead run journal for crash-safe sweeps.
//!
//! A sweep writing to a JSON export directory also maintains
//! `journal.jsonl` there: one header line identifying the sweep plan,
//! then one record per committed run. Each record is appended and
//! fsync'd *after* the run's artifacts are durably committed (atomic
//! rename, see [`crate::write_atomic_str`]), so a journal record is a promise
//! that the run's per-run JSON exists and matches the recorded content
//! hash. On resume, the harness replays journaled `ok` runs into its
//! memo table and re-executes everything else; because runs are
//! deterministic, any record that cannot be safely replayed is simply
//! dropped and the run is re-executed — byte-identity holds either way.
//!
//! Torn tails are expected: a crash can land mid-append. The reader
//! stops at the first line that does not parse as a complete record
//! (standard WAL truncation semantics) and reports how many lines it
//! dropped. A journal whose header does not match the current sweep
//! plan is a different experiment; replaying it would silently mix
//! configurations, so the reader surfaces the mismatch as a typed
//! condition for the caller to refuse.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::json::{FromJson, JsonObject, ToJson};
use crate::value::JsonValue;

/// Journal format identifier; bump on incompatible record changes.
pub(crate) const JOURNAL_SCHEMA: &str = "hemu-sweep-journal/1";

/// File name of the journal inside a JSON export directory.
pub(crate) const JOURNAL_FILE: &str = "journal.jsonl";

crate::record! {
    /// One committed run, as recorded in (or read back from) the journal.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JournalRecord {
        /// The harness memo key (`spec|manager|instances|profile`).
        pub key: String,
        /// Final status string (`ok`, `failed`, `timed-out`).
        pub status: String,
        /// Attempts consumed, including the successful one.
        pub attempts: u32,
        /// Effective fault seed of the final attempt, when a fault plan
        /// applied to this run; `None` otherwise.
        pub seed: Option<u64>,
        /// Rendered error for non-`ok` runs.
        pub error: Option<String>,
        /// FNV-1a hash (hex16, see [`crate::artifact::hash_hex`]) of the
        /// per-run JSON artifact for `ok` runs; `None` otherwise.
        pub hash: Option<String>,
    }
}

/// Append-only journal writer. Every append is fsync'd before returning,
/// so a record that `append` acknowledged survives an abrupt kill.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating any previous journal) `journal.jsonl` in
    /// `dir` and writes the header line for `plan_hash`.
    ///
    /// Truncation is deliberate: resume re-journals replayed runs in
    /// demand order, so a resumed sweep's journal ends byte-identical
    /// to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or syncing the file.
    pub fn create(dir: &Path, plan_hash: &str) -> io::Result<JournalWriter> {
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut line = String::new();
        let mut o = JsonObject::new(&mut line);
        o.field("journal", JOURNAL_SCHEMA)
            .field("plan_hash", plan_hash);
        o.finish();
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        Ok(JournalWriter { file })
    }

    /// Appends one record and fsyncs it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append or the sync.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let mut line = record.to_json();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Result of reading a journal back.
#[derive(Debug)]
pub struct JournalContents {
    /// Plan hash recorded in the header.
    pub plan_hash: String,
    /// Complete, well-formed records, in commit order.
    pub records: Vec<JournalRecord>,
    /// Trailing lines dropped as torn/garbage (crash mid-append).
    pub dropped_lines: usize,
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalReadError {
    /// The journal file could not be read at all.
    Io(io::Error),
    /// The first line is missing or is not a valid journal header.
    BadHeader(String),
    /// The header identifies a different sweep plan.
    PlanMismatch {
        /// Hash the current sweep expects.
        expected: String,
        /// Hash found in the journal header.
        found: String,
    },
}

impl std::fmt::Display for JournalReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalReadError::Io(e) => write!(f, "journal read failed: {e}"),
            JournalReadError::BadHeader(why) => write!(f, "bad journal header: {why}"),
            JournalReadError::PlanMismatch { expected, found } => write!(
                f,
                "journal plan hash {found} does not match current sweep plan {expected}"
            ),
        }
    }
}

impl std::error::Error for JournalReadError {}

/// Path of the journal inside a JSON export directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// Reads the journal in `dir`, validating the header against
/// `expected_plan_hash`. Torn or garbage trailing lines are dropped
/// (counted in [`JournalContents::dropped_lines`]); a record line that
/// fails to parse ends the replayable prefix, because anything after it
/// has unknown provenance.
///
/// # Errors
///
/// - [`JournalReadError::Io`] when the file cannot be read;
/// - [`JournalReadError::BadHeader`] when the first line is not a
///   `hemu-sweep-journal/1` header;
/// - [`JournalReadError::PlanMismatch`] when the journal belongs to a
///   different sweep plan.
pub fn read_journal(
    dir: &Path,
    expected_plan_hash: &str,
) -> Result<JournalContents, JournalReadError> {
    let path = journal_path(dir);
    let mut text = String::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(JournalReadError::Io)?;
    let mut lines = text.split_inclusive('\n');
    let header_line = lines
        .next()
        .ok_or_else(|| JournalReadError::BadHeader("empty journal".to_string()))?;
    if !header_line.ends_with('\n') {
        return Err(JournalReadError::BadHeader("torn header line".to_string()));
    }
    let header = JsonValue::parse(header_line.trim_end())
        .map_err(|e| JournalReadError::BadHeader(e.to_string()))?;
    match header.get("journal").and_then(JsonValue::as_str) {
        Some(JOURNAL_SCHEMA) => {}
        Some(other) => {
            return Err(JournalReadError::BadHeader(format!(
                "unsupported journal schema {other:?}"
            )))
        }
        None => {
            return Err(JournalReadError::BadHeader(
                "missing schema field".to_string(),
            ))
        }
    }
    let plan_hash = header
        .get("plan_hash")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| JournalReadError::BadHeader("missing plan_hash".to_string()))?
        .to_string();
    if plan_hash != expected_plan_hash {
        return Err(JournalReadError::PlanMismatch {
            expected: expected_plan_hash.to_string(),
            found: plan_hash,
        });
    }
    let mut records = Vec::new();
    let mut dropped_lines = 0;
    let mut torn = false;
    for line in lines {
        if torn {
            dropped_lines += 1;
            continue;
        }
        let complete = line.ends_with('\n');
        let parsed = if complete {
            JsonValue::parse(line.trim_end())
                .ok()
                .as_ref()
                .and_then(JournalRecord::from_json)
        } else {
            None
        };
        match parsed {
            Some(rec) => records.push(rec),
            None => {
                // First torn/garbage line: the durable prefix ends here.
                torn = true;
                if !line.trim().is_empty() {
                    dropped_lines += 1;
                }
            }
        }
    }
    Ok(JournalContents {
        plan_hash,
        records,
        dropped_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hemu-obs-tests")
            .join("journal")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample(key: &str, status: &str, hash: Option<&str>) -> JournalRecord {
        JournalRecord {
            key: key.to_string(),
            status: status.to_string(),
            attempts: 1,
            seed: if status == "ok" { None } else { Some(0xFA17) },
            error: if status == "ok" {
                None
            } else {
                Some("boom".to_string())
            },
            hash: hash.map(str::to_string),
        }
    }

    #[test]
    fn roundtrips_records() {
        let dir = tmp_dir("roundtrip");
        let mut w = JournalWriter::create(&dir, "deadbeefdeadbeef").expect("create");
        let a = sample("pr|KG-N|1|None", "ok", Some("0123456789abcdef"));
        let b = sample("cc|PCM-Only|1|None", "failed", None);
        w.append(&a).expect("append a");
        w.append(&b).expect("append b");
        let c = read_journal(&dir, "deadbeefdeadbeef").expect("read");
        assert_eq!(c.plan_hash, "deadbeefdeadbeef");
        assert_eq!(c.records, vec![a, b]);
        assert_eq!(c.dropped_lines, 0);
    }

    #[test]
    fn tolerates_torn_trailing_record() {
        let dir = tmp_dir("torn");
        let mut w = JournalWriter::create(&dir, "cafe").expect("create");
        let a = sample("pr|KG-N|1|None", "ok", Some("0123456789abcdef"));
        w.append(&a).expect("append");
        // Simulate a crash mid-append: half a record, no newline.
        let path = journal_path(&dir);
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("{\"key\":\"cc|KG");
        fs::write(&path, text).expect("write torn");
        let c = read_journal(&dir, "cafe").expect("read");
        assert_eq!(c.records, vec![a]);
        assert_eq!(c.dropped_lines, 1);
    }

    #[test]
    fn drops_everything_after_first_bad_line() {
        let dir = tmp_dir("garbage");
        let mut w = JournalWriter::create(&dir, "cafe").expect("create");
        let a = sample("pr|KG-N|1|None", "ok", Some("0123456789abcdef"));
        w.append(&a).expect("append");
        let path = journal_path(&dir);
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("not json\n");
        // A well-formed record *after* garbage must not be replayed.
        text.push_str(&sample("cc|KG-N|1|None", "ok", Some("ffffffffffffffff")).to_json());
        text.push('\n');
        fs::write(&path, text).expect("write");
        let c = read_journal(&dir, "cafe").expect("read");
        assert_eq!(c.records, vec![a]);
        assert_eq!(c.dropped_lines, 2);
    }

    #[test]
    fn refuses_plan_mismatch_and_bad_header() {
        let dir = tmp_dir("mismatch");
        let _ = JournalWriter::create(&dir, "aaaa").expect("create");
        match read_journal(&dir, "bbbb") {
            Err(JournalReadError::PlanMismatch { expected, found }) => {
                assert_eq!(expected, "bbbb");
                assert_eq!(found, "aaaa");
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        fs::write(journal_path(&dir), "{\"not\":\"a header\"}\n").expect("write");
        assert!(matches!(
            read_journal(&dir, "aaaa"),
            Err(JournalReadError::BadHeader(_))
        ));
        fs::remove_file(journal_path(&dir)).expect("rm");
        assert!(matches!(
            read_journal(&dir, "aaaa"),
            Err(JournalReadError::Io(_))
        ));
    }

    #[test]
    fn resumed_journal_matches_clean_journal() {
        // Re-creating and re-appending the same records yields identical bytes.
        let a = tmp_dir("clean");
        let b = tmp_dir("resumed");
        let recs = vec![
            sample("pr|KG-N|1|None", "ok", Some("0123456789abcdef")),
            sample("cc|PCM-Only|1|None", "timed-out", None),
        ];
        for dir in [&a, &b] {
            let mut w = JournalWriter::create(dir, "feed").expect("create");
            for r in &recs {
                w.append(r).expect("append");
            }
        }
        let ta = fs::read(journal_path(&a)).expect("read a");
        let tb = fs::read(journal_path(&b)).expect("read b");
        assert_eq!(ta, tb);
    }
}

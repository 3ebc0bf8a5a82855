//! Atomic artifact commits: every exported file goes through one
//! temp-file + rename helper, so no reader (or crash) ever observes a
//! torn artifact.
//!
//! The platform's robustness claim — a sweep killed at any instant can be
//! resumed to byte-identical artifacts — needs two filesystem properties:
//!
//! 1. **No torn files.** A final artifact path either holds the complete
//!    previous version or the complete new version, never a prefix. POSIX
//!    `rename(2)` within one directory is atomic, so [`write_atomic`]
//!    writes to a `.tmp` sibling, fsyncs it, and renames it into place.
//! 2. **Durability ordering.** The sweep journal (`journal.jsonl`, see
//!    [`crate::journal`]) must reach stable storage before the run it
//!    records is considered committed; [`write_atomic`] fsyncs both the
//!    temp file and (best-effort) its directory so a rename survives a
//!    power cut.
//!
//! The content hash used to tie journal records to their per-run artifact
//! files is FNV-1a — tiny, dependency-free, and stable across platforms.
//! It guards against *accidental* corruption (torn writes, stale files
//! from an older sweep), not adversaries.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a. Deterministic across platforms and
/// builds; used to fingerprint sweep plans and per-run artifact contents.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Renders a hash as the fixed-width lower-case hex the journal stores.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Best-effort fsync of the directory containing `path`, so a just-created
/// or just-renamed entry survives a crash. Directory fsync is not
/// supported everywhere; failures are ignored by design.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a `.tmp`
/// sibling first, are fsync'd, and are renamed over the final path. A
/// reader (or a crash at any instant) sees either the old complete file or
/// the new complete file — never a torn mixture.
///
/// All export artifacts of the workspace (`runs.json`, per-run JSON,
/// `samples.csv`, traces, timelines, heatmaps) go
/// through this helper; nothing writes a final artifact path directly.
///
/// # Errors
///
/// Propagates I/O errors from the temp-file write or the rename.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => {
            sync_parent_dir(path);
            Ok(())
        }
        Err(e) => {
            // Leave no droppings behind a failed commit.
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// [`write_atomic`] for string content.
///
/// # Errors
///
/// Propagates I/O errors from the temp-file write or the rename.
pub fn write_atomic_str(path: &Path, contents: &str) -> io::Result<()> {
    write_atomic(path, contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hemu-obs-tests").join("artifact");
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(name)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(hash_hex(fnv1a64(b"")), "cbf29ce484222325");
    }

    #[test]
    fn atomic_write_replaces_content_and_cleans_up() {
        let path = tmp("replace.json");
        write_atomic_str(&path, "first\n").expect("first write");
        assert_eq!(fs::read_to_string(&path).expect("read"), "first\n");
        write_atomic_str(&path, "second\n").expect("second write");
        assert_eq!(fs::read_to_string(&path).expect("read"), "second\n");
        // No temp droppings left next to the artifact.
        let dir = path.parent().expect("parent");
        let leftovers: Vec<_> = fs::read_dir(dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
    }

    #[test]
    fn missing_parent_directory_is_an_error() {
        let path = tmp("no-such-dir").join("deep").join("x.json");
        assert!(write_atomic_str(&path, "x").is_err());
    }
}

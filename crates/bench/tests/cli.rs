//! The `repro` command line refuses what it does not understand: `--help`
//! prints the usage text and runs nothing, an unknown `--flag` exits 2
//! instead of being dropped (which, with no target left, used to start the
//! full paper reproduction), and a `--run-deadline` no `Duration` holds
//! exits 2 instead of panicking. No such case writes a `--json-out`
//! directory.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `repro` with `args` plus `--json-out <fresh dir>`; returns the exit
/// code, stdout and stderr, and asserts that the directory was not created.
fn repro(name: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = tmp_dir(name);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--json-out")
        .arg(&out)
        .output()
        .expect("spawn repro");
    assert!(!out.exists(), "{args:?} created {}", out.display());
    (
        run.status.code(),
        String::from_utf8_lossy(&run.stdout).into_owned(),
        String::from_utf8_lossy(&run.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let (code, stdout, _) = repro(&format!("help{flag}"), &[flag]);
        assert_eq!(code, Some(0), "{flag}");
        assert!(stdout.starts_with("usage: repro"), "{flag}: {stdout}");
        assert!(!stdout.contains("experiments"), "{flag} ran a target");
    }
}

#[test]
fn unknown_flags_exit_2_and_run_nothing() {
    for args in [&["--no-such-flag"][..], &["table1", "--jbos", "2"][..]] {
        let (code, stdout, stderr) = repro(&format!("unknown{}", args.len()), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran a target: {stdout}");
        assert!(stderr.contains("unknown flag `--"), "{args:?}: {stderr}");
    }
}

#[test]
fn unrepresentable_run_deadline_exits_2_and_runs_nothing() {
    for secs in ["1e30", "inf", "0", "-1"] {
        let (code, stdout, stderr) = repro(
            &format!("deadline{secs}"),
            &["table1", "--run-deadline", secs],
        );
        assert_eq!(code, Some(2), "{secs}: {stderr}");
        assert!(stdout.is_empty(), "{secs} ran a target: {stdout}");
        assert!(
            stderr.contains("--run-deadline: expected"),
            "{secs}: {stderr}"
        );
    }
}

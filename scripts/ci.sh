#!/bin/bash
# Hermetic CI gate: everything must build, test, and stay formatted with
# the network off. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --workspace --release --offline

echo "== test (offline) =="
cargo test --workspace -q --offline

echo "== fmt check =="
cargo fmt --all --check

echo "== clippy: every target, every warning is an error =="
# With the workspace lint table this also fails on dead code and on a
# `pub` item no path from its crate root exports (unreachable_pub).
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc: no broken or private intra-doc link =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== clippy: no unwrap() or expect() in any library crate =="
cargo clippy --offline --lib -p hemu-heap -p hemu-cache -p hemu-machine \
  -p hemu-numa -p hemu-types -p hemu-fault -p hemu-obs -p hemu-os -p hemu-malloc \
  -p hemu-workloads -p hemu-core -p hemu-bench -p hemu \
  -- -D clippy::unwrap_used -D clippy::expect_used

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

echo "== repro CLI: --help exits 0; an unknown flag or an overflowing --run-deadline exits 2; none writes =="
timeout 10 ./target/release/repro --help --json-out "$smoke_dir/help" >/dev/null
rc=0
timeout 10 ./target/release/repro --no-such-flag --json-out "$smoke_dir/bad" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "repro --no-such-flag exited $rc, expected 2" >&2
  exit 1
fi
rc=0
timeout 10 ./target/release/repro table1 --run-deadline 1e30 \
  --json-out "$smoke_dir/deadline" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "repro --run-deadline 1e30 exited $rc, expected 2" >&2
  exit 1
fi
if [ -e "$smoke_dir/help" ] || [ -e "$smoke_dir/bad" ] || [ -e "$smoke_dir/deadline" ]; then
  echo "repro --help, an unknown flag or a bad --run-deadline wrote an artifact" >&2
  exit 1
fi

echo "== fault smoke: sweep survives transient faults (expect exit 0) =="
./target/release/repro fig3 --scale quick --faults smoke --endurance smoke \
  --run-deadline 300 --json-out "$smoke_dir/ok"
grep -q '"status":"ok"' "$smoke_dir/ok/runs.json"

echo "== fault smoke: forced OOM is recorded, sweep completes (expect exit 1) =="
if ./target/release/repro fig3 --scale quick \
  --faults 'oom_at=1,only=pr|PCM-Only' --json-out "$smoke_dir/oom"; then
  echo "forced-OOM sweep should have exited non-zero" >&2
  exit 1
fi
grep -q '"status":"failed"' "$smoke_dir/oom/runs.json"
grep -q 'forced-oom' "$smoke_dir/oom/runs.json"
grep -q '"status":"ok"' "$smoke_dir/oom/runs.json"

echo "== OS-paging smoke: GC-vs-OS sweep runs the hot/cold migrator (expect exit 0) =="
./target/release/repro os --scale quick --os-policy hot-cold --json-out "$smoke_dir/os"
grep -q '"collector":"OS-hot-cold"' "$smoke_dir/os/runs.json"
grep -q '"os_paging":{"policy":"OS-hot-cold"' "$smoke_dir/os/runs.json"

echo "== OS-paging + endurance smoke: hot/cold migration over wearing PCM (jobs 1 and 2) =="
# Wear-out remaps and OS migrations both move pages through
# NumaMemory::copy_page; the sweep must be --jobs-invariant and the
# hot/cold run must actually retire pages.
for jobs in 1 2; do
  ./target/release/repro os --scale quick --os-policy hot-cold --endurance budget=4 \
    --jobs "$jobs" --json-out "$smoke_dir/os-endurance-j$jobs"
done
diff -r "$smoke_dir/os-endurance-j1" "$smoke_dir/os-endurance-j2"
python3 - "$smoke_dir/os-endurance-j1/runs.json" <<'PY'
import json, sys
runs = json.load(open(sys.argv[1]))
hot_cold = [r["report"] for r in runs if r["report"]["collector"] == "OS-hot-cold"]
assert hot_cold and any(r["endurance"]["retired_pages"] > 0 for r in hot_cold), \
    "no OS-hot-cold run retired a page"
PY

echo "== profiler smoke: --profile emits a valid Perfetto timeline + wear heatmap =="
./target/release/repro os --scale quick --os-policy hot-cold --profile \
  --timeline-out "$smoke_dir/timeline.json" --heatmap-out "$smoke_dir/heatmap.csv" \
  --json-out "$smoke_dir/prof"
python3 -m json.tool "$smoke_dir/timeline.json" > /dev/null
grep -q '"name":"iteration"' "$smoke_dir/timeline.json"
grep -q '"cat":"gc"' "$smoke_dir/timeline.json"
grep -q '"name":"os_epoch"' "$smoke_dir/timeline.json"
head -1 "$smoke_dir/heatmap.csv" | grep -q '^key,frame,writes,lines_touched,max_line_writes$'
grep -q '"provenance":{"pcm":{"by_cause":{"mutator":' "$smoke_dir/prof/runs.json"
# Provenance is complete: per socket, the lines split by cause and the
# lines split by heap space each sum to the controller's write bytes / 64.
python3 - "$smoke_dir/prof/runs.json" <<'PY'
import json, sys
runs = [r for r in json.load(open(sys.argv[1])) if r["status"] == "ok"]
assert runs, "no profiled run succeeded"
for run in runs:
    rep = run["report"]
    for side, writes in (("pcm", rep["pcm_writes"]), ("dram", rep["dram_writes"])):
        for split in ("by_cause", "by_space"):
            lines = sum(rep["provenance"][side][split].values())
            assert lines * 64 == writes, f'{run["key"]}: {side} {split} {lines} lines vs {writes} bytes'
PY

echo "== parallel smoke: --jobs {1,4} artifacts are byte-identical =="
for jobs in 1 4; do
  ./target/release/repro fig3 --scale quick --jobs "$jobs" --json-out "$smoke_dir/j$jobs"
done
diff -r "$smoke_dir/j1" "$smoke_dir/j4"

echo "== trace smoke: traced and untraced artifacts are byte-identical =="
./target/release/repro smoke --scale quick --jobs 4 --json-out "$smoke_dir/untraced"
for jobs in 1 4; do
  ./target/release/repro smoke --scale quick --jobs "$jobs" \
    --json-out "$smoke_dir/traced-j$jobs" --trace-out "$smoke_dir/trace-j$jobs.jsonl"
  diff -r "$smoke_dir/untraced" "$smoke_dir/traced-j$jobs"
done
diff "$smoke_dir/trace-j1.jsonl" "$smoke_dir/trace-j4.jsonl"

echo "== chaos smoke: killed sweep resumes byte-identical (jobs 1 and 4) =="
./target/release/repro smoke --scale quick --jobs 2 --json-out "$smoke_dir/chaos-ref"
grep -q '"journal":"hemu-sweep-journal/1"' "$smoke_dir/chaos-ref/journal.jsonl"
for jobs in 1 4; do
  if ./target/release/repro smoke --scale quick --jobs "$jobs" \
    --chaos-kill-after 2 --json-out "$smoke_dir/chaos-j$jobs"; then
    echo "chaos-killed sweep should have exited non-zero" >&2
    exit 1
  fi
  test ! -e "$smoke_dir/chaos-j$jobs/runs.json"  # killed before finalization
  ./target/release/repro smoke --scale quick --jobs "$jobs" \
    --resume "$smoke_dir/chaos-j$jobs"
  diff -r "$smoke_dir/chaos-ref" "$smoke_dir/chaos-j$jobs"
done

echo "== harness targets: ablations, write_breakdown and series run and resume (expect exit 0) =="
# A panic (exit 101) or a failed run fails this step, and a sweep killed
# after its third commit must resume byte-identical.
targets=(ablations write_breakdown series:lusearch --scale quick --jobs 2)
./target/release/repro "${targets[@]}" --json-out "$smoke_dir/targets"
if ./target/release/repro "${targets[@]}" --chaos-kill-after 3 \
  --json-out "$smoke_dir/targets-chaos"; then
  echo "chaos-killed sweep should have exited non-zero" >&2
  exit 1
fi
./target/release/repro "${targets[@]}" --resume "$smoke_dir/targets-chaos"
diff -r "$smoke_dir/targets" "$smoke_dir/targets-chaos"

echo "== every repro target at quick scale (expect exit 0) =="
# A panic (exit 101) or any failed run (exit 1) fails this step. The
# 10 M-edge graph runs of fig8 are skipped; the rest of fig8 still runs.
# The slowest step: about 4.5 minutes on a 2-vCPU host (152 runs).
HEMU_SKIP_LARGE_GRAPHS=1 ./target/release/repro \
  table1 table2 fig4 fig5 fig6 fig7 table3 fig8 \
  --scale quick --jobs 2 --json-out "$smoke_dir/all-targets"
if grep -q '"status":"failed"' "$smoke_dir/all-targets/runs.json"; then
  echo "a run of the all-targets sweep failed" >&2
  exit 1
fi

echo "== torn-write gate: export code writes final artifacts only atomically =="
# Final artifacts must go through hemu_obs::write_atomic_str; a direct
# fs::write/File::create in export code is a torn-write hazard. Test
# modules (after #[cfg(test)], always last in these files) are exempt.
for f in crates/bench/src/harness.rs \
         crates/bench/src/bin/repro.rs crates/bench/src/executor.rs \
         crates/obs/src/journal.rs crates/obs/src/artifact.rs; do
  if ! awk '/#\[cfg\(test\)\]/{exit} /fs::write\(|File::create\(/{bad=1; print FILENAME": "$0} END{exit bad}' "$f"; then
    echo "direct file write in export code ($f); use hemu_obs::write_atomic_str" >&2
    exit 1
  fi
done

echo "== consolidation smoke: 2-tenant sweep with complete per-tenant attribution =="
./target/release/repro consolidate --scale quick --tenants 2 --jobs 2 \
  --json-out "$smoke_dir/consolidate"
grep -q '"consolidation":{' "$smoke_dir/consolidate/runs.json"
# Per-tenant write counters must sum exactly to the controller counters:
# any residue shows up as a non-zero unattributed count.
grep -q '"unattributed_pcm_lines":0' "$smoke_dir/consolidate/runs.json"
grep -q '"unattributed_dram_lines":0' "$smoke_dir/consolidate/runs.json"
if grep -E '"unattributed_(pcm|dram)_lines":[1-9]' "$smoke_dir/consolidate/runs.json"; then
  echo "consolidated run leaked unattributed writes" >&2
  exit 1
fi

echo "== benchmark: the benchmark/ package builds and passes against the crate API =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"

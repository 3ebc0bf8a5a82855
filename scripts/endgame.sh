#!/bin/bash
# Final deliverable sequence: run after the repro suite reaches table3.
set -x
cd /root/repo
./scripts/ci.sh 2>&1 | tee /root/repo/ci_output.txt | tail -5
cargo test --workspace 2>&1 | tee /root/repo/test_output.txt | tail -5
HEMU_SKIP_LARGE_GRAPHS=1 ./target/release/repro fig8 ablations > /root/repo/repro_fig8_ablations.txt 2>/dev/null
cargo run --release --offline --manifest-path benchmark/Cargo.toml --bin benchmark -- --workload kernel --seed 42 --seconds 1 2>&1 | tee bench_output.txt | tail -5

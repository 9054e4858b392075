#!/usr/bin/env bash
# Full local CI gate: build, test, lint, format. All offline — the workspace
# vendors shims for external crates (see shims/) and never hits the network.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release --offline
run cargo test --workspace --offline -q
# Dedicated threaded-backend pass: real OS threads (the suite bounds itself
# to <= 4 processes per run), wrapped in a hard timeout so a protocol
# deadlock fails the gate quickly instead of hanging it. The per-run
# wall-timeout valve inside the backend turns most hangs into typed errors
# already; this is the backstop.
run timeout 300 cargo test --offline --test threaded_backend -q
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo fmt --check
# Strict protocol-invariant audit over one seeded run per mechanism: the
# auditor replays the recorded event stream and any violation (snapshot
# pairing, clock monotonicity, reservation totals, ...) fails the gate.
for mech in naive increments snapshot; do
    run cargo run --release --offline -p loadex-bench --bin run -- \
        --matrix TWOTONE --procs 8 --mech "$mech" --audit
done
# The same strict audit of the snapshot mechanism at 130 processes, where its
# per-peer flag bitsets span three 64-bit words, so a word-indexing fault in
# the leader election or the delayed answers fails the gate.
run cargo run --release --offline -p loadex-bench --bin run -- \
    --matrix TWOTONE --procs 130 --mech snapshot --audit

# Benchmark correctness smoke: every perfbench workload must reproduce the
# simulated statistics pinned in perfbench/src/workload.rs, so a change to
# the calendar, network or engine that alters the simulation fails here.
# The benchmark prints one JSON result object on its last line.
for workload in incr-p512 snap-p768 gossip-p256 audit-p128; do
    echo "==> perfbench --workload $workload --seed 0 --seconds 1 --trace 0"
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0 | tail -n 1)
    case "$result" in
        *'"correct": true'*) ;;
        *)
            echo "perfbench $workload is not correct: $result" >&2
            exit 1
            ;;
    esac
done

echo "All checks passed."

#!/usr/bin/env sh
# CI gate: build, test, determinism reruns, format check, then the
# benchmark package's own tests. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> determinism (abp + acceptable-ads lib tests: 5x default runner, 2x --test-threads 1; fleet tests: 5x release)"
# Tier-1 must be green on every run, not most runs: the two crates whose
# tests compile engines side by side run again and again under both
# schedules, and the first red run fails the stage. The fleet tests kill
# shards under a live router (sockets and timing), so they repeat too,
# under the default runner.
for run in 1 2 3 4 5; do
    cargo test -q -p abp -p acceptable-ads --lib ||
        { echo "determinism: default-runner run $run failed" >&2; exit 1; }
done
for run in 1 2; do
    cargo test -q -p abp -p acceptable-ads --lib -- --test-threads 1 ||
        { echo "determinism: --test-threads 1 run $run failed" >&2; exit 1; }
done
for run in 1 2 3 4 5; do
    cargo test -q --release --test fleet ||
        { echo "determinism: fleet run $run failed" >&2; exit 1; }
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> benchmark tests (unit tests + a --quick pass of all six workloads on the release daemons, every reply oracle-checked)"
# Drives the real abpd and abpd-proxy binaries on both topologies and
# both variant daemons (--server-mode blocking, --inline-batch-max 1);
# the harness starts and stops every process it uses.
cargo test --manifest-path benchmark/Cargo.toml

echo "==> ci green"

#!/usr/bin/env sh
# CI gate: build, test, determinism reruns, format check, the
# benchmark package's own tests, then a check that nothing touched the
# benchmark. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> determinism (abp + acceptable-ads + abpd lib tests: 5x default runner; abp + acceptable-ads 2x --test-threads 1; fleet, chaos, service_smoke, connection_scale, hit_path_allocs: 5x release)"
# Tier-1 must be green on every run, not most runs: the two crates whose
# tests compile engines side by side run again and again under both
# schedules, and the first red run fails the stage. abpd's lib tests
# start real servers on the reactors, so they repeat too — and with
# them its proptests (scan kernel ≡ byte loop, arbitrary bytes at the
# message parsers, hot codec ≡ serde), which need no loop of their
# own. The fleet tests kill shards under a live router; chaos and
# service_smoke drive the only evaluation route there is under injected
# panics, torn writes and mid-batch shutdown, connection_scale holds
# 2,000 connections open on the real binary (sockets and timing), and
# hit_path_allocs counts the allocations of a warm all-hit batch (zero)
# under the optimizer that serves it, so all five repeat in release,
# under the default runner.
for run in 1 2 3 4 5; do
    cargo test -q -p abp -p acceptable-ads --lib ||
        { echo "determinism: default-runner run $run failed" >&2; exit 1; }
    cargo test -q -p abpd --lib ||
        { echo "determinism: abpd lib run $run failed" >&2; exit 1; }
done
for run in 1 2; do
    cargo test -q -p abp -p acceptable-ads --lib -- --test-threads 1 ||
        { echo "determinism: --test-threads 1 run $run failed" >&2; exit 1; }
done
for run in 1 2 3 4 5; do
    cargo test -q --release --test fleet ||
        { echo "determinism: fleet run $run failed" >&2; exit 1; }
    cargo test -q --release --test chaos --test service_smoke --test connection_scale --test hit_path_allocs ||
        { echo "determinism: chaos + service_smoke + connection_scale + hit_path_allocs run $run failed" >&2; exit 1; }
done

echo "==> urlkit differential at 4096 cases (byte-level Url::parse and registrable_domain_str = the char-pattern reference)"
PROPTEST_CASES=4096 cargo test -q --release -p urlkit

echo "==> abp at 4096 cases in release (engine differential, whole-token soundness, token table = reference walk)"
# The token table's candidates, and the whole-token property of
# Pattern::tokens it rests on, checked under the optimizer that serves
# them; the engine differential arms run here in release too.
PROPTEST_CASES=4096 cargo test -q --release -p abp

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> one newline finder, one unsafe island"
# Every newline search on the serving path is abp::scan::memchr, and
# poll.rs stays the only file that opts back into unsafe: under the
# crate-wide #![deny(unsafe_code)] that proves wire.rs's scan kernel is
# safe Rust.
if grep -rnF "position(|&b| b == b'\n')" crates/abpd/src crates/abpd-proxy/src; then
    echo "a byte-at-a-time newline search is back: use abp::scan::memchr" >&2
    exit 1
fi
if grep -rln "allow(unsafe_code)" crates/abpd/src crates/abpd-proxy/src | grep -v '/poll\.rs$'; then
    echo "allow(unsafe_code) outside poll.rs" >&2
    exit 1
fi

echo "==> one module decides which codec reads which message"
# The cold messages are read by serde and the hot ones by the scanner,
# and wire.rs alone makes that call: no other non-test code of abpd or
# abpd-proxy (code above a file's first #[cfg(test)]) calls the serde
# parser.
if find crates/abpd/src crates/abpd-proxy/src -name '*.rs' ! -name wire.rs ! -name proptests.rs \
    -exec awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\((all\()?test/ { live = 0 }
        live && /serde_json::(from_str|parse_value)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' {} +; then
    echo "serde_json parses a line outside wire.rs: route it through abpd::wire" >&2
    exit 1
fi

echo "==> benchmark tests (unit tests + a --quick pass of all six workloads on the release daemons, every reply oracle-checked)"
# Drives the real abpd and abpd-proxy binaries on both topologies and
# both variant daemons, which now select nothing: --server-mode blocking
# and --inline-batch-max 1 are ignored flags (the thread-per-connection
# front and the worker pool they used to force are gone), so both run
# the reactors again. The harness starts and stops every process it
# uses.
cargo test --manifest-path benchmark/Cargo.toml

echo "==> benchmark/ and BENCHMARK.json untouched by the build and the tests"
# A rewritten benchmark/Cargo.lock or an edited adapter must fail CI,
# not ride along with a change to the code they measure.
git diff --exit-code -- benchmark BENCHMARK.json

echo "==> ci green"

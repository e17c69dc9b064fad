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

echo "==> determinism (abp + acceptable-ads + abpd lib tests: 5x default runner; abp + acceptable-ads 2x --test-threads 1; fleet, fleet_connection_scale, chaos, service_smoke, connection_scale, hit_path_allocs, miss_path_allocs, reload_rss: 5x release)"
# Tier-1 must be green on every run, not most runs: the two crates whose
# tests compile engines side by side run again and again under both
# schedules, and the first red run fails the stage. abpd's lib tests
# start real servers on the reactors, so they repeat too — and with
# them its proptests (scan kernel ≡ byte loop, arbitrary bytes at the
# message parsers, hot codec ≡ serde), which need no loop of their
# own. The fleet tests kill shards under a live router; chaos and
# service_smoke drive the only evaluation route there is under injected
# panics, torn writes and mid-batch shutdown, connection_scale holds
# 2,000 connections open on the real binary (sockets and timing) and
# fleet_connection_scale holds as many on the real abpd-proxy binary in
# front of two shards (0.7-1.1 s a run on a 2-vCPU VM); both drills
# hold each binary's resident growth to at most 1,024 B per connection.
# hit_path_allocs and miss_path_allocs count the allocations of a warm
# all-hit batch and of a steady all-miss cycle (zero each) under the
# optimizer that serves them (debug builds of abp cross-check the
# engine with allocating reference walks), and reload_rss holds a
# shard's VmRSS after 20 served corpus reloads to its boot VmRSS +
# 4 MiB (about 1 s a run), so all eight repeat in release, under the
# default runner.
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
    cargo test -q --release --test fleet --test fleet_connection_scale ||
        { echo "determinism: fleet + fleet_connection_scale run $run failed" >&2; exit 1; }
    cargo test -q --release --test chaos --test service_smoke --test connection_scale --test hit_path_allocs --test miss_path_allocs --test reload_rss ||
        { echo "determinism: chaos + service_smoke + connection_scale + hit_path_allocs + miss_path_allocs + reload_rss run $run failed" >&2; exit 1; }
done

echo "==> urlkit differential at 4096 cases (byte-level Url::parse and registrable_domain_str = the char-pattern reference)"
PROPTEST_CASES=4096 cargo test -q --release -p urlkit

echo "==> abp at 4096 cases in release (engine differential, whole-token soundness, token table = reference walk, host index = linear suffix reference)"
# The token table's candidates, and the whole-token property of
# Pattern::tokens it rests on, and the host index (gate and scope hits
# equal a linear urlkit::is_same_or_subdomain_of walk over every
# registered domain; hosts sharing a plan key are alike to every element
# rule), checked under the optimizer that serves them; the engine
# differential arms run here in release too.
PROPTEST_CASES=4096 cargo test -q --release -p abp

echo "==> abpd wire_equivalence at 4096 cases in release (hot codec = serde, canonical readers = field walker, foreign reply layouts)"
# The canonical readers and the field walker they fall back to, checked
# against serde and each other under the optimizer that serves them.
PROPTEST_CASES=4096 cargo test -q --release -p abpd --lib wire_equivalence

echo "==> abpd cache on the whole natural stream in release (service payloads: one shard >= 0.90, two halves >= 0.98)"
# The tier-1 test replays one request in eight of the stream; its
# ignored twin, the same function, replays all 400,128. It reuses the
# release build of the stage above: ~2 s on a 2-vCPU VM.
cargo test -q --release -p abpd --lib -- --ignored service_payloads_hold_the_natural_stream_unsampled

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

echo "==> one socket front"
# Both binaries serve through abpd::reactor: the proxy accepts no
# connection and frames no request line of its own, so it never walks a
# listener's incoming() or reads lines with read_line_limited.
if grep -rn -e '\.incoming()' -e 'read_line_limited' crates/abpd-proxy/src; then
    echo "abpd-proxy has a socket front of its own: answer on abpd::reactor" >&2
    exit 1
fi

echo "==> one failure detector"
# The proxy routes to a shard slot if and only if the slot is healthy:
# a failed exchange marks it down, and only a successful probe marks it
# up again. No second detector (a circuit breaker with its open,
# half-open and closed states) gates routing beside the flag.
if grep -rni -e 'breaker' -e 'half_open' -e 'open_until' crates/abpd-proxy/src; then
    echo "abpd-proxy has a second failure detector: route on the healthy flag alone" >&2
    exit 1
fi

echo "==> one client"
# abpd::Client is the only client: each typed call writes one line and
# reads its reply, and a caller that pipelines writes raw lines
# (send_raw / read_reply_raw), as benchmark/ does. No retrying twin and
# no pipelined calls come back beside it.
if grep -rn -e 'RetryClient' -e 'RetryPolicy' -e 'ItemAnswer' -e '_pipelined' crates/abpd/src crates/abpd-proxy/src; then
    echo "a second client or a pipelined call is back: pipeline on raw lines through abpd::Client" >&2
    exit 1
fi

echo "==> one measurement stack: no criterion suite"
# The paper's outputs come from repro and the examples, and the served
# path is measured by benchmark/ alone: no workspace manifest declares
# a [[bench]] target or names criterion, and the vendored criterion
# stand-in stays deleted.
if grep -rn --include=Cargo.toml -e '^\[\[bench\]\]' -e 'criterion' Cargo.toml crates vendor; then
    echo "a criterion bench is back: measure in benchmark/, print paper outputs from repro or an example" >&2
    exit 1
fi
if [ -e vendor/criterion ]; then
    echo "vendor/criterion is back" >&2
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

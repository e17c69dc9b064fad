#!/usr/bin/env sh
# CI gate: build, test, format check, then a short end-to-end smoke of
# the abpd daemon under synthesized load. Run from the repo root.
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

echo "==> abpd smoke (~2s of synthesized traffic over localhost TCP)"
./target/release/abpd --addr 127.0.0.1:0 >/tmp/abpd-ci.log 2>&1 &
ABPD_PID=$!
# The server prints "abpd: listening on ADDR"; wait for it, then scrape
# the bound address so port 0 works.
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^abpd: listening on \([^ ]*\).*$/\1/p' /tmp/abpd-ci.log)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "abpd never reported its address:" >&2
    cat /tmp/abpd-ci.log >&2
    kill "$ABPD_PID" 2>/dev/null || true
    exit 1
fi
./target/release/abpd-load --addr "$ADDR" --decisions 100000 --shutdown
wait "$ABPD_PID"

echo "==> engine bench (quick mode, writes BENCH_engine.json, enforces speedup bars)"
# The untokenized bar gates against the committed pre-anchor-automaton
# baseline (crates/bench/baselines/engine_anchor_baseline.json). The
# anchor-hostile and hiding bars gate against the pre-tail-optimization
# baseline (crates/bench/baselines/engine_tail_baseline.json): the
# required-literal prefilter must hold >=4x on the anchor-hostile
# corpus and the compiled hiding plans >=3x on both hiding corpora,
# while match_10k and document_gate stay within 10% of that baseline.
# --min-tenant-ratio arms the multi-tenant contract: one compiled
# engine serves the whole 1M-user subscription population at >= 0.9x
# the same run's match_10k rate, compiling exactly once with <= 64
# bytes of incremental state per tenant.
./target/release/engine_bench --quick --out BENCH_engine.json \
    --min-untokenized-speedup 4 --min-anchor-hostile-speedup 4 \
    --min-hiding-speedup 3 --min-tenant-ratio 0.9

echo "==> service bench (pipelined abpd-load, writes BENCH_service.json)"
./target/release/abpd-load --decisions 60000 --batch 256 --pipeline 8 \
    --connections 2 --out BENCH_service.json

echo "==> tenant bench (1M-user population striped over one engine, appended to BENCH_service.json)"
# Stripes the same traffic over a million-user subscription population
# so nearly every request carries a distinct tenant mask, then gates on
# the multi-tenant contract: zero cross-tenant cache hits, zero tenant
# affinity misses, and throughput >= 0.9x the committed single-config
# baseline (crates/bench/baselines/service_bench_baseline.json) even
# though tenant fan-out guts the cache hit rate.
./target/release/abpd-load --decisions 60000 --batch 256 --pipeline 8 \
    --tenants 1000000 --append-tenants BENCH_service.json \
    --min-tenant-ratio 0.9

echo "==> scaling bench (event-mode reactors at 1/2/4, curve appended to BENCH_service.json)"
# Boots a fresh in-process event-mode server per reactor count and
# drives it with 2x connections. Gates against the committed
# crates/bench/baselines/service_scaling_baseline.json: the 1-reactor
# rate must stay within 10% of the blocking-path baseline always; the
# 2.5x 4-vs-1 bar arms only on hosts with >= 4 cores (on fewer cores
# extra reactors measure the scheduler, not the server).
./target/release/abpd-load --scaling 1,2,4 --decisions 200000 \
    --batch 256 --pipeline 8 --append-scaling BENCH_service.json

echo "==> chaos smoke (fault-armed event-mode server, availability appended to BENCH_service.json)"
# 1% eval panics + 1% 10ms eval stalls + reply-path torn writes and
# disconnects, against the reactor wire path; the retrying load client
# must still land (almost) every decision. --max-error-rate fails the
# stage if more than 1% of requests end unanswered, shed, or rejected.
ABPD_FAULTS="panic=10000,delay=10000,delay_ms=10,torn=500,disconnect=500,seed=42" \
    ./target/release/abpd --addr 127.0.0.1:0 --server-mode event \
    >/tmp/abpd-chaos.log 2>&1 &
CHAOS_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^abpd: listening on \([^ ]*\).*$/\1/p' /tmp/abpd-chaos.log)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "chaos abpd never reported its address:" >&2
    cat /tmp/abpd-chaos.log >&2
    kill "$CHAOS_PID" 2>/dev/null || true
    exit 1
fi
./target/release/abpd-load --addr "$ADDR" --decisions 100000 --batch 64 \
    --pipeline 8 --reply-timeout-ms 10000 --max-error-rate 0.01 \
    --append-availability BENCH_service.json --shutdown
wait "$CHAOS_PID"

echo "==> crash-recovery smoke (crash-armed snapshot write, restart from --state-dir)"
# Drives the real abpd binary through the durability contract with
# single-shot --admin commands. Stage A arms crash=1000000: the first
# snapshot save after boot (the reload's) aborts the process mid-write,
# exactly like a power cut. The previous snapshot must survive the torn
# write, and the restarted daemon must serve the pre-reload state byte
# for byte. Stage B does a clean reload + restart: the reloaded state
# must come back, not the seed.
STATE_DIR="/tmp/abpd-ci-state.$$"
rm -rf "$STATE_DIR"

scrape_addr() {
    # $1 = log file, $2 = pid to reap if the address never appears.
    _addr=""
    for _ in $(seq 1 50); do
        _addr=$(sed -n 's/^abpd: listening on \([^ ]*\).*$/\1/p' "$1")
        [ -n "$_addr" ] && break
        sleep 0.1
    done
    if [ -z "$_addr" ]; then
        echo "abpd never reported its address:" >&2
        cat "$1" >&2
        kill "$2" 2>/dev/null || true
        exit 1
    fi
    echo "$_addr"
}

health_checksum() {
    ./target/release/abpd-load --admin health --addr "$1" \
        | sed -n 's/.*"list_checksum":\([0-9]*\).*/\1/p'
}

ABPD_FAULTS="crash=1000000,seed=7" ./target/release/abpd --addr 127.0.0.1:0 \
    --state-dir "$STATE_DIR" >/tmp/abpd-crash.log 2>&1 &
CRASH_PID=$!
ADDR=$(scrape_addr /tmp/abpd-crash.log "$CRASH_PID")
L0=$(./target/release/abpd-load --admin decide --addr "$ADDR" --sample 7)
C0=$(health_checksum "$ADDR")
# The armed crash aborts the daemon inside this reload's snapshot save;
# the command fails on the severed connection, which is the point.
./target/release/abpd-load --admin reload --addr "$ADDR" \
    --rules "||crash-test.example^" >/dev/null 2>&1 || true
wait "$CRASH_PID" 2>/dev/null || true

./target/release/abpd --addr 127.0.0.1:0 --state-dir "$STATE_DIR" \
    >/tmp/abpd-recover.log 2>&1 &
RECOVER_PID=$!
ADDR=$(scrape_addr /tmp/abpd-recover.log "$RECOVER_PID")
R0=$(./target/release/abpd-load --admin decide --addr "$ADDR" --sample 7)
RC0=$(health_checksum "$ADDR")
if [ "$L0" != "$R0" ] || [ "$C0" != "$RC0" ]; then
    echo "crash recovery diverged from the pre-crash state:" >&2
    echo "  decide  pre '$L0'" >&2
    echo "  decide post '$R0'" >&2
    echo "  checksum pre=$C0 post=$RC0" >&2
    exit 1
fi

./target/release/abpd-load --admin reload --addr "$ADDR" \
    --rules "||crash-test.example^" >/dev/null
C1=$(health_checksum "$ADDR")
if [ "$C1" = "$C0" ]; then
    echo "clean reload did not change the serving checksum ($C1)" >&2
    exit 1
fi
L1=$(./target/release/abpd-load --admin decide --addr "$ADDR" --sample 7)
./target/release/abpd-load --admin shutdown --addr "$ADDR" >/dev/null
wait "$RECOVER_PID"

./target/release/abpd --addr 127.0.0.1:0 --state-dir "$STATE_DIR" \
    >/tmp/abpd-reboot.log 2>&1 &
REBOOT_PID=$!
ADDR=$(scrape_addr /tmp/abpd-reboot.log "$REBOOT_PID")
R1=$(./target/release/abpd-load --admin decide --addr "$ADDR" --sample 7)
RC1=$(health_checksum "$ADDR")
if [ "$L1" != "$R1" ] || [ "$C1" != "$RC1" ]; then
    echo "restart lost the reloaded state:" >&2
    echo "  decide  pre '$L1'" >&2
    echo "  decide post '$R1'" >&2
    echo "  checksum pre=$C1 post=$RC1" >&2
    exit 1
fi
./target/release/abpd-load --admin shutdown --addr "$ADDR" >/dev/null
wait "$REBOOT_PID"
rm -rf "$STATE_DIR"

echo "==> fleet stage (3 shards + router, 988-revision delta replay, crash/recover/rejoin drill, writes BENCH_fleet.json)"
# Replays the whole corpus whitelist history through the router as
# ReloadDelta patches (full-reload fallback on base mismatch),
# asserting every shard converges to the same serving checksum and
# that deltas ship <=20% of full-body reload bytes (measured: ~1.5%).
# --state-recovery turns the mid-run chaos kill into a durability
# drill: the victim is crash-armed, killed mid-reload, respawned from
# its on-disk snapshot, checked for decision parity against its
# pre-kill answers, and must rejoin the fleet's serving state via a
# ReloadDelta catch-up (<= --max-delta-ratio of full-body bytes, no
# full-reload fallback). Availability must stay >=99% throughout and
# every healthy shard must answer traffic. All orchestration is
# in-process in abpd-load, so one command is the whole stage.
./target/release/abpd-load --fleet 3 --fleet-chaos --state-recovery \
    --replay-revisions 988 \
    --decisions 200000 --batch 256 --pipeline 4 --connections 2 \
    --max-error-rate 0.01 --max-delta-ratio 0.2 --out BENCH_fleet.json

echo "==> ci green"

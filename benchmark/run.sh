#!/usr/bin/env bash
# Build the release daemons and the harness, then run the benchmark.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--quick] [--out PATH]
#   benchmark/run.sh --compare A.json B.json
#
# Without --workload all six workloads run in turn. With it, the last
# line of standard output is the one-line JSON result (see README.md).
# Everything is read and written inside the checkout: build output goes
# to $CARGO_TARGET_DIR when set, else to target/ and benchmark/target/;
# results, span files and daemon state go to benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The programs under test: built from this checkout (never from a
# workspace further up), in release.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p abpd -p abpd-proxy
# The harness: a package of its own, outside the root workspace.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/abp-benchmark" \
    --bin-dir "${CARGO_TARGET_DIR:-target}/release" "$@"

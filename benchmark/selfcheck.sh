#!/usr/bin/env bash
# A/A check of the benchmark itself: the whole suite twice on the same
# build, the second time in reverse workload order. Fails if any
# end-to-end metric of the two sets differs by more than its own bound,
# or any exact metric differs at all. Extra arguments (--seed N,
# --seconds S, --workload W) are passed through.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- selfcheck "$@"

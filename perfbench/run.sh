#!/usr/bin/env bash
# Build the benchmark from source and run it, from the repository root:
#   bash perfbench/run.sh --workload serve_http --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10 --seeds 1,2
# Build output goes to stderr, so the last line of stdout is the result.
# The shared dune cache is off so that the build writes only under _build.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

#!/usr/bin/env bash
# Build the HTH binaries and the benchmark from source, then run
# one workload:
#
#   bash perfbench/run.sh --workload cold_run --seed 1 --seconds 30 --trace 0
#
# Run from the root of a source tree.  Build output goes to stderr, so
# the last line of stdout is hth_bench's JSON result.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./bin/hth_run.exe ./bin/hth_serve.exe ./perfbench/hth_bench.exe \
  ./perfbench/hb_calib.exe 1>&2
exec ./_build/default/perfbench/hth_bench.exe "$@"

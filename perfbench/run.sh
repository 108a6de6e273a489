#!/usr/bin/env bash
# Build the benchmark and the dfserve it drives from this checkout's
# sources, then run one workload.  Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload kernels-sim --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
# Exits non-zero when the build fails or a check does not pass.
set -eu
# keep every build product inside the checkout
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/perfbench.exe ./bin/dfserve.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/perfbench.exe \
  --dfserve ./_build/default/bin/dfserve.exe "$@"

#!/usr/bin/env bash
# Build the benchmark and the server from this checkout, then run one
# workload.  Run from the root of the checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a snowflake checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/perfbench.exe bin/sfserved.exe 1>&2
exec _build/default/perfbench/perfbench.exe --sfserved _build/default/bin/sfserved.exe "$@"

#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it with the given
# arguments, from the root of a checkout:
#   bash bench/e2e/run.sh --workload plan-walk --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh run --seed 1 --trace bench/e2e/_out/trace
# Build output goes to stderr, so the result stays the last line of stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: run from the root of a lams checkout" >&2
  exit 2
fi

dune build --root . --cache=disabled ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"

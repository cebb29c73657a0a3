#!/usr/bin/env bash
# Alternating base-vs-change pairs of the end-to-end benchmark
# (bench/e2e), from the root of a checkout:
#   bash tools/bench-pairs.sh BASE [N] [SEED0]
# Exports revision BASE with git archive into _e2e/base-src (dune skips
# directories whose names start with "_"), builds bench/e2e/main.exe in
# both trees, then runs `main.exe run --seed S` on both for the N seeds
# S = SEED0 … SEED0+N-1 (default 10 from 1), base first on odd seeds and
# the working tree first on even ones, each from its own tree's root,
# into _e2e/pairs/{base,change}/seed-S.json. Ends with `main.exe
# compare` of the two directories against BENCHMARK.json, which exits 1
# on any worse verdict. Results of an earlier invocation are removed.
set -euo pipefail

base=${1:?usage: tools/bench-pairs.sh BASE [N] [SEED0]}
n=${2:-10}
seed0=${3:-1}

if [ ! -f dune-project ] || [ ! -f BENCHMARK.json ]; then
  echo "tools/bench-pairs.sh: run from the root of a lams checkout" >&2
  exit 2
fi

root=$(pwd)
rm -rf _e2e/base-src _e2e/pairs
mkdir -p _e2e/base-src _e2e/pairs/base _e2e/pairs/change
git archive "$base" | tar -x -C _e2e/base-src
dune build --root . --cache=disabled ./bench/e2e/main.exe
dune build --root _e2e/base-src --cache=disabled ./bench/e2e/main.exe

# run SIDE SEED: one full `main.exe run` of that side's tree.
run() {
  local dir=$root
  [ "$1" = base ] && dir=$root/_e2e/base-src
  echo "== $1, seed $2" >&2
  (cd "$dir" && ./_build/default/bench/e2e/main.exe run --seed "$2" \
    --out "$root/_e2e/pairs/$1/seed-$2.json")
}

for ((s = seed0; s < seed0 + n; s++)); do
  if ((s % 2)); then run base "$s"; run change "$s"
  else run change "$s"; run base "$s"; fi
done

./_build/default/bench/e2e/main.exe compare _e2e/pairs/base \
  _e2e/pairs/change --spec BENCHMARK.json

# Convenience entry points; everything is plain dune underneath.

.PHONY: all check test bench bench-json smoke fuzz-quick chaos-quick \
	native-quick serve-quick adaptive-quick paper-checks bench-e2e \
	bench-compare bench-pairs doc clean

all:
	dune build @all

test:
	dune runtest

# CI entry point: full build, full test suite, then the metrics smoke
# (an instrumented `lams metrics` / `lams verify --metrics` run, see
# bin/dune) so the observability path is exercised end to end, the
# quick differential fuzz campaign (bin/dune @fuzz), the quick
# chaos runs (bin/dune @chaos: scheduled-under-faults vs legacy), and
# the paper's evaluation as checks (bench/dune @table1 @table2). Those
# last two time code: run `make check` on an otherwise idle machine.
check:
	dune build @all
	dune runtest
	dune build @smoke
	dune build @fuzz
	dune build @chaos
	dune build @native
	dune build @serve
	dune build @adaptive
	dune build @table1
	dune build @table2

# The paper's Table 1 and Table 2 verdicts, quick form: every cell
# repeated with its algorithms (or shapes) interleaved, and the ratio's
# lower quartile asserted (Sorting/Lattice > 1 for k >= 16; 8(a) over
# the best test-based shape >= 3). One alias at a time: two timing
# checks must not share the cores. The full form is
# `dune exec bench/main.exe -- table1 --check` (and table2).
paper-checks:
	dune build @table1
	dune build @table2

smoke:
	dune build @smoke

# Quick deterministic fuzz campaign (seed 42, 400 cases). CI's
# build-and-test job follows it with the acceptance campaign,
# `dune exec -- lams fuzz --seed 42 --budget 1000`.
fuzz-quick:
	dune build @fuzz

# Quick chaos runs: a lossy fabric with planned crashes (fixed seed,
# small budget) plus an all-rates-zero run that must stay bit-identical
# to the plain executor; any scheduled/legacy divergence fails the
# build. The heavier acceptance sweep,
# `dune exec -- lams fuzz --seed 42 --budget 1000` (chaos rounds
# included), runs in CI's build-and-test job.
chaos-quick:
	dune build @chaos

# Native conformance acceptance sweep: 500 corner-biased instances
# compiled with the system cc and diffed bit-for-bit against the
# interpreter, plus every supported example program. Skips cleanly
# (exit 0) on hosts without a C compiler; the smaller always-on pass
# is `dune build @native` (see bin/dune).
native-quick:
	dune exec -- lams native-check --seed 42 --budget 500

# Serving gate: fork a `lams serve` daemon on a Unix socket, drive the
# quick Zipf load through it twice (cold, then warmed), SIGTERM it, and
# fail on any protocol error or a warmed hit rate below 90%; then the
# same with 64 clients, 16 connections per worker domain. Throughput
# and latency are measured by the end-to-end benchmark's serve-zipf
# workload (make bench-e2e).
serve-quick:
	dune build @serve

# Adaptive-scheduling gate: cost-aware rounds vs the cost-blind baseline
# on heterogeneous fabrics at reduced size. The bench asserts every gate
# inside: perfect-fabric neutrality (bit-identical messages), the
# sick-pair tick speedup (>= 1.3x), the one-slow-link model speedup
# (>= 1.3x weighted critical path at p = 32), and a zero-divergence
# convergence sweep against the legacy oracle. The committed
# BENCH_adaptive.json comes from the full run,
# `dune exec bench/main.exe -- adaptive --json BENCH_adaptive.json`.
adaptive-quick:
	dune build @adaptive

bench:
	dune exec bench/main.exe

# End-to-end benchmark (bench/e2e/README.md): every workload, each in a
# fresh child process, results under OUT (one seed per invocation;
# SEED defaults to 1). Compare two directories of >= 5 results files
# each with bench-compare, which exits 1 on any *worse* verdict:
#   make bench-e2e OUT=_e2e/a SEED=3
#   make bench-compare A=_e2e/a B=_e2e/b
SEED ?= 1
bench-e2e:
	@test -n "$(OUT)" || { echo "usage: make bench-e2e OUT=dir [SEED=n]" >&2; exit 2; }
	mkdir -p $(OUT)
	dune exec bench/e2e/main.exe -- run --seed $(SEED) --out $(OUT)/seed-$(SEED).json

bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=dir B=dir" >&2; exit 2; }
	dune exec bench/e2e/main.exe -- compare $(A) $(B) --spec BENCHMARK.json

# Base-vs-change pairs (tools/bench-pairs.sh): BASE exported with git
# archive into _e2e/base-src, both trees built, N >= 5 seeds from SEED0
# run alternately (odd seeds base first) into _e2e/pairs/{base,change}/,
# then the pair wins per metric (tools/pair_wins.ml: wins out of N,
# quartiles, whether the claim rule holds) and the comparison
# bench-compare makes:
#   make bench-pairs BASE=HEAD~1 N=10 SEED0=1
N ?= 10
SEED0 ?= 1
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [N=10] [SEED0=1]" >&2; exit 2; }
	bash tools/bench-pairs.sh $(BASE) $(N) $(SEED0)

# Regenerate the bench artifacts with quick parameters (the committed
# BENCH_*.json files were produced by the full sweeps, e.g.
# `dune exec bench/main.exe -- codegen --json BENCH_codegen.json`).
bench-json:
	dune exec bench/main.exe -- codegen --quick --json BENCH_codegen.json
	dune exec bench/main.exe -- adaptive --quick --json BENCH_adaptive.json

doc:
	dune build @doc

clean:
	dune clean

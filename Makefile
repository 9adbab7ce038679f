# Convenience wrappers around dune. `make ci` is what CI runs.

.PHONY: build test profile-smoke parallel-smoke bytecode-smoke vector-smoke swpipe-smoke layout-smoke perf-smoke serve-smoke search-smoke bench golden ci clean

build:
	dune build

test:
	dune runtest

# Run the profiler CLI end-to-end (simulate + verify + JSON/trace export)
# on one kernel per supported architecture; fails on non-zero exit.
profile-smoke:
	dune build @profile-smoke

# Parallel oracle check (`simulate --check 4`): a 4-domain bytecode run
# of a small tensor-core GEMM must be bit-identical (counters, report,
# trace, buffers) to the 1-domain tree oracle.
parallel-smoke:
	dune build @parallel-smoke

# Oracle check (`simulate --check 2`): the bytecode engine at 1 and 2
# domains must reproduce the tree oracle's counters, reports, traces and
# buffers on a small tensor-core GEMM, and the lower listing must
# include the flattened bytecode summary.
bytecode-smoke:
	dune build @bytecode-smoke

# Lower GEMM/FMHA with the vectorize pass on and off: the plan listing
# prints per-atomic vector widths and legality verdicts.
vector-smoke:
	dune build @vector-smoke

# Software-pipelining smoke: lower the tensor-core GEMM at a 3-stage
# request (the plan listing shows the rotating-buffer rewrite) and hold
# the pipelined plan to the tree oracle with `simulate --check 2` —
# counters, reports, traces and outputs must be bit-identical and the
# outputs must match the CPU reference.
swpipe-smoke:
	dune build @swpipe-smoke

# Walk the CuTe layout algebra and self-check every result against the
# conformance corpus (see docs/LAYOUT.md).
layout-smoke:
	dune build @layout-smoke

# Quick tree-vs-plan bit-identity smoke on shrunken shapes (exits
# nonzero on any counter/output mismatch).
perf-smoke:
	dune build @bench/perf-smoke

# Continuous-batching serving smoke: a small seeded traffic trace served
# twice must produce identical deterministic metrics (see docs/SERVING.md).
serve-smoke:
	dune build @bench/serve-smoke

# Schedule-space search smoke: a seeded three-tier search over tiny GEMM
# and FMHA problems run twice (deterministic trajectory, verified
# winners, fixed-sweep baseline beaten — see docs/TUNING.md), plus the
# CLI `tune` path end-to-end (with `--profile 1`).
search-smoke:
	dune build @bin/search-smoke @bench/search-smoke

bench:
	dune exec bench/main.exe

# Regenerate golden files (CUDA listings, profiler report) after an
# intentional output change.
golden:
	dune exec bin/gen_golden.exe

ci:
	dune build @ci

clean:
	dune clean

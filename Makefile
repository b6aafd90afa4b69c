# Tier-1 verification and common entry points. CI (.github/workflows/ci.yml)
# runs the same commands; `make tier1` is the local equivalent.

.PHONY: tier1 build test clippy hygiene benchmark-check bench examples tables soak synth serve clean

tier1: build test

build:
	cargo build --release

test:
	cargo test -q

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Idioms that were deleted and must not grow back: an SPMD body returns
# its per-rank values (`cl.run` / `w.run` hand back a Vec in rank
# order), so the kernels share nothing that needs a lock;
# trace::stall_json had no caller; a protocol policy returns its
# decision and dsm alone counts and traces it (no PolicyStats in adapt,
# no in-policy log); loss is a CostModel field, not a thread-local;
# dsm's fetch classes are simnet::FetchKind, not a mirror enum; simulated
# processors are coroutines on the launching thread (simnet::Rendezvous),
# so nothing under simnet/dsm/chaos spawns a thread or parks on a
# condvar; the only unsafe code is the coroutine switch and serve's
# counting allocator; the record store is read without allocating
# (collect_into into the fetch's per-processor scratch, the master copy
# lent in place by with_master / with_horizon); and Validate's
# Read_indices is one walk over the section (FlatIndices, runs of equal
# indirection page, one bitmap per page) whose page math is a shift.
hygiene:
	@if grep -rn "Mutex" crates/apps/src crates/synth/src; then \
		echo "hygiene: return per-rank values from the SPMD body instead of locking"; exit 1; fi
	@if grep -rn "stall_json" crates/; then \
		echo "hygiene: trace::stall_json is deleted; check_conservation is the stall API"; exit 1; fi
	@if grep -rn "PolicyStats" crates/adapt/src; then \
		echo "hygiene: a policy returns its EpochDecision; dsm's barrier_tagged is the only PolicyStats writer"; exit 1; fi
	@if grep -rn "EpochLog\|page_history" crates/; then \
		echo "hygiene: the policy keeps no flight recorder; PolicyReport and the trace are the record"; exit 1; fi
	@if grep -n "thread_local" crates/simnet/src/net.rs; then \
		echo "hygiene: loss is CostModel::loss_per_mille / loss_seed, not an ambient thread-local"; exit 1; fi
	@if grep -rn "enum FetchClass" crates/dsm; then \
		echo "hygiene: dsm::FetchClass is simnet::FetchKind; add tables as methods beside that enum"; exit 1; fi
	@if grep -rn "thread::spawn\|thread::scope\|Condvar" crates/simnet/src crates/dsm/src crates/chaos/src; then \
		echo "hygiene: simulated processors are coroutines scheduled by simnet::Rendezvous; block with wait_then/yield_now, not an OS thread or a condvar"; exit 1; fi
	@if grep -rnw "unsafe" crates/ | grep -v "^crates/simnet/src/coroutine.rs:\|^crates/serve/src/alloc.rs:"; then \
		echo "hygiene: unsafe lives only in simnet/src/coroutine.rs and serve/src/alloc.rs"; exit 1; fi
	@if grep -rn "collect_batch\|master_fetch\b\|master_horizon\|struct Collected" crates/; then \
		echo "hygiene: read the store with collect_into / with_master / with_horizon into the fetch scratch; nothing on the fault path allocates"; exit 1; fi
	@if grep -rnw "flat_indices" crates/ || grep -rn "HashMap<u32, PageSet>" crates/; then \
		echo "hygiene: Read_indices walks FlatIndices once and groups entries by run of indirection page; no index Vec, no per-entry hash"; exit 1; fi
	@if grep -n "/ page_size\|% page_size" crates/core/src/validate.rs; then \
		echo "hygiene: Validate's page numbers come from a shift (page sizes are powers of two)"; exit 1; fi

# benchmark/ is a standalone package (not a workspace member) built
# against crates/*: a refactor that breaks the call surface it uses
# fails here with a compiler error, not later in the benchmark pipeline.
benchmark-check:
	cargo build --release --offline --manifest-path benchmark/Cargo.toml
	cargo test --offline --manifest-path benchmark/Cargo.toml

# The one scoreboard for host time: the repo benchmark (BENCHMARK.json,
# benchmark/README.md) runs all four workloads, printing end-to-end and
# per-layer metrics. Exact simulated counts are not snapshotted — they
# are pinned by tier-1 golden tests (apps/tests/golden_counts.rs,
# synth/tests/scenarios.rs) and the table bins' own acceptance bars.
bench:
	cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --all

examples:
	cargo run --release --example quickstart
	cargo run --release --example adaptive
	cargo run --release --example moldyn -- --quick
	cargo run --release --example nbf -- --quick
	cargo run --release --example synth
	cargo run --release --example umesh
	cargo run --release --example compiler_pipeline
	cargo run --release --example validate_interface

# Paper tables at quick scale (drop --quick for the paper's exact sizes).
tables:
	cargo run --release -p bench --bin table1 -- --quick
	cargo run --release -p bench --bin table2 -- --quick
	cargo run --release -p bench --bin table_adapt -- --quick
	cargo run --release -p bench --bin table_synth -- --quick
	cargo run --release -p bench --bin overhead1p -- --quick
	cargo run --release -p bench --bin figures
	cargo run --release -p bench --bin ablation -- --quick

# The full synthetic scenario grid at paper scale, churn cells (regime
# breaks, rebalances) included (minutes; the --quick form runs in
# seconds and is part of `make tables` and CI soak).
synth:
	cargo run --release -p bench --bin table_synth

# The throughput service at quick scale: 200 jobs over the 30-cell grid
# on a work-stealing pool, every job bitwise-checked against cold
# goldens (~4 s here). Drop --quick for the nightly 60 s window at
# paper scale.
serve:
	cargo run --release -p bench --bin table_serve -- --quick

# Nightly-style depth: high-case-count property tests (failures print a
# PROPTEST_SEED for exact replay and a shrunk minimal input) + the
# adaptive, scenario-matrix, and serve acceptance smokes.
soak:
	PROPTEST_CASES=512 cargo test -q -p chaos -p dsm -p adapt -p sdsm-core
	PROPTEST_CASES=96 cargo test -q -p synth
	PROPTEST_CASES=256 cargo test -q -p serve
	cargo run --release -p bench --bin table_adapt -- --quick
	cargo run --release -p bench --bin table_synth -- --quick
	cargo run --release -p bench --bin table_serve -- --quick

clean:
	cargo clean

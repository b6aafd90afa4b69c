# Tier-1 verification and common entry points. CI (.github/workflows/ci.yml)
# runs the same commands; `make tier1` is the local equivalent.

.PHONY: tier1 build test clippy doc fmt-check hygiene benchmark-check bench examples tables soak synth serve clean

tier1: build test

build:
	cargo build --release

test:
	cargo test -q

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# The API docs build without a warning: no broken or private intra-doc
# link.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The tree is rustfmt's output (default settings, every workspace
# member, vendor/ included; benchmark/ is not a member).
fmt-check:
	cargo fmt --all --check

# Idioms that were deleted and must not grow back: an SPMD body returns
# its per-rank values (`cl.run` / `w.run` hand back a Vec in rank
# order), so the kernels share nothing that needs a lock;
# trace::stall_json had no caller; a protocol policy returns its
# decision and dsm alone counts and traces it (no PolicyStats in adapt,
# no in-policy log); a Net's state is its own fields, not a
# thread-local; dsm's fetch classes are simnet::FetchKind, not a mirror enum; simulated
# processors are coroutines on the launching thread (simnet::Rendezvous),
# so nothing under simnet/dsm/chaos spawns a thread or parks on a
# condvar (comments are exempt: the compile_fail doc examples spawn one
# to show that the compiler refuses it); the only unsafe code is the coroutine switch and serve's
# counting allocator; the record store is read without allocating
# (collect_into into the fetch's per-processor scratch, the master copy
# lent in place by with_master); Validate's
# Read_indices is one walk over the section (FlatIndices, runs of equal
# indirection page, one data-page bitmap per schedule), and it rescans
# the whole section when the watch fires,
# as the paper's does: no incremental mode (Validator::incremental,
# partial_scans) and no per-watch page list (take_modified_pages,
# watch_dirty) — it kept a stale superset; and
# a cluster's state is plain single-thread data (Cell / RefCell / Rc),
# so simnet/dsm/chaos hold no lock or atomic outside their tests, and
# dsm/chaos no Arc (simnet's Arc<dyn TraceSink> is shared with the
# tracer's owner and stays). The awk greps stop at each file's first
# #[cfg(test)]. A simulated processor is a sequential program, as in
# the paper, and bench's table bins fan out row groups with
# std::thread::scope: no crate depends on the rayon shim (benchmark/
# still does until it drops it), serve and trace lock
# through std::sync (the vendored parking-lot shim is gone; lockfiles
# and the history documents may still name it), and a served job takes
# exactly one ThreadBudget token, never spares. A page's consistency
# metadata scales with its writers, not the cluster: the diff store is
# page-major (no per_proc arenas in store.rs), and the fault path walks
# no horizon per processor. Barriers are the only synchronization, as in
# the paper's programs: no lock API, no scheduler yield, no lock stall
# bucket, message kind, trace event or counter, and none of the
# consistency paths only a lock acquire reached (apply_notices,
# range_bytes, CompactVc, last_barrier_seen). With barriers the only
# acquire, dsm names an interval by writer and barrier epoch: no vector
# clock on the host (vc_key, Rc<[u32]> clocks and horizon snapshots,
# with_horizon) and no per-writer applied pairs or floor in a page
# frame (applied_of, floor:); the wire still bills TreadMarks's vector
# timestamps. There is one wire encoding, simnet::Pod (dsm and sdsm_core
# re-export it), and one CHAOS exchange, ChaosProc::exchange, which
# stores Pod values straight into the receiver's reused inbox: no
# per-type entry points (exchange_f64, exchange_u32), no byte round trip
# (encode_f64/decode_f64, encode_u32/decode_u32), no per-peer grouping
# into vectors (group_csr), and no second trait Pod. Both runtimes run
# on one simulated machine: Net::new builds the cluster's one Rendezvous
# (no Rendezvous::new outside simnet), Net::bill_barrier bills every
# barrier (no bill_sync, no count_only loop), a fetch is a
# parallel_round (no request_response or CostModel::round_trip), and
# host counts are read as net().rendezvous().generation() / launches()
# (no rendezvous_crossings or spmd_launches). CostModel is a pure timing
# model: no workload dropped a message, so the lossy-link model is gone
# (no loss_per_mille, loss_seed, bill_retry or StallCat::Retry); a
# report carries no scenario label (set_label); and the adaptive
# engine promotes after two agreeing gaps and demotes on the first clean
# probe, fixed (no promote_after or demote_after knob), and has one
# tuning: its probe cadence and quiesce streak are private constants and
# the variant picks push (no AdaptConfig, quiesce_after, or probe_every
# field or access). umesh and every synth cell run one owner-side
# relaxation kernel, apps::relax: umesh
# builds no cluster or CHAOS world and calls neither validate nor the
# inspector itself, and no second accumulate or incident_lists grows
# back outside crates/apps/src/relax.rs. moldyn and nbf run one
# pair-force kernel, apps::pair: neither builds a cluster or CHAOS
# world nor calls validate, the inspector or scatter_add itself. CHAOS keeps what the paper's
# programs run: a partition is a block layout (BLOCK, and RCB with its
# renumbering), a translation table is replicated or distributed, and
# the CYCLIC partitioner, the almost-owner-computes rule, the owner
# vector's remap (from_owners, owner_of_new) and the paged table are
# gone. CHAOS has one executor, as the paper's CHAOS localizes: a local
# array is the owned block then the ghosts (no two-vector Ghosted, no
# Loc enum, no per-app gather3/scatter3), a reference is one
# CommSchedule::localize index, and only chaos itself translates an
# element to its (owner, offset) pair (translate_free). rsd keeps what
# fcc and Validate run: the compiler merges symbolic sections with its
# own hull, so there is no concrete-section algebra (fn intersect, hull,
# iter_points or iter_flat, ext_gcd); a PageSet is a sorted Vec that
# sort + dedup canonicalizes, with no bitmap planner
# (bitmap_canonicalize, estimate_distinct); and fcc spells its own
# access names, so core has no AccessType::fortran_name. Page sizes are
# powers of two, so Validate, the software MMU and the applications'
# Tmk loops (core/src/validate.rs, dsm/src, apps/src) take page and
# slot numbers from a shift and a mask, never a division by a run-time
# page size. The relaxation kernel's Tmk loop reads and writes its
# shared pair list in page runs, as the pair kernel's does, not one
# read_array or two stores per pair (the reference element loops in the
# unit tests are exempt).
ONE_THREAD_SRC = crates/simnet/src/*.rs crates/dsm/src/*.rs crates/chaos/src/*.rs
NO_ARC_SRC = crates/dsm/src/*.rs crates/chaos/src/*.rs
APPS_SRC = crates/apps/src/*.rs crates/apps/src/*/*.rs
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
		echo "hygiene: a Net's state lives in its own fields, not an ambient thread-local"; exit 1; fi
	@if grep -rn "enum FetchClass" crates/dsm; then \
		echo "hygiene: dsm::FetchClass is simnet::FetchKind; add tables as methods beside that enum"; exit 1; fi
	@if grep -rn "thread::spawn\|thread::scope\|Condvar" crates/simnet/src crates/dsm/src crates/chaos/src | grep -v "^[^:]*:[0-9]*: *//"; then \
		echo "hygiene: simulated processors are coroutines scheduled by simnet::Rendezvous; block with wait_then, not an OS thread or a condvar"; exit 1; fi
	@if grep -rnw "unsafe" crates/ | grep -v "^crates/simnet/src/coroutine.rs:\|^crates/serve/src/alloc.rs:"; then \
		echo "hygiene: unsafe lives only in simnet/src/coroutine.rs and serve/src/alloc.rs"; exit 1; fi
	@if grep -rn "collect_batch\|master_fetch\b\|master_horizon\|struct Collected" crates/; then \
		echo "hygiene: read the store with collect_into / with_master into the fetch scratch; nothing on the fault path allocates"; exit 1; fi
	@if grep -rnw "flat_indices" crates/ || grep -rn "HashMap<u32, PageSet>" crates/; then \
		echo "hygiene: Read_indices walks FlatIndices once and groups entries by run of indirection page; no index Vec, no per-entry hash"; exit 1; fi
	@if grep -rnE " [/%] (self\.)?page(_size)?\b" crates/core/src/validate.rs crates/dsm/src crates/apps/src; then \
		echo "hygiene: page and slot numbers come from a shift and a mask (page sizes are powers of two): dividing by the run-time page size in TmkProc's address split made moldyn's Tmk base build 40 % slower (64 -> 87-93 ms per run at table1 --quick)"; exit 1; fi
	@if awk '/#\[cfg\(test\)\]/ { nextfile } /read_array::<i32, 2>\(&ilist|p\.write\(ilist/ { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit !bad }' $(APPS_SRC); then \
		echo "hygiene: relax reads and writes its pair list in page runs (read_slice / write_slice into a stack buffer): a read_array per pair and two p.write per pair cost steady4 27 % of its jobs_per_s (207 against 283 jobs/s, median of 6 paired 20 s benchmark runs on a 2-core x86-64 host)"; exit 1; fi
	@if grep -rnwE "Validator::incremental|take_modified_pages|partial_scans|watch_dirty" crates/; then \
		echo "hygiene: Validate rescans the whole section when its watch fires, as the paper's does; a watch is one flag"; exit 1; fi
	@if awk '/#\[cfg\(test\)\]/ { nextfile } /Mutex|RwLock|Atomic/ { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit !bad }' $(ONE_THREAD_SRC); then \
		echo "hygiene: a cluster runs on one thread; keep its state in Cell / RefCell, not a lock or an atomic"; exit 1; fi
	@if awk '/#\[cfg\(test\)\]/ { nextfile } /Arc/ { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit !bad }' $(NO_ARC_SRC); then \
		echo "hygiene: dsm and chaos share within one thread; use Rc, not Arc"; exit 1; fi
	@if grep -rn "rayon" crates/; then \
		echo "hygiene: no crate depends on the rayon shim; a simulated processor is sequential, and bench fans row groups out with std::thread::scope"; exit 1; fi
	@if grep -rn "parking[_]lot" --exclude-dir=target --exclude=Cargo.lock crates src examples tests vendor benchmark Cargo.toml .github ; then \
		echo "hygiene: the vendored parking-lot shim is deleted; lock through std::sync, recovering with PoisonError::into_inner"; exit 1; fi
	@if grep -rn "try_acquire_up_to" crates/; then \
		echo "hygiene: a served job takes exactly one ThreadBudget token, no spares"; exit 1; fi
	@if grep -n "per_proc" crates/dsm/src/store.rs; then \
		echo "hygiene: the diff store is page-major (logs[page] lists the page's writers), not per-processor arenas"; exit 1; fi
	@if grep -n "horizon\.iter()\.enumerate()" crates/dsm/src/proc.rs; then \
		echo "hygiene: no per-processor walk in the fault path; a frame's consistency state is its synced epoch"; exit 1; fi
	@if grep -rnE "yield_now|LockWait|MsgKind::Lock|TraceEvent::Lock|lock_acquires|LockMgr|apply_notices|range_bytes|CompactVc|last_barrier_seen|p\.lock\(|p\.unlock\(" crates examples tests src; then \
		echo "hygiene: barriers are the only synchronization; locks and the paths only a lock acquire reached are deleted"; exit 1; fi
	@if grep -rnE "vc_key|applied_of|floor:|with_horizon|Rc<\[u32\]>" crates/dsm/src; then \
		echo "hygiene: dsm names an interval by writer and barrier epoch; no host vector clocks, horizon snapshots or per-writer frame pairs"; exit 1; fi
	@if grep -rnE "exchange_f64|exchange_u32|encode_f64|decode_f64|encode_u32|decode_u32|group_csr" crates/; then \
		echo "hygiene: ChaosProc::exchange is the one CHAOS exchange; it stores simnet::Pod values straight into the receiver's inbox"; exit 1; fi
	@if grep -rn "trait Pod\b" crates/ | grep -v "^crates/simnet/src/pod.rs:"; then \
		echo "hygiene: Pod is defined once, in simnet; dsm and sdsm_core re-export it"; exit 1; fi
	@if grep -rn "Rendezvous::new(" crates examples tests src | grep -v "^crates/simnet/src/"; then \
		echo "hygiene: Net::new builds a cluster's one Rendezvous; reach it through net().rendezvous()"; exit 1; fi
	@if grep -rnwE "bill_sync|count_only|request_response|round_trip|rendezvous_crossings|spmd_launches" crates/; then \
		echo "hygiene: Net::bill_barrier bills every barrier, a fetch is a parallel_round, and host counts are net().rendezvous().generation() / launches()"; exit 1; fi
	@if grep -rnE "\b(loss_per_mille|loss_seed|bill_retry|set_label|promote_after|demote_after|AdaptConfig|quiesce_after)\b|StallCat::Retry\b|\bprobe_every:|\.probe_every\b" crates examples tests src; then \
		echo "hygiene: CostModel is a pure timing model (no lossy links or Retry stall), a report has no scenario label, and the adaptive engine has one tuning: fixed thresholds, AdaptivePolicy::new(push) takes only the mode"; exit 1; fi
	@if grep -rnE "Cluster::new|ChaosWorld::new|validate\(|inspector\(" crates/apps/src/umesh/; then \
		echo "hygiene: umesh runs on apps::relax, the one owner-side relaxation kernel; it has no runner of its own"; exit 1; fi
	@if grep -rnE "Cluster::new|ChaosWorld::new|validate\(|inspector\(|scatter_add\(" crates/apps/src/moldyn/ crates/apps/src/nbf/; then \
		echo "hygiene: moldyn and nbf run on apps::pair, the one pair-force kernel; they have no runner of their own"; exit 1; fi
	@if grep -rnE "fn (accumulate|incident_lists)\b" crates/ | grep -v "^crates/apps/src/relax.rs:"; then \
		echo "hygiene: the owner-side accumulation and incident lists live only in apps::relax"; exit 1; fi
	@if grep -rnwE "Paged|from_owners|owner_of_new|cyclic_partition|assign_iterations_almost_owner" crates/; then \
		echo "hygiene: a chaos::Partition is a block layout (block_partition, rcb_partition, Partition::from_starts) and a TTable is Replicated or Distributed"; exit 1; fi
	@if grep -rnE "\bGhosted\b|enum Loc\b|\bLoc::|fn (gather3|scatter3)\b" crates/; then \
		echo "hygiene: a CHAOS local array is the owned block then the ghosts, indexed by CommSchedule::localize; chaos::gather / scatter_add with a width are the one executor"; exit 1; fi
	@if grep -rn "translate_free" crates/ | grep -v "^crates/chaos/"; then \
		echo "hygiene: outside chaos a reference is CommSchedule::localize's local index, not an (owner, offset) translation"; exit 1; fi
	@if grep -rnE "fn (intersect|hull|iter_points|iter_flat)\b|ext_gcd" crates/rsd/; then \
		echo "hygiene: rsd has no concrete-section algebra; fcc merges symbolic sections with its own hull_sym"; exit 1; fi
	@if grep -rnE "bitmap_canonicalize|estimate_distinct" crates/rsd/; then \
		echo "hygiene: a PageSet is a sorted Vec canonicalized by sort + dedup; Read_indices keeps its own bitmap"; exit 1; fi
	@if grep -rn "fortran_name" crates/core/; then \
		echo "hygiene: fcc spells its own access names; core's AccessType carries only whole_pages"; exit 1; fi

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
	cargo run --release -p bench --bin figures

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
	PROPTEST_CASES=512 cargo test -q -p chaos -p dsm -p adapt -p rsd -p sdsm-core
	PROPTEST_CASES=96 cargo test -q -p synth
	PROPTEST_CASES=256 cargo test -q -p serve
	cargo run --release -p bench --bin table_adapt -- --quick
	cargo run --release -p bench --bin table_synth -- --quick
	cargo run --release -p bench --bin table_serve -- --quick

clean:
	cargo clean

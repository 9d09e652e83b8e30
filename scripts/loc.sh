#!/usr/bin/env bash
# Non-test Rust line counts of the layers ROADMAP aim 2 tracks, plus the
# gates that keep each decision written down once:
#
#   * every layer listed in scripts/loc_budget must stay within its budget;
#   * one execution engine: each engine marker (a call or construction that
#     the pool and the service each used to spell out themselves) may occur
#     at most once in non-test runtime code;
#   * one host driver: "self-scheduling workers + one clock thread over a
#     table of `DagRun`s behind one lock" is written once, in `service.rs`
#     — one `worker_loop`, one `timer_loop`, workers spawned at one
#     `spawn_scoped` and no thread spawned anywhere else but the service's
#     timer; the scoped pool's own state, its no-respawn error and the
#     detached-worker spawner stay deleted, tests included; `pool.rs` holds
#     no thread or lock at all; the workers schedule themselves: no `mpsc`
#     (no manager round trip per task, no channel per job), none of the
#     service's old wire types anywhere in the crate, and no small-job
#     batching: every job is a `DagRun`;
#   * one cost vocabulary: `dag::cost` defines the Fig. 4 curve, table and
#     class; no second definition and no bridge function anywhere else;
#   * one JSON reader and one string escaper in `crates/obs`;
#   * one entry point per kernel: only the `*_ws` functions are public;
#   * one vector backend, picked by runtime detection: no `simd` cargo
#     feature, no `autovec` tier, one `unsafe` file in `crates/kernels`; and
#     one vector body per primitive, instantiated per width and element
#     type: no `f64`-only gate (`fn supported`, which tested `TypeId`) and
#     no load-mask table (`TAIL_MASK`) beside the native masks;
#   * one apply path: the update kernels are the level-3 register tiles, so
#     the level-1.5 sweeps they replaced stay deleted; and Qᵀ applies
#     multiply by a stored Tᵀ: the factor kernels write `Tᵀ` (lower
#     triangular), so `TᵀW` is an outer-product tile and no kernel hands the
#     factor to a tile as an upper-triangular operand again; and
#     factorization updates multiply by a stored −V₂ᵀ: an elimination task
#     with two or more trailing updates leaves `−V₂ᵀ` for them, and
#     `StagedTask::compute_with`
#     forms their `W` on the outer-product tile and never reaches the
#     public `tsmqr_apply_ws` / `ttmqr_apply_ws` (the dot-product form
#     every apply after the factorization keeps);
#   * one factor path: GEQRT/TSQRT/TTQRT share one recursive routine with
#     one reflector loop (`larfg` has one call site in the kernels),
#     and the inner block size is derived, not an option — no `ib` knob, no
#     second factor format, in library, tests or benches;
#   * one benchmark system: speed claims are `perf/` rows, so the frozen
#     seed kernels, the global-lock baseline runtime and the `BENCH_*.json`
#     of the retired `cargo bench` targets stay deleted, and one way to name
#     a tree: `EliminationTree`, no legacy `EliminationOrder`;
#   * one road from a calibrated profile to a plan (`core::tune` ->
#     `select_plan`): no selector hook in the service, no second tuner, and
#     the k-identical-cores question goes to `dag::listsim`, so nothing in
#     `sched` or `obs` puts a bus behind a one-device question;
#   * one road for measured costs into a run: the tile size and tree the
#     tuner selects — no drift re-weighting, no cost or drift field on a
#     public config, and the helpers nothing called (`ReadyQueue::for_policy`,
#     `RunReport::lock_fraction`, `CostModel::name`) stay deleted;
#   * fair share in one unit: the service charges every job its kernel
#     flops, so no cost-model type, setter or weight helper and no tuning
#     tag (`CostModel`, `cost_model`, `model_weight`, `JobTuning`) appears
#     in any `.rs` under `crates/`, `tests/` or `examples/`, tests included;
#   * one dispatch order: the driver runs FIFO, so no policy type, config
#     or report field, testkit policy axis or second flop vocabulary (the
#     explorer's `flop_weight` mirror) comes back.
#   * one way into a one-shot run: `parallel_factor_traced` over a
#     `PoolConfig` that carries the fault-tolerance budget; the other entry
#     points, the service shims of `TiledQr`/`QrOptions`, their run-field
#     getters and the no-op injector stay deleted, tests included (the
#     test seams go through the doc-hidden `run_pool`).
#   * one flat DAG: `TaskGraph` keeps its edges in CSR arrays built from a
#     dense tile table, so no `HashMap` in non-test `dag/src/graph.rs`, and
#     no access set returns a `Vec<TileCoord>` anywhere in non-test
#     `crates/dag` (a build allocates per tile, not per task).
#   * one planner entry per algorithm: a healthy plan is a plan with an
#     empty blacklist, so no `_excluding` twin, `plan_degraded` or
#     `tcomm_us_grid`; nothing plans with a device-memory model or the
#     uncalibrated `xeon_phi` profile, and nothing reads per-task or
#     per-class service latencies, so those stay deleted, tests included;
#     and one panel loop: `simulate_fast` is the fault-free adaptive run.
#   * one sorted lane run: the fast simulator keeps each device's lane free
#     times as one ascending run scanned from the back, so no binary heap
#     comes back to its lane pool (the reference heap lives in its tests).
#   * one bus: both simulators charge the per-panel batched copy of Eq. 11
#     (`Link::batch_time_us`, one setup per source, destination and panel),
#     so no per-message overhead or `Platform` pass-through for bus time
#     comes back anywhere, tests, examples and the benchmark included.
#   * one copy per fenced write: preserving staging copies into a tile a
#     commit displaced, the outputs travel to the fence unboxed, and an
#     attempt times only its kernel (driver-lock waits are timed by the
#     driver, and only when contended) — so no `Box<CompletedTask`, no
#     fresh `Arc::new` around a read tile, and no per-attempt wait field.
#   * one factor state: `FactorState` keeps every tile and factor in its
#     own slot, and one stage body and one commit body serve `run_all`, the
#     pool and the service, so no second state type (`SharedFactorState`)
#     and no conversion into or out of one (`into_state`) in non-test code
#     under `crates/`.
#   * one road to a slot: a worker stages and commits inside the driver's
#     critical section, through the same `&mut` stage and commit bodies
#     `run_all` takes, and carries only its staged task — so no `Mutex`,
#     `lock_slot`, `Locked` or `trait Road` in non-test `exec.rs`, and no
#     `Arc<FactorState` or `finalize_pending` (a finished job waiting for a
#     straggler's state handle) in non-test `crates/runtime`.
#   * one tree builder: TSQR is `Plateau(⌈√mt⌉)`, built by `build_tree` like
#     every other tree, so no `EliminationTree::Tsqr` variant and no
#     `build_tsqr` in any `.rs` under `crates/`, `tests/` or `examples/`,
#     tests included.
#
# "Non-test" = the lines of each src/*.rs before its first `#[cfg(test)]`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test part of one file, prefixed `path:line:` like grep -n.
non_test() {
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$1"
}

# Non-test part of every src/*.rs under the given directories.
non_test_all() {
    local f
    for f in $(find "$@" -path '*/src/*' -name '*.rs' | sort); do
        non_test "$f"
    done
}

count() {
    non_test_all "$@" | wc -l
}

status=0
fail() {
    echo "FAIL: $1" >&2
    [ -z "${2:-}" ] || echo "$2" >&2
    status=1
}

# `layer budget` lines; `a+b` sums the two directories.
while read -r layer budget; do
    n=$(count ${layer//+/ })
    printf '%-26s %6d  (budget %d)\n' "$layer" "$n" "$budget"
    [ "$n" -le "$budget" ] || fail "$layer has $n non-test lines, budget is $budget"
done < <(grep -v '^#' scripts/loc_budget)

# `where` (directories) must hold exactly `want` non-test lines matching
# the extended regex `pattern`.
expect() {
    local want=$1 pattern=$2 what=$3 hits n
    shift 3
    hits=$(non_test_all "$@" | grep -E "$pattern" || true)
    n=$(printf '%s' "$hits" | grep -c . || true)
    [ "$n" -eq "$want" ] || fail "$what: found $n, want $want" "$hits"
}

# error.rs declares and prints `RetriesExhausted`; everything else in the
# crate may only *construct* it, once.
markers=('\.before_attempt\(' 'stage_preserving\(' 'RetriesExhausted \{' '\.backoff\(')
for marker in "${markers[@]}"; do
    hits=$(for f in crates/runtime/src/*.rs; do
        [ "$(basename "$f")" = error.rs ] || non_test "$f"
    done | grep -E "$marker" || true)
    n=$(printf '%s' "$hits" | grep -c . || true)
    [ "$n" -le 1 ] || fail "engine marker /$marker/ occurs $n times in non-test runtime code:" "$hits"
done

# One driver. Tests count for the deleted names, so that one is a plain grep.
if hits=$(grep -rnE 'struct PoolState|AllWorkersDead|fn spawn_worker\b' crates); then
    fail "the scoped pool's own driver is back (a one-shot run is a one-job instance of service.rs):" "$hits"
fi
expect 1 'fn worker_loop\b' "worker loops in the runtime" crates/runtime
expect 1 'fn timer_loop\b' "clock loops in the runtime" crates/runtime
expect 1 'spawn_scoped' "places a worker thread is spawned" crates/runtime
expect 1 'thread::spawn|\.spawn\(' "detached spawns (QrService::start's timer is the one)" crates/runtime
expect 0 'mpsc' "channels in the runtime (workers self-schedule)" crates/runtime
hits=$(non_test crates/runtime/src/pool.rs | grep -E 'Mutex|Condvar|BinaryHeap|catch_unwind|thread::scope|spawn' || true)
[ -z "$hits" ] || fail "pool.rs is config, report, entry points and the inline path; threads and locks live in service.rs:" "$hits"
expect 0 'TaskDone|Work::Task|EpilogueDone' "manager/worker wire types of the service" crates/runtime
expect 0 'SmallJob|PendingBatch|Unit::Batch|batch_max_|run_small' \
    "small-job batching (a second path through the service)" crates/runtime

expect 0 'struct (KernelTiming|StepTimes)|fn (class_costs|step_times_of|class_slot)\b' \
    "mirror of the dag::cost vocabulary" crates
expect 1 'enum KernelClass\b' "definitions of KernelClass" crates
expect 1 'fn (parse_)?value\(' "JSON value parsers in crates/obs" crates/obs
expect 1 'fn skip_ws\b' "JSON whitespace skippers in crates/obs" crates/obs
expect 1 "'\\\\n' => .*push_str" "JSON string escapers in crates/obs" crates/obs
expect 0 'pub fn (geqrt|geqrt_apply|unmqr|tsqrt|tsmqr|tsmqr_apply|ttqrt|ttmqr|ttmqr_apply)<' \
    "allocating (non-_ws) kernel entry points" crates/kernels

# Tests, benches and manifests count here too, so this one is a plain grep.
if hits=$(grep -rnE 'feature = "simd"|^simd = \[' crates --include='*.rs' --include=Cargo.toml); then
    fail "the \`simd\` cargo feature is back (the FMA core is picked by runtime detection):" "$hits"
fi
expect 0 'mod autovec\b' "the autovec tier" crates/kernels
hits=$(grep -rl 'allow(unsafe_code)' crates/kernels/src || true)
[ "$hits" = crates/kernels/src/micro/simd.rs ] ||
    fail "allow(unsafe_code) under crates/kernels/src belongs to micro/simd.rs alone:" "$hits"
expect 0 'fn supported\b|TAIL_MASK' \
    "the f64-only vector gate / the AVX2 tail-mask table (one generic vector body)" crates/kernels
expect 0 '\b(axpyf_sub|axpyf_tri_sub|axpyf_lo_sub|dotf_lo|apply_tfac_in_place)\b' \
    "level-1.5 apply primitives (the update kernels are gemm_tn/gemm_nn_sub tiles)" crates/kernels
expect 0 '\(t[0-9]*, Shape::Upper' \
    "Qᵀ applies multiply by a stored Tᵀ (the factor \`t\`/\`t11\`/\`t22\` as a Shape::Upper operand)" crates/kernels
hits=$(non_test crates/kernels/src/exec.rs |
    awk '/fn compute_with\(/ { on = 1 } on { print } on && /:    }$/ { on = 0 }' |
    grep -E '\b(tsmqr|ttmqr)_apply_ws\b' || true)
[ -z "$hits" ] || fail "factorization updates multiply by a stored −V₂ᵀ (StagedTask::compute_with reaches the public pair-update entry):" "$hits"

# Tests and benches count for the knob, like the `simd` feature above.
if hits=$(grep -rnE 'geqrt_ib|PanelFactor|inner_block|with_inner_block' crates --include='*.rs' --include=Cargo.toml); then
    fail "the inner-block option is back (the factor kernels derive their blocking from the tile width):" "$hits"
fi
# (`reference.rs` is the paper's Algorithm 1, the oracle the tests compare
# against, not a kernel.)
hits=$(for f in $(find crates/kernels/src -name '*.rs' ! -name householder.rs ! -name reference.rs | sort); do
    non_test "$f"
done | grep -E '\blarfg\(' || true)
n=$(printf '%s' "$hits" | grep -c . || true)
[ "$n" -eq 1 ] || fail "larfg( call sites in the kernels: found $n, want 1 (one reflector loop):" "$hits"

# Tests, benches and examples count here too.
if hits=$(grep -rnE 'legacy_kernels|global_lock_factor|EliminationOrder' crates tests examples); then
    fail "a retired name is back (seed kernels, global-lock baseline, legacy elimination order):" "$hits"
fi
# Tests and examples count for the retired names, like `EliminationOrder`.
road='start_with_tree_selector|TreeSelector|fn (tree_selector|choose_tree|predict_makespan_us|select_candidates|tune_plan)\b'
if hits=$(grep -rnE "$road" crates tests examples); then
    fail "a second road from a profile to a plan is back (core::tune -> select_plan is the one):" "$hits"
fi
expect 0 'pcie2_x16' "a bus behind a one-device question" crates/sched crates/obs
# Tests and examples count for the retired names here too.
drift='DriftConfig|DriftDetector|drift_reweights|fn (reprioritize|expected_us|for_policy|lock_fraction)\b'
if hits=$(grep -rnE "$drift" crates tests examples); then
    fail "a second road for measured costs is back (the tuner's tile size and tree are the one):" "$hits"
fi
expect 0 'fn name\b' "CostModel::name (nothing called it)" crates/dag/src/cost.rs
expect 0 'pub (cost|drift):' "a public config field carrying a cost model" crates/runtime crates/core
# Tests and examples count here too.
if hits=$(grep -rnE --include='*.rs' 'CostModel|cost_model|model_weight|JobTuning' crates tests examples); then
    fail "a job's fair share is priced in a second unit again (every WFQ charge is kernel flops):" "$hits"
fi
# Tests and examples count for the retired names here too.
order='SchedulePolicy|policies_under_test|TILEQR_TESTKIT_POLICY|fn (get_schedule|base_policy)\b|fn flop_weight\b'
if hits=$(grep -rnE "$order" crates tests examples); then
    fail "a dispatch policy is back beside FIFO (CriticalPath is a DispatchOrder test adversary):" "$hits"
fi
expect 0 'pub policy:' "a public config or report field carrying a dispatch policy" crates/runtime crates/core
# Tests and examples count for the retired names here too.
oneshot='\bparallel_factor(_ft|_ordered)?\b|fn (factor_on|to_service_config|get_workers|get_fault_tolerance|get_tracing)\b|NoFaults'
if hits=$(grep -rnE "$oneshot" crates tests examples); then
    fail "a second way into a one-shot run is back (parallel_factor_traced is the one):" "$hits"
fi
expect 1 'pub fn parallel_factor' "public one-shot entry points" crates/runtime
# Tests and examples count for the retired names here too.
twins='fn \w+_excluding\b|plan_degraded|tcomm_us_grid|with_device_memory|memory_feasible|fits_memory|fn xeon_phi|task_latency|class_latency'
if hits=$(grep -rnE "$twins" crates tests examples); then
    fail "a second planner entry or a capability nothing reads is back (a healthy plan is a plan with an empty blacklist):" "$hits"
fi
expect 1 'for k in 0\.\.kmax' "panel loops in the fast simulator (simulate_fast is the fault-free adaptive run)" \
    crates/sched/src/fastsim.rs crates/sched/src/replan.rs
expect 0 'BinaryHeap' "a heap in the fast simulator's lane pool (one sorted run)" crates/sched/src/fastsim.rs
expect 0 'HashMap' "hash maps in the DAG builder (the tile table is dense)" crates/dag/src/graph.rs
expect 0 '[-]> Vec<TileCoord>' "allocating access sets (reads/writes return Tiles)" crates/dag
# Tests, examples and the benchmark count here too.
if hits=$(grep -rnE --include='*.rs' 'message_latency_us|message_time_us|fn (batch_)?transfer_time_us' \
    crates tests examples perf); then
    fail "a second bus regime is back (one batched copy per stream, priced by Link::batch_time_us):" "$hits"
fi
expect 0 'Box<CompletedTask|Arc::new\(\(\*self\.read_tile' \
    "a boxed output or a fresh allocation per fenced tile copy" crates/kernels crates/runtime
hits=$(non_test crates/runtime/src/engine.rs |
    awk '/pub struct Attempt[<{ ]/ { on = 1 } on && /(stage|commit)_wait/ { print } on && /:}$/ { on = 0 }')
[ -z "$hits" ] || fail "Attempt clocks its stage or commit again (lock waits are the driver's):" "$hits"
expect 0 'SharedFactorState|into_state\b' \
    "one factor state (a second state type or a conversion into one is back)" crates
hits=$(non_test crates/kernels/src/exec.rs | grep -E 'Mutex|lock_slot|Locked|trait Road' || true)
[ -z "$hits" ] || fail "one road to a slot (the factor state's slots are plain; stage and commit run under the driver's lock):" "$hits"
expect 0 'Arc<FactorState|finalize_pending' \
    "one road to a slot (a worker carries its staged task, never the job's state)" crates/runtime
# Tests and examples count here too.
if hits=$(grep -rnE --include='*.rs' 'build_tsqr|EliminationTree::Tsqr\b' crates tests examples); then
    fail "one tree builder (TSQR is Plateau(tsqr_domain(mt)), built by build_tree):" "$hits"
fi
hits=$(ls BENCH_*.json 2>/dev/null | grep -vx BENCH_trees.json || true)
[ -z "$hits" ] || fail "BENCH_*.json of a retired bench target at the root (speed claims are perf/ rows):" "$hits"
exit $status

#!/usr/bin/env bash
# Non-test Rust line counts of the layers ROADMAP aim 2 tracks, plus the
# gates that keep `crates/runtime` at one execution engine:
#
#   * `crates/runtime` must stay within the budget in scripts/loc_budget;
#   * each engine marker (a call or construction that the pool and the
#     service each used to spell out themselves) may occur at most once
#     in non-test runtime code;
#   * the pool's workers schedule themselves under one lock: no `mpsc`
#     (no manager round trip per task) in non-test `pool.rs`.
#
# "Non-test" = the lines of each src/*.rs before its first `#[cfg(test)]`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test part of one file, prefixed `path:line:` like grep -n.
non_test() {
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$1"
}

count() {
    local total=0 f
    for f in $(find "$@" -path '*/src/*' -name '*.rs' | sort); do
        total=$((total + $(non_test "$f" | wc -l)))
    done
    echo "$total"
}

runtime=$(count crates/runtime)
echo "crates/runtime            $runtime"
echo "crates/sched + crates/sim $(count crates/sched crates/sim)"
echo "crates/kernels            $(count crates/kernels)"

status=0
budget=$(grep -v '^#' scripts/loc_budget | tr -d '[:space:]')
if [ "$runtime" -gt "$budget" ]; then
    echo "FAIL: crates/runtime has $runtime non-test lines, budget is $budget" >&2
    status=1
fi

# error.rs declares and prints `RetriesExhausted`; everything else in the
# crate may only *construct* it, once.
markers=('\.before_attempt\(' 'stage_preserving\(' 'RetriesExhausted \{' '\.reprioritize\(' '\.backoff\(')
for marker in "${markers[@]}"; do
    hits=$(for f in crates/runtime/src/*.rs; do
        [ "$(basename "$f")" = error.rs ] || non_test "$f"
    done | grep -E "$marker" || true)
    n=$(printf '%s' "$hits" | grep -c . || true)
    if [ "$n" -gt 1 ]; then
        echo "FAIL: engine marker /$marker/ occurs $n times in non-test runtime code:" >&2
        echo "$hits" >&2
        status=1
    fi
done

if hits=$(non_test crates/runtime/src/pool.rs | grep mpsc); then
    echo "FAIL: mpsc in non-test pool.rs (workers must self-schedule, not be fed over channels):" >&2
    echo "$hits" >&2
    status=1
fi
exit $status

#!/usr/bin/env sh
# Compares a freshly generated bench scoreboard (BENCH_parallel.json, or
# any earlier-generation file with a "results" block) against a baseline
# copy and fails if any named benchmark regressed by more than the
# allowed percentage. Used by the CI bench-smoke job to gate PRs on the
# training hot path:
#
#   scripts/bench.sh 1x                            # writes BENCH_parallel.json
#   scripts/bench_check.sh /tmp/bench_baseline.json BENCH_parallel.json \
#       BenchmarkTable3_FLRoundBERT,BenchmarkTable2_ForwardBERT 25
#
# The benchmark argument is a comma-separated list; the default gates
# both scoreboard headliners (the FL round and the forward pass, so a
# kernel change cannot trade one for the other unnoticed). An entry of
# the form "A/B" is a same-file pair instead: 100*(A-B)/B must not exceed
# the budget, both read from the fresh file (the baseline is ignored for
# pairs) — an overhead bound, not a regression bound, so it cannot be
# defeated by a slow baseline. A positive budget bounds a variant against
# its control (reconcile round vs plain round, +2: at most 2% slower). A
# negative budget bounds a part against the whole: -95 means A may cost at
# most 5% of B, which is how CI gates one durable WAL append against the
# plain FL round (the WAL-backed round itself is tracked in the same file
# but not gated):
#
#   scripts/bench_check.sh BENCH_parallel.json BENCH_parallel.json \
#       BenchmarkWALAppend/BenchmarkTable3_FLRoundLSTM -95
#
# Both files only need a "results" object keyed by benchmark name, so a
# BENCH_arena.json baseline from an older base commit still gates a fresh
# BENCH_parallel.json. The default budget for the hot paths is +25%
# (same-runner comparisons; the fork-join runtime must never cost more
# than that even on single-core runners where it cannot win).
#
# Exit status: 0 when within budget, 1 on regression or missing data.
set -eu

BASELINE="${1:?usage: bench_check.sh baseline.json fresh.json benchmarks max_regression_pct}"
FRESH="${2:?missing fresh.json}"
BENCHES="${3:-BenchmarkTable3_FLRoundBERT,BenchmarkTable2_ForwardBERT}"
MAXPCT="${4:-25}"

# extract <file> <bench> pulls ns_per_op for one benchmark out of the
# "results" object (the baseline blocks in the JSON repeat benchmark names,
# so only lines inside "results" count).
extract() {
    awk -v bench="\"$2\":" '
        /"results": \{/ { inres = 1 }
        inres && index($0, bench) {
            if (match($0, /"ns_per_op": [0-9]+/)) {
                print substr($0, RSTART + 13, RLENGTH - 13)
                exit
            }
        }
    ' "$1"
}

status=0
for BENCH in $(printf '%s' "$BENCHES" | tr ',' ' '); do
    case "$BENCH" in
    */*)
        # Pair mode: gate A against B within the fresh results.
        A="${BENCH%%/*}"
        B="${BENCH#*/}"
        a_ns="$(extract "$FRESH" "$A")"
        b_ns="$(extract "$FRESH" "$B")"
        if [ -z "$a_ns" ] || [ -z "$b_ns" ]; then
            echo "bench_check: pair $BENCH missing from fresh results $FRESH" >&2
            status=1
            continue
        fi
        awk -v a="$a_ns" -v b="$b_ns" -v maxpct="$MAXPCT" -v pa="$A" -v pb="$B" '
            BEGIN {
                pct = 100 * (a - b) / b
                printf "bench_check: %s %.0f ns/op vs %s %.0f ns/op (%+.1f%%, budget %+g%%)\n",
                    pa, a, pb, b, pct, maxpct
                exit (pct > maxpct) ? 1 : 0
            }
        ' || status=1
        continue
        ;;
    esac
    base_ns="$(extract "$BASELINE" "$BENCH")"
    fresh_ns="$(extract "$FRESH" "$BENCH")"
    if [ -z "$base_ns" ]; then
        # A benchmark added in this PR has no baseline yet: report and
        # skip rather than fail, so new entries can join the gate list in
        # the same PR that introduces them.
        echo "bench_check: $BENCH missing from baseline $BASELINE, skipping (new benchmark?)" >&2
        continue
    fi
    if [ -z "$fresh_ns" ]; then
        echo "bench_check: $BENCH missing from fresh results $FRESH" >&2
        status=1
        continue
    fi

    # Integer arithmetic in awk (64-bit doubles are exact well past these
    # magnitudes); regression% = 100 * (fresh - base) / base.
    awk -v base="$base_ns" -v fresh="$fresh_ns" -v maxpct="$MAXPCT" -v bench="$BENCH" '
        BEGIN {
            pct = 100 * (fresh - base) / base
            printf "bench_check: %s baseline %.0f ns/op, fresh %.0f ns/op (%+.1f%%, budget %+g%%)\n",
                bench, base, fresh, pct, maxpct
            exit (pct > maxpct) ? 1 : 0
        }
    ' || status=1
done
exit "$status"

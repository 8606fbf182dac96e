#!/bin/sh
# Alternating parent/change pairs of one olapbench workload, judged on every
# end-to-end metric `BENCHMARK.json` lists, by two rules:
#
# * gain: the change wins at least nine tenths of the pairs (ties count for
#   neither side) and its median beats the parent's by more than the
#   distance between the parent's quartiles;
# * bound: the change's median is worse than the parent's by more than the
#   metric's bound (a share of the parent's median): "over"; else, when the
#   parent's quartiles lie further apart than the bound and some change run
#   reads worse than some parent run, "unresolved"; else "within".
#
# Usage: scripts/pairs.sh <parent-bin> <change-bin> <workload> [pairs=10] [seconds=12]
#
# Each binary is an olapbench build. Pair i runs both with `--seed i`, the
# parent first in odd pairs and the change first in even ones, untraced. Only
# the last line a run prints, the result's JSON, is read.
set -eu
[ $# -ge 3 ] || {
    echo "usage: $0 <parent-bin> <change-bin> <workload> [pairs=10] [seconds=12]" >&2
    exit 2
}
parent=$1 change=$2 workload=$3 pairs=${4:-10} seconds=${5:-12}

# `name better bound`, one line per end-to-end metric: the objects of
# `BENCHMARK.json` that carry a bound.
metrics=$(awk 'BEGIN { RS = "}" }
    function field(key,    at) {
        if (!match($0, "\"" key "\"[ \t\n]*:[ \t\n]*\"?[^\", \t\n]*")) return ""
        at = substr($0, RSTART, RLENGTH)
        sub(/^[^:]*:[ \t\n]*"?/, "", at)
        return at
    }
    field("bound") != "" { print field("name"), field("better"), field("bound") }
' "$(dirname "$0")/../BENCHMARK.json")
[ -n "$metrics" ] || {
    echo "$0: no end-to-end metric in BENCHMARK.json" >&2
    exit 1
}
names=$(printf '%s\n' "$metrics" | awk '{ printf "%s ", $1 }')

# The metrics of one run, in the order of `names`.
run() {
    line=$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1)
    for metric in $names; do
        value=$(printf '%s\n' "$line" |
            sed -n "s/.*\"$metric\":{\"value\":\([-0-9.eE+]*\).*/\1/p")
        [ -n "$value" ] || {
            echo "$0: no $metric in the last line of $1 (seed $2): $line" >&2
            exit 1
        }
        printf '%s ' "$value"
    done
    echo
}

echo "pair side   $names"
i=1
results=""
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run "$parent" "$i")
        c=$(run "$change" "$i")
    else
        c=$(run "$change" "$i")
        p=$(run "$parent" "$i")
    fi
    echo "$i parent $p"
    echo "$i change $c"
    results="${results}p $p
c $c
"
    i=$((i + 1))
done

{
    printf '%s\n' "$metrics" | sed 's/^/m /'
    printf '%s' "$results"
} | awk '
    # Linear interpolation between the order statistics of sorted x[1..n].
    function quantile(x, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? x[n] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
    }
    function sort(x, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && x[j - 1] > x[j]; j--) {
                t = x[j]; x[j] = x[j - 1]; x[j - 1] = t
            }
    }
    $1 == "m" { k++; name[k] = $2; lower[k] = $3 == "lower"; bound[k] = $4; next }
    $1 == "p" { n++; for (m = 1; m <= k; m++) p[m, n] = $(m + 1); next }
    $1 == "c" { for (m = 1; m <= k; m++) c[m, n] = $(m + 1) }
    END {
        for (m = 1; m <= k; m++) {
            wins = 0
            for (i = 1; i <= n; i++) {
                ps[i] = p[m, i]; cs[i] = c[m, i]
                if (lower[m] ? c[m, i] < p[m, i] : c[m, i] > p[m, i]) wins++
            }
            sort(ps, n); sort(cs, n)
            pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
            iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
            gap = lower[m] ? pm - cm : cm - pm
            gain = (wins * 10 >= n * 9 && gap > iqr) ? "yes" : "no"
            worse = pm == 0 ? 0 : -gap / pm
            spread = pm == 0 ? 0 : iqr / pm
            apart = lower[m] ? cs[n] < ps[1] : cs[1] > ps[n]
            verdict = worse > bound[m] ? "over" : spread > bound[m] && !apart ? "unresolved" : "within"
            printf "%s (%s is better)\n", name[m], lower[m] ? "lower" : "higher"
            printf "  parent  median %.4g  quartiles %.4g .. %.4g\n", pm,
                quantile(ps, n, 0.25), quantile(ps, n, 0.75)
            printf "  change  median %.4g  quartiles %.4g .. %.4g\n", cm,
                quantile(cs, n, 0.25), quantile(cs, n, 0.75)
            printf "  change won %d/%d pairs; median gap %.4g against the parent IQR %.4g; gain: %s\n",
                wins, n, gap, iqr, gain
            printf "  median %+.1f%% worse against a bound of %g%%: %s\n", 100 * worse,
                100 * bound[m], verdict
        }
    }'

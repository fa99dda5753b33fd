#!/usr/bin/env bash
# Paired A/B runs of the benchmark: a git revision against the working tree.
#
#   scripts/ab.sh REV WORKLOAD PAIRS [SEED]
#   make ab REV=<rev> WORKLOAD=<workload> PAIRS=<n> [SEED=<n>]
#
# Exports REV (`git archive`) and copies the working tree's files (tracked
# and untracked, not ignored) into two fresh directories under $TMPDIR
# (default /tmp), then runs
#   benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 12 --trace 0
# PAIRS times on each side, alternating which side runs first. Each side
# builds from scratch on its first run. (Timed in place instead, on a
# 2-core box, the working tree read submit_ms 13 % above an export of the
# identical commit, slower in 6 of 6 solve_heavy pairs; from a fresh copy
# it read 2 % above, slower in 3 of 6.) For every end-to-end metric of
# BENCHMARK.json it prints the per-pair values, each side's median and
# quartiles, and how many pairs the working tree won (ties count for
# neither side). A gain holds when the tree wins at least nine tenths of
# the pairs and the medians differ by more than the base's interquartile
# range; the last column says whether both hold. SEED defaults to 42.
# Nothing under benchmark/ is edited; both copies are removed on exit.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REV WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seed="${4:-42}"
case "$pairs" in
    '' | *[!0-9]* | 0)
        echo "PAIRS must be a positive integer, got '$pairs'" >&2
        exit 2
        ;;
esac

root="$(git rev-parse --show-toplevel)"
commit="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
base="$work/base"
change="$work/change"
mkdir "$base" "$change"
git -C "$root" archive "$commit" | tar -x -C "$base"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$change"

results="$work/results.tsv"
: >"$results"

# Runs one side once and appends "pair side metric value" rows.
run_side() {
    local pair="$1" side="$2" dir="$3" line
    echo "pair $pair/$pairs: $side" >&2
    line="$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds 12 --trace 0 | tail -n 1)"
    case "$line" in
        '{"correct":true,'*) ;;
        *)
            echo "$side run $pair did not end with a correct result: $line" >&2
            exit 1
            ;;
    esac
    # Every `"name":{"value":v` of the result line, one per row.
    printf '%s\n' "$line" |
        grep -o '"[^"]*":{"value":[-0-9.eE+]*' |
        sed 's/^"\([^"]*\)":{"value":/\1 /' |
        while read -r name value; do
            printf '%s\t%s\t%s\t%s\n' "$pair" "$side" "$name" "$value" >>"$results"
        done
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side "$pair" base "$base"
        run_side "$pair" change "$change"
    else
        run_side "$pair" change "$change"
        run_side "$pair" base "$base"
    fi
done

# Metric name and direction, in BENCHMARK.json's end-to-end order.
directions="$(awk '
    /"end_to_end"/ { inside = 1; next }
    inside && /^ *\]/ { exit }
    inside && /"name"/ { gsub(/.*"name": *"|".*/, ""); name = $0 }
    inside && /"better"/ { gsub(/.*"better": *"|".*/, ""); print name "\t" $0 }
' "$root/BENCHMARK.json")"

echo "# $workload: ${commit:0:12} (base) vs working tree (change), seed $seed, $pairs pairs"
printf '%s\n' "$directions" | awk -F '\t' -v pairs="$pairs" '
    function sortn(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # Linear-interpolation quantile of the sorted a[1..n].
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        if (lo >= n) return a[n]
        return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    FNR == NR { value[$1, $2, $3] = $4; next }
    {
        name = $1; better = $2
        if (!((1, "base", name) in value)) next
        printf "\n%s (%s is better)\n", name, better
        wins = 0
        for (p = 1; p <= pairs; p++) {
            b[p] = value[p, "base", name]; c[p] = value[p, "change", name]
            printf "  pair %2d  base %14.6f  change %14.6f  (%s first)\n", p, b[p], c[p],
                p % 2 == 1 ? "base" : "change"
            if ((better == "lower" && c[p] < b[p]) || (better == "higher" && c[p] > b[p]))
                wins++
        }
        sortn(b, pairs); sortn(c, pairs)
        bm = quantile(b, pairs, 0.5); cm = quantile(c, pairs, 0.5)
        biqr = quantile(b, pairs, 0.75) - quantile(b, pairs, 0.25)
        printf "  base    median %14.6f  q1 %14.6f  q3 %14.6f\n", bm,
            quantile(b, pairs, 0.25), quantile(b, pairs, 0.75)
        printf "  change  median %14.6f  q1 %14.6f  q3 %14.6f\n", cm,
            quantile(c, pairs, 0.25), quantile(c, pairs, 0.75)
        diff = cm - bm
        gain = (wins * 10 >= pairs * 9) && (diff > biqr || -diff > biqr)
        printf "  change wins %d/%d, median %+.1f %%, |diff| %s base IQR %.6f: %s\n",
            wins, pairs, bm != 0 ? 100 * diff / bm : 0, (diff > biqr || -diff > biqr) ? ">" : "<=",
            biqr, gain ? "gain" : "no claimable gain"
    }
' "$results" -

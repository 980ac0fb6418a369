#!/usr/bin/env bash
# Compare the benchmark at a base revision with the working tree, pair by
# pair, and give the verdict the benchmark's bounds imply.
#
#   scripts/perf_compare.sh <base-rev> --workload W [--pairs N] [--seeds A-B]
#                           [--quick] [--trace] [--work DIR]
#
# <base-rev>'s `perf` is built offline from an exported copy of that commit
# (`git archive`, so no worktree is registered in the repository), the
# working tree's in place. Each seed is one pair: a fresh `perf` process per
# side, strictly alternating, and the side that runs first flips from one
# seed to the next. Seeds default to 1..N; `--seeds A-B` names them (and
# sets N). `--quick` passes through to `perf`; without it every run is
# full length. `--trace` runs `perf --trace 1` and adds the per-layer
# metrics to the table (they get no verdict). `--work DIR` keeps
# the base build and the raw runs in DIR and reuses the build on the next
# call, with every run's result line and its report (stderr); otherwise
# all of it goes to a temporary directory removed on exit.
#
# Output, per end-to-end metric of BENCHMARK.json: each side's quartiles,
# head/base of the medians, pairs the working tree won, and a verdict:
#   worse       the median moved the wrong way by more than the metric's bound;
#   claimed     better in >= 90% of pairs, and the medians differ by more
#               than the base's quartile distance;
#   unresolved  either side's quartile distance exceeds the bound times its
#               median, and not every working-tree run beats every base
#               run: the spread is too wide to tell;
#   unchanged   none of these.
# Exit status 1 when a metric is worse or any operation failed.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,29p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 1 && $1 != -* ]] || usage
base_rev=$1
shift
workload="" pairs="" seeds="" quick=0 trace=0 work=""
while [[ $# -gt 0 ]]; do
    case $1 in
    --workload) workload=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seeds) seeds=$2; shift 2 ;;
    --quick) quick=1; shift ;;
    --trace) trace=1; shift ;;
    --work) work=$2; shift 2 ;;
    *) usage ;;
    esac
done
[[ -n $workload ]] || usage
if [[ -n $seeds ]]; then
    [[ $seeds =~ ^([0-9]+)-([0-9]+)$ ]] || usage
    first=${BASH_REMATCH[1]} last=${BASH_REMATCH[2]}
    ((last >= first)) || usage
    if [[ -n $pairs && $pairs -ne $((last - first + 1)) ]]; then
        echo "--pairs $pairs disagrees with --seeds $seeds" >&2
        exit 2
    fi
else
    first=1 last=${pairs:-10}
fi

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
if [[ -z $work ]]; then
    work=$(mktemp -d "${TMPDIR:-/tmp}/perf_compare.XXXXXX")
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work=$(cd "$work" && pwd)

# --- build both sides -------------------------------------------------------
base_src=$work/$base_sha/src
base_bin=$work/$base_sha/target/release/perf
if [[ ! -x $base_bin ]]; then
    echo "building perf at ${base_sha:0:7} in $work/$base_sha" >&2
    rm -rf "$base_src"
    mkdir -p "$base_src"
    git archive "$base_sha" | tar -x -C "$base_src"
    (cd "$base_src" && CARGO_TARGET_DIR=../target \
        cargo build --release --offline -q -p iluvatar-perf --bin perf)
fi
echo "building perf in the working tree" >&2
cargo build --release --offline -q -p iluvatar-perf --bin perf
head_src=$PWD
head_bin=${CARGO_TARGET_DIR:-$PWD/target}/release/perf
[[ $head_bin == /* ]] || head_bin=$PWD/$head_bin

# --- run the pairs ----------------------------------------------------------
tag=$workload-$first-$last
((trace)) && tag+=-traced
runs=$work/runs-$tag.jsonl
: >"$runs"
flags=(--workload "$workload" --trace "$trace")
((quick)) && flags+=(--quick)

# One fresh process of side $1 on seed $2; appends its result to $runs.
run_side() {
    local side=$1 seed=$2 src bin line
    if [[ $side == base ]]; then src=$base_src bin=$base_bin; else src=$head_src bin=$head_bin; fi
    # perf writes its span files under crates/perf/out of the directory it
    # runs in, so each side runs in its own tree.
    local log=$work/$tag-$side-$seed.stderr
    line=$(cd "$src" && "$bin" "${flags[@]}" --seed "$seed" 2>"$log" | tail -n 1)
    if ! jq -e .metrics >/dev/null 2>&1 <<<"$line"; then
        echo "perf ($side, seed $seed) printed no result:" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
    jq -c --arg side "$side" --argjson seed "$seed" \
        '{side: $side, seed: $seed, failed, attempted, correct,
          metrics: (.metrics | map_values(.value))}' <<<"$line" >>"$runs"
    echo "  $side seed $seed: $(jq -c '{failed} + (.metrics | with_entries(.value |= .value)
        | {capacity_ips, overhead_p50_us, ctx_switches_per_inv: ."process.ctx_switches_per_inv"}
        | with_entries(select(.value != null)))' <<<"$line")" >&2
}

for ((seed = first; seed <= last; seed++)); do
    if (((seed - first) % 2 == 0)); then order=(base head); else order=(head base); fi
    echo "pair seed $seed: ${order[0]} first" >&2
    run_side "${order[0]}" "$seed"
    run_side "${order[1]}" "$seed"
done

# --- summarise --------------------------------------------------------------
jq -rn --slurpfile runs "$runs" --slurpfile bench BENCHMARK.json \
    --arg workload "$workload" --arg base "${base_sha:0:7}" --argjson trace "$trace" '
# Linear-interpolated quantile, as crates/perf/src/stats.rs computes it.
def q($p): sort as $v | ($v | length) as $n
    | if $n == 0 then 0 else ($p * ($n - 1)) as $pos | ($pos | floor) as $lo
        | ([$lo + 1, $n - 1] | min) as $hi | $v[$lo] + ($v[$hi] - $v[$lo]) * ($pos - $lo) end;
def fmt: if . == null then "-" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring)
    else (. * 1000 | round / 1000 | tostring) end;
def side($s): [$runs[] | select(.side == $s)] | sort_by(.seed);
(side("base")) as $b | (side("head")) as $h
| ($bench[0].end_to_end | map(. + {e2e: true})) as $e2e
| (if $trace == 1 then $bench[0].per_layer | map(. + {e2e: false}) else [] end) as $layers
| "workload \($workload): base \($base) vs working tree, \($b | length) pairs (seeds \($b[0].seed)-\($b[-1].seed))",
  "failed operations: base \([$b[].failed] | add), head \([$h[].failed] | add); self-check: base \(all($b[]; .correct)), head \(all($h[]; .correct))",
  "",
  "| metric | unit | base q1 / median / q3 | head q1 / median / q3 | head/base | pairs won | verdict |",
  "|---|---|---|---|---|---|---|",
  ( ($e2e + $layers)[] | . as $m
    | [$b[].metrics[$m.name]] as $bv | [$h[].metrics[$m.name]] as $hv
    | select(($bv | all(. != null)) and ($hv | all(. != null)) and ($bv | length) > 0)
    | ($bv | q(0.25)) as $b1 | ($bv | q(0.5)) as $b2 | ($bv | q(0.75)) as $b3
    | ($hv | q(0.25)) as $h1 | ($hv | q(0.5)) as $h2 | ($hv | q(0.75)) as $h3
    | (if $m.better == "higher" then 1 else -1 end) as $sign
    | ([range($bv | length) | select(($hv[.] - $bv[.]) * $sign > 0)] | length) as $won
    | ($bv | length) as $n
    | ((($hv | if $sign > 0 then min else max end) - ($bv | if $sign > 0 then max else min end))
        * $sign > 0) as $separated
    | (if $m.e2e | not then "-"
       elif $b2 != 0 and ($b2 - $h2) * $sign / ($b2 | fabs) > $m.bound then "worse"
       elif $won >= ($n * 0.9 | ceil) and ($h2 - $b2) * $sign > ($b3 - $b1) then "claimed"
       elif ($separated | not) and (($b3 - $b1) > $m.bound * ($b2 | fabs)
            or ($h3 - $h1) > $m.bound * ($h2 | fabs)) then "unresolved"
       else "unchanged" end) as $verdict
    | "| \($m.name) | \($m.unit) | \($b1 | fmt) / \($b2 | fmt) / \($b3 | fmt) | \($h1 | fmt) / \($h2 | fmt) / \($h3 | fmt) | \(if $b2 != 0 then $h2 / $b2 | fmt else "-" end) | \($won)/\($n) | \($verdict) |"
  )
' | tee "$work/summary-$tag.md"

worse=$(grep -c '| worse |$' "$work/summary-$tag.md" || true)
failed=$(jq -s 'map(.failed) | add' "$runs")
if [[ $worse -gt 0 || $failed -gt 0 ]]; then
    exit 1
fi

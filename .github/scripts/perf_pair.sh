#!/usr/bin/env bash
# Paired benchmark check: builds perfbench at a base commit and at the
# checked-out tree, runs the two in alternating pairs on every workload of
# BENCHMARK.json, prints the medians, and fails when the change's median of
# an end-to-end metric is worse than the base's by more than that metric's
# bound. Both sides run on the same host in the same minutes, so the
# verdict does not depend on how fast the host is.
#
#   .github/scripts/perf_pair.sh <base-commit>
#
# Needs bash, git, jq and the Rust toolchain; run it from inside the
# repository. The workloads, the benchmark command, the run length and the
# bounds all come from the checked-out BENCHMARK.json.
set -euo pipefail

PAIRS=5             # alternating base/change pairs per workload
WALL_TOLERANCE=0.15 # wall_s keeps the tolerance of the retired events/sec gate

base=${1:?usage: perf_pair.sh <base-commit>}
change=$(git rev-parse --show-toplevel)
spec=$change/BENCHMARK.json
mapfile -t run_cmd < <(jq -r '.command[]' "$spec")
# The same cargo invocation with `build` for `run`, minus the program's args.
mapfile -t build_cmd < <(jq -r '.command | .[:index("--")] | map(if . == "run" then "build" else . end)[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

work=$(mktemp -d)
trap 'git -C "$change" worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git -C "$change" worktree add --quiet --detach "$work/base" "$base"
declare -A tree=([base]=$work/base [change]=$change)

for side in base change; do
  echo "perf_pair: building perfbench ($side)"
  (cd "${tree[$side]}" && "${build_cmd[@]}")
done

# One timed run; its end-to-end metrics are appended to runs.jsonl.
run_one() {
  local side=$1 workload=$2 seed=$3 out last
  out=$(cd "${tree[$side]}" && "${run_cmd[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) || true
  last=$(tail -n 1 <<<"$out")
  if ! jq -e '.correct == true and .failed == 0' <<<"$last" >/dev/null 2>&1; then
    printf '%s\n' "$out"
    echo "perf_pair: FAIL: $workload seed $seed ($side) is not correct: $last"
    exit 1
  fi
  jq -c --arg side "$side" --arg workload "$workload" \
    '{side: $side, workload: $workload, metrics: (.metrics | map_values(.value))}' \
    <<<"$last" >>"$work/runs.jsonl"
  echo "  $workload seed $seed $side: wall_s $(jq '.metrics.wall_s.value' <<<"$last")"
}

for workload in "${workloads[@]}"; do
  for ((pair = 1; pair <= PAIRS; pair++)); do
    # Flip which side goes first on every pair.
    if ((pair % 2)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do run_one "$side" "$workload" "$pair"; done
  done
done

failures=0
printf '\n%-18s %-13s %14s %14s %8s %6s\n' workload metric base change diff bound
while IFS=$'\t' read -r workload metric b c rel bound verdict; do
  printf '%-18s %-13s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n' \
    "$workload" "$metric" "$b" "$c" "$rel" "$bound" "$verdict"
  if [[ $verdict == WORSE ]]; then failures=$((failures + 1)); fi
done < <(jq -rs --slurpfile spec "$spec" --argjson wall "$WALL_TOLERANCE" '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  . as $runs
  | $spec[0].workloads[].name as $w
  | $spec[0].end_to_end[] as $m
  | (if $m.name == "wall_s" then $wall else $m.bound end) as $bound
  | [$runs[] | select(.workload == $w and .side == "base") | .metrics[$m.name]] | median as $b
  | [$runs[] | select(.workload == $w and .side == "change") | .metrics[$m.name]] | median as $c
  | (if $m.better == "lower" then $c - $b else $b - $c end) as $loss
  | [$w, $m.name, $b, $c, (if $b == 0 then 0 else ($c / $b - 1) * 100 end), $bound * 100,
     (if $loss > $bound * $b then "WORSE" else "ok" end)]
  | @tsv' "$work/runs.jsonl")

if ((failures)); then
  echo "perf_pair: FAIL: $failures median(s) worse than their bound against $base"
  exit 1
fi
echo "perf_pair: ok: no median worse than its bound against $base ($PAIRS pairs per workload)"

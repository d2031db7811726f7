#!/usr/bin/env bash
# Reruns every deterministic bench and diffs its stdout against the golden
# copy in bench/golden/<bench>[.<leg>].txt. The benches run on a simulated
# clock, so two runs of the same code print the same bytes: any difference
# is a change in behaviour, timing model or report text, and shows up here
# as a unified diff.
#
# Usage: bench/check_golden.sh [--update] [--ldbench LDBENCH] [BUILD_DIR]
#   BUILD_DIR  a Release build tree (default: build).
#   --update   rewrite the golden files from BUILD_DIR instead of diffing.
#   --ldbench  also check the "deterministic" line that the perfbench
#              binary LDBENCH prints at --seconds 0 --trace 0, for seeds 1-3
#              of every workload, against bench/golden/ldbench.txt.
#
# The legs run concurrently, one per core; their diffs print in leg order.
# Exits non-zero when a bench exits non-zero (a [FAIL] claim check or a
# failed run) or when its output differs from the golden file.

set -u

update=0
build=build
ldbench=""
while [ $# -gt 0 ]; do
  case "$1" in
    --update) update=1 ;;
    --ldbench) shift; ldbench="${1:-}" ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) build="$1" ;;
  esac
  shift
done

golden="$(cd "$(dirname "$0")" && pwd)/golden"
mkdir -p "$golden"

# <golden name> <bench> [args...]. bench_faults.smoke is also the channel-1
# leg: channel 1 is --fail-channel's default.
legs=(
  "bench_cleaner bench_cleaner"
  "bench_compression bench_compression"
  "bench_faults bench_faults"
  "bench_inode_blocks bench_inode_blocks"
  "bench_list_overhead bench_list_overhead"
  "bench_loge bench_loge"
  "bench_nvme_tables bench_nvme_tables"
  "bench_nvram bench_nvram"
  "bench_partial_segments bench_partial_segments"
  "bench_rearrange bench_rearrange"
  "bench_recovery bench_recovery"
  "bench_segment_size bench_segment_size"
  "bench_table2_memory bench_table2_memory"
  "bench_table3_cost bench_table3_cost"
  "bench_table4_small_file bench_table4_small_file"
  "bench_table5_large_file bench_table5_large_file"
  "bench_table6_write_costs bench_table6_write_costs"
  "bench_trace bench_trace"
  "bench_nvme_tables.smoke bench_nvme_tables --smoke"
  "bench_faults.smoke bench_faults --smoke"
  "bench_faults.smoke-fail0 bench_faults --smoke --fail-channel 0"
  "bench_faults.smoke-fail2 bench_faults --smoke --fail-channel 2"
  "bench_faults.smoke-fail3 bench_faults --smoke --fail-channel 3"
)
# The ldbench leg runs nine processes in a row, so it starts first, beside
# bench_cleaner, the longest bench.
[ -n "$ldbench" ] && legs=("ldbench ldbench" "${legs[@]}")

# Prints the "deterministic" line of ldbench for seeds 1-3 of every workload,
# labelled with workload and seed. Fails when a run fails.
ldbench_fingerprints() {
  local status=0 workload seed
  for workload in smallfile largefile hotcold; do
    for seed in 1 2 3; do
      "$ldbench" --workload "$workload" --seed "$seed" --seconds 0 --trace 0 \
        >"$tmp/ldbench.raw" || status=1
      sed -n "s/^deterministic /$workload seed $seed: /p" "$tmp/ldbench.raw"
    done
  done
  return "$status"
}

# Runs one leg: its stdout, stderr and exit status go to $tmp/<index>.out,
# .err and .status.
run_leg() {
  local index="$1" bench="$2"
  shift 2
  if [ "$bench" = "ldbench" ]; then
    ldbench_fingerprints
  else
    "$build/bench/$bench" "$@"
  fi >"$tmp/$index.out" 2>"$tmp/$index.err"
  echo $? >"$tmp/$index.status"
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
max_jobs="$(nproc 2>/dev/null || echo 2)"
for i in "${!legs[@]}"; do
  while [ "$(jobs -rp | wc -l)" -ge "$max_jobs" ]; do
    wait -n
  done
  read -r name bench args <<<"${legs[$i]}"
  # shellcheck disable=SC2086  # $args splits on purpose.
  run_leg "$i" "$bench" $args &
done
wait

failed=0
for i in "${!legs[@]}"; do
  read -r name _ <<<"${legs[$i]}"
  echo "=== $name ==="
  cat "$tmp/$i.err" >&2
  status="$(cat "$tmp/$i.status")"
  if [ "$status" -ne 0 ]; then
    echo "FAIL: $name exited with status $status"
    failed=1
  fi
  if [ "$update" -eq 1 ]; then
    cp "$tmp/$i.out" "$golden/$name.txt"
  elif ! diff -u "$golden/$name.txt" "$tmp/$i.out"; then
    echo "FAIL: $name differs from bench/golden/$name.txt"
    failed=1
  fi
done
exit "$failed"

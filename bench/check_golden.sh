#!/usr/bin/env bash
# Reruns every deterministic bench and diffs its stdout against the golden
# copy in bench/golden/<bench>[.<leg>].txt. The benches run on a simulated
# clock, so two runs of the same code print the same bytes: any difference
# is a change in behaviour, timing model or report text, and shows up here
# as a unified diff.
#
# Usage: bench/check_golden.sh [--update] [BUILD_DIR]
#   BUILD_DIR  a Release build tree (default: build).
#   --update   rewrite the golden files from BUILD_DIR instead of diffing.
#
# Exits non-zero when a bench exits non-zero (a [FAIL] claim check or a
# failed run) or when its output differs from the golden file.

set -u

update=0
build=build
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
    *) build="$arg" ;;
  esac
done

golden="$(cd "$(dirname "$0")" && pwd)/golden"
mkdir -p "$golden"

# The goldens are the default configuration: drop every LD_* knob a caller
# may have exported.
for var in $(compgen -e | grep '^LD_'); do
  unset "$var"
done

# <golden name> <env assignments or -> <bench> [args...]
legs=(
  "bench_cleaner - bench_cleaner"
  "bench_compression - bench_compression"
  "bench_faults - bench_faults"
  "bench_inode_blocks - bench_inode_blocks"
  "bench_list_overhead - bench_list_overhead"
  "bench_loge - bench_loge"
  "bench_nvme_tables - bench_nvme_tables"
  "bench_nvram - bench_nvram"
  "bench_partial_segments - bench_partial_segments"
  "bench_rearrange - bench_rearrange"
  "bench_recovery - bench_recovery"
  "bench_segment_size - bench_segment_size"
  "bench_table2_memory - bench_table2_memory"
  "bench_table3_cost - bench_table3_cost"
  "bench_table4_small_file - bench_table4_small_file"
  "bench_table5_large_file - bench_table5_large_file"
  "bench_table6_write_costs - bench_table6_write_costs"
  "bench_trace - bench_trace"
  "bench_nvme_tables.smoke - bench_nvme_tables --smoke"
  "bench_faults.smoke - bench_faults --smoke"
  "bench_faults.smoke-fail0 LD_FAIL_CHANNEL=0 bench_faults --smoke"
  "bench_faults.smoke-fail1 LD_FAIL_CHANNEL=1 bench_faults --smoke"
  "bench_faults.smoke-fail2 LD_FAIL_CHANNEL=2 bench_faults --smoke"
  "bench_faults.smoke-fail3 LD_FAIL_CHANNEL=3 bench_faults --smoke"
)

failed=0
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
for leg in "${legs[@]}"; do
  read -r name assign bench args <<<"$leg"
  [ "$assign" = "-" ] && assign=""
  echo "=== $name ==="
  # shellcheck disable=SC2086  # $assign and $args split on purpose.
  env $assign "$build/bench/$bench" $args >"$out"
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: $name exited with status $status"
    failed=1
  fi
  if [ "$update" -eq 1 ]; then
    cp "$out" "$golden/$name.txt"
  elif ! diff -u "$golden/$name.txt" "$out"; then
    echo "FAIL: $name differs from bench/golden/$name.txt"
    failed=1
  fi
done
exit "$failed"

# Benchmark binaries: one per table/figure of the paper's evaluation (see
# DESIGN.md's experiment index). Included from the top-level CMakeLists so
# that build/bench/ contains only executables.

set(LD_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(ld_bench name)
  add_executable(${name} ${LD_BENCH_DIR}/${name}.cc)
  target_link_libraries(${name} PRIVATE ldharness ldworkload ldminix ldffs ldbtree ldloge ldlld ldflat
                        ldcompress lddisk ldutil)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY
                        ${CMAKE_BINARY_DIR}/bench)
endfunction()

ld_bench(bench_table2_memory)
ld_bench(bench_table3_cost)
ld_bench(bench_table4_small_file)
ld_bench(bench_table5_large_file)
ld_bench(bench_table6_write_costs)
ld_bench(bench_recovery)
ld_bench(bench_segment_size)
ld_bench(bench_list_overhead)
ld_bench(bench_inode_blocks)
ld_bench(bench_compression)
ld_bench(bench_partial_segments)
ld_bench(bench_cleaner)
ld_bench(bench_nvram)
ld_bench(bench_rearrange)
ld_bench(bench_loge)
ld_bench(bench_trace)
ld_bench(bench_nvme_tables)
ld_bench(bench_faults)

# Per-operation CPU microbenchmarks of the LD interface (google-benchmark).
find_package(benchmark REQUIRED)
add_executable(bench_ld_ops ${LD_BENCH_DIR}/bench_ld_ops.cc)
target_link_libraries(bench_ld_ops PRIVATE ldminix ldlld ldworkload ldcompress lddisk ldutil
  benchmark::benchmark)
set_target_properties(bench_ld_ops PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

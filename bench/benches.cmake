# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains nothing but the bench binaries and
# `for b in build/bench/*; do $b; done` runs the whole harness.
function(pjsched_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE pjsched pjsched_runtime Threads::Threads)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# Figure/table reproduction harnesses (plain binaries printing tables).
pjsched_add_bench(bench_fig2_bing)
pjsched_add_bench(bench_fig2_finance)
pjsched_add_bench(bench_fig2_lognormal)
pjsched_add_bench(bench_fig3_distributions)
pjsched_add_bench(bench_fifo_competitive)
pjsched_add_bench(bench_ws_competitive)
pjsched_add_bench(bench_bwf_weighted)
pjsched_add_bench(bench_steal_k_ablation)
pjsched_add_bench(bench_fault_degradation)

# google-benchmark micro-benches.
function(pjsched_add_gbench name)
  pjsched_add_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()
pjsched_add_gbench(bench_runtime_micro)
# Lemma 5.1 adversarial-instance sweep; stays standalone-runnable (the CI
# smoke step executes it with no arguments).
pjsched_add_gbench(bench_lower_bound)
pjsched_add_gbench(bench_runtime)
pjsched_add_gbench(bench_sim_engine)
pjsched_add_bench(bench_stretch)
pjsched_add_bench(bench_weighted_admission)
pjsched_add_bench(bench_mean_vs_max)
pjsched_add_bench(bench_trial_variance)
pjsched_add_bench(bench_burstiness)
pjsched_add_bench(bench_bound_tightness)

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

# Output pins: `<bench>_output` runs the bench at its defaults and fails
# unless it prints bench/expected/<bench>.txt byte for byte
# (bench/check_output.cmake), so a change that moves a published table
# fails ctest.  Left out: bench_fault_degradation, whose runtime section
# varies from run to run, and the google-benchmark binaries, which print
# timings.
function(pjsched_pin_bench name)
  add_test(NAME ${name}_output
    COMMAND ${CMAKE_COMMAND}
            -DBENCH=$<TARGET_FILE:${name}>
            -DEXPECTED=${CMAKE_SOURCE_DIR}/bench/expected/${name}.txt
            -DACTUAL=${CMAKE_BINARY_DIR}/${name}.actual
            -P ${CMAKE_SOURCE_DIR}/bench/check_output.cmake)
  set_tests_properties(${name}_output PROPERTIES LABELS experiments)
endfunction()
foreach(bench
    bench_fig2_bing bench_fig2_finance bench_fig2_lognormal
    bench_fig3_distributions bench_fifo_competitive bench_ws_competitive
    bench_bwf_weighted bench_steal_k_ablation bench_stretch
    bench_weighted_admission bench_mean_vs_max bench_trial_variance
    bench_burstiness bench_bound_tightness)
  pjsched_pin_bench(${bench})
endforeach()

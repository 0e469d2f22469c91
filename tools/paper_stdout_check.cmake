# Runs every paper bench and example and compares their stdout with the
# committed golden (tests/golden/paper_stdout.txt): the harness's tables,
# figures and walkthroughs must not move by one byte unless a change means
# them to.  The population is pinned (FDETA_CONSUMERS=20, FDETA_SEED and
# FDETA_VECTORS at their defaults); FDETA_THREADS passes through, since the
# output is identical at any pool width.  The micro-benchmarks print
# timings, so they are left out.
#
# Regenerate the golden with
#   FDETA_REGEN_GOLDEN=1 ctest -R paper_stdout
set(benches
    table1_classification table2_metric1 table3_metric2
    fig2_topology_balance fig3_attack_vectors fig4_kld_illustration
    ablation_arima_order ablation_bins ablation_input_reduction
    ablation_meter_error ablation_significance ablation_training_weeks
    ext_adr_attack ext_detector_comparison ext_multiple_attackers
    ext_ntl_baseline ext_rtp_market ext_time_to_detection
    ext_weather_evidence)
set(examples
    quickstart utility_monitoring theft_investigation adr_attack_study
    attack_gallery weather_aware_monitoring)

set(ENV{FDETA_CONSUMERS} 20)
unset(ENV{FDETA_SEED})
unset(ENV{FDETA_VECTORS})
file(MAKE_DIRECTORY ${WORK_DIR})

set(actual "")
function(capture dir name)
  execute_process(COMMAND ${dir}/${name}
                  WORKING_DIRECTORY ${WORK_DIR}
                  TIMEOUT 600
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${name} failed (${code}): ${err}")
  endif()
  set(actual "${actual}==== ${name}\n${out}" PARENT_SCOPE)
endfunction()
foreach(name IN LISTS benches)
  capture(${BENCH_DIR} ${name})
endforeach()
foreach(name IN LISTS examples)
  capture(${EXAMPLE_DIR} ${name})
endforeach()

if(DEFINED ENV{FDETA_REGEN_GOLDEN})
  file(WRITE ${GOLDEN} "${actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()
file(WRITE ${WORK_DIR}/paper_stdout.txt "${actual}")
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "paper stdout differs from ${GOLDEN}; compare with\n"
          "  diff ${GOLDEN} ${WORK_DIR}/paper_stdout.txt\n"
          "and, if the change is meant, regenerate with "
          "FDETA_REGEN_GOLDEN=1 ctest -R paper_stdout")
endif()
message(STATUS "paper_stdout: ${WORK_DIR}/paper_stdout.txt matches")

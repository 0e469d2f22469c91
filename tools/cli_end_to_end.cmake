# Drives the fdeta CLI through a full generate/inject/detect/investigate
# round trip; any non-zero exit fails the test.  A retired detector family
# must fail fast instead, naming the registered ones.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${FDETA_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fdeta ${ARGN} failed (${code}): ${out}${err}")
  endif()
endfunction()

run(generate --out actual.csv --consumers 6 --weeks 28 --seed 3)
run(summary --in actual.csv)
run(inject --in actual.csv --out reported.csv --consumer 1002 --week 24
    --attack integrated-over --train-weeks 24)
run(detect --in reported.csv --baseline actual.csv --train-weeks 24)
run(topology --out topo.txt --consumers 6 --seed 5)
run(investigate --topology topo.txt --baseline actual.csv --in reported.csv
    --week 24)
run(evaluate --in actual.csv --train-weeks 24 --vectors 2)

execute_process(COMMAND ${FDETA_CLI} detect --in reported.csv
                        --train-weeks 24 --detector iforest
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "fdeta detect --detector iforest exited 0: ${out}")
endif()
string(FIND "${out}${err}" "registered: kld, ckld, kld-lite" found)
if(found EQUAL -1)
  message(FATAL_ERROR
          "fdeta detect --detector iforest did not list the registered "
          "families: ${out}${err}")
endif()

# A negative count flag must fail fast, naming the flag, instead of wrapping
# to ~2^64 (a crash, or a run that never ends: hence the TIMEOUT).
function(expect_rejected flag)
  execute_process(COMMAND ${FDETA_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  TIMEOUT 60
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0 OR NOT code MATCHES "^[0-9]+$")
    message(FATAL_ERROR "fdeta ${ARGN} did not fail cleanly (${code}): "
                        "${out}${err}")
  endif()
  string(FIND "${out}${err}" "${flag}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "fdeta ${ARGN} did not name ${flag}: ${out}${err}")
  endif()
endfunction()

expect_rejected(--bins fit --in actual.csv --train-weeks 24 --bins -1
                --save-model negative_bins.model)
expect_rejected(--vectors evaluate --in actual.csv --train-weeks 24
                --vectors -1)

# Warm-start acceptance test: `detect --model` on a checkpoint written by
# `fit` must judge exactly like a cold `detect` fitted in-process with the
# same flags.  For each family the header (detector, alpha, bins), every
# per-week verdict line and the streaming-replay summary must match, so a
# restore that drops any detector option (e.g. a non-default significance)
# shows up as a diff.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run out_var)
  execute_process(COMMAND ${FDETA_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fdeta ${ARGN} failed (${code}): ${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The detect lines a warm start must reproduce: the header, one verdict line
# per test week, and the streaming replay's alert tally.
function(judged_lines out_var text)
  string(REPLACE "\n" ";" lines "${text}")
  set(kept "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^week +flagged consumers" OR line MATCHES "^[0-9]+ "
       OR line MATCHES "^stream: ")
      list(APPEND kept "${line}")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
endfunction()

run(ignored generate --out actual.csv --consumers 30 --weeks 30 --seed 5)
run(ignored inject --in actual.csv --out reported.csv --consumer 1000
    --week 27 --attack integrated-under --train-weeks 24)

foreach(family kld ckld)
  run(ignored fit --in actual.csv --detector ${family} --significance 0.10
      --train-weeks 24 --save-model model_${family}.fdeta)
  run(warm detect --in reported.csv --baseline actual.csv
      --model model_${family}.fdeta)
  run(cold detect --in reported.csv --baseline actual.csv
      --detector ${family} --significance 0.10 --train-weeks 24)
  judged_lines(warm_lines "${warm}")
  judged_lines(cold_lines "${cold}")
  list(LENGTH cold_lines cold_count)
  if(cold_count LESS 3)
    message(FATAL_ERROR "${family}: cold detect printed no verdicts:\n${cold}")
  endif()
  if(NOT cold_lines MATCHES "alpha=10%")
    message(FATAL_ERROR "${family}: cold header lost --significance:\n${cold}")
  endif()
  if(NOT warm_lines STREQUAL cold_lines)
    message(FATAL_ERROR "${family}: detect --model disagrees with a cold fit\n"
                        "warm:\n${warm}\ncold:\n${cold}")
  endif()
endforeach()

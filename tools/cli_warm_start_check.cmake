# Warm-start acceptance test: `detect --model` on a checkpoint written by
# `fit` must judge exactly like a cold `detect` fitted in-process with the
# same flags.  For each family the header (detector, alpha, bins), every
# per-week verdict line and the streaming-replay summary must match, so a
# restore that drops any detector option (e.g. a non-default significance)
# shows up as a diff, and so must the event logs.  Both runs fit the
# consumer model at most once: the warm trace holds no fit span, the cold
# trace exactly one pipeline.fit and no monitor fit, because the stream
# replay serves from the pipeline's model.
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

# The number of spans named `name` in the Chrome trace `file`.
function(span_count out_var file name)
  file(READ ${WORK_DIR}/${file} json)
  string(REPLACE "." "[.]" pattern "\"name\":\"${name}\"")
  string(REGEX MATCHALL "${pattern}" hits "${json}")
  list(LENGTH hits count)
  set(${out_var} ${count} PARENT_SCOPE)
endfunction()

# The event log `file` with every seq field dropped, and how many of its
# lines were model_restored events (dropped too).
function(events_without_restores out_var restores_var file)
  file(STRINGS ${WORK_DIR}/${file} lines)
  set(kept "")
  set(restores 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "\"event\":\"model_restored\"")
      math(EXPR restores "${restores} + 1")
      continue()
    endif()
    string(REGEX REPLACE "\"seq\":[0-9]+," "" line "${line}")
    list(APPEND kept "${line}")
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
  set(${restores_var} ${restores} PARENT_SCOPE)
endfunction()

run(ignored generate --out actual.csv --consumers 30 --weeks 30 --seed 5)
run(ignored inject --in actual.csv --out reported.csv --consumer 1000
    --week 27 --attack integrated-under --train-weeks 24)

foreach(family kld ckld kld-lite)
  run(ignored fit --in actual.csv --detector ${family} --significance 0.10
      --train-weeks 24 --save-model model_${family}.fdeta)
  run(warm detect --in reported.csv --baseline actual.csv
      --model model_${family}.fdeta
      --trace-out warm_${family}.json --events-out warm_${family}.jsonl)
  run(cold detect --in reported.csv --baseline actual.csv
      --detector ${family} --significance 0.10 --train-weeks 24
      --trace-out cold_${family}.json --events-out cold_${family}.jsonl)
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

  foreach(trace warm_${family}.json cold_${family}.json)
    foreach(span pipeline.fit monitor.fit monitor.fit_streaming)
      span_count(n ${trace} ${span})
      set(expected 0)
      if(trace MATCHES "^cold_" AND span MATCHES "^pipeline[.]fit$")
        set(expected 1)
      endif()
      if(NOT n EQUAL expected)
        message(FATAL_ERROR "${family}: ${trace} holds ${n} '${span}' "
                            "spans, expected ${expected}")
      endif()
    endforeach()
  endforeach()

  events_without_restores(warm_events warm_restores warm_${family}.jsonl)
  events_without_restores(cold_events cold_restores cold_${family}.jsonl)
  if(NOT warm_restores EQUAL 1 OR NOT cold_restores EQUAL 0)
    message(FATAL_ERROR "${family}: expected one model_restored event in the "
                        "warm log and none in the cold one, got "
                        "${warm_restores} and ${cold_restores}")
  endif()
  list(LENGTH cold_events cold_event_count)
  if(cold_event_count EQUAL 0)
    message(FATAL_ERROR "${family}: the cold run logged no events")
  endif()
  if(NOT warm_events STREQUAL cold_events)
    message(FATAL_ERROR "${family}: the warm and cold event logs differ\n"
                        "warm:\n${warm_events}\ncold:\n${cold_events}")
  endif()
endforeach()

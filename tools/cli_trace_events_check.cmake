# Forensics acceptance test for --trace-out / --events-out / --explain:
# one detect run must yield (a) a Chrome-trace JSON containing thread-pool,
# pipeline AND monitor spans, and (b) a JSONL event log where every line is
# valid JSON, sequence numbers start at 1, and the injected attack surfaces
# as an alert_raised event carrying a per-bin explanation.  An investigate
# run must additionally record its decision path as investigation_step
# events.
file(MAKE_DIRECTORY ${WORK_DIR})
macro(run)
  execute_process(COMMAND ${FDETA_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE run_stdout
                  ERROR_VARIABLE run_stderr)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
            "fdeta ${ARGN} failed (${code}): ${run_stdout}${run_stderr}")
  endif()
endmacro()

run(generate --out actual.csv --consumers 6 --weeks 16 --seed 3)
run(inject --in actual.csv --out reported.csv --consumer 1002 --week 13
    --attack integrated-over --train-weeks 12)
run(detect --in reported.csv --baseline actual.csv --train-weeks 12
    --explain --trace-out trace.json --events-out events.jsonl)

# -- (a) the trace ----------------------------------------------------------
file(READ ${WORK_DIR}/trace.json trace_json)
string(JSON trace_kind ERROR_VARIABLE trace_error TYPE "${trace_json}")
if(NOT trace_error STREQUAL "NOTFOUND")
  message(FATAL_ERROR "trace.json is not valid JSON: ${trace_error}")
endif()
string(JSON events_kind ERROR_VARIABLE trace_error
       TYPE "${trace_json}" traceEvents)
if(NOT events_kind STREQUAL "ARRAY")
  message(FATAL_ERROR "trace.json has no traceEvents array: ${trace_error}")
endif()
foreach(span pipeline.fit pipeline.evaluate_week monitor.start
        monitor.ingest_batch pool.task)
  if(NOT trace_json MATCHES "\"name\":\"${span}\"")
    message(FATAL_ERROR "trace.json is missing span '${span}'")
  endif()
endforeach()

# -- (b) the event log ------------------------------------------------------
# The schema number is read from its one definition, obs::kEventSchemaVersion.
file(READ ${CMAKE_CURRENT_LIST_DIR}/../src/obs/event_log.h event_log_h)
if(NOT event_log_h MATCHES "kEventSchemaVersion = ([0-9]+)")
  message(FATAL_ERROR "no kEventSchemaVersion in src/obs/event_log.h")
endif()
set(schema ${CMAKE_MATCH_1})
file(READ ${WORK_DIR}/events.jsonl events_jsonl)
string(REGEX REPLACE "\n$" "" events_jsonl "${events_jsonl}")
string(REPLACE "\n" ";" event_lines "${events_jsonl}")
list(LENGTH event_lines line_count)
if(line_count EQUAL 0)
  message(FATAL_ERROR "events.jsonl is empty")
endif()
set(seq 0)
foreach(line IN LISTS event_lines)
  string(JSON line_kind ERROR_VARIABLE line_error TYPE "${line}")
  if(NOT line_error STREQUAL "NOTFOUND" OR NOT line_kind STREQUAL "OBJECT")
    message(FATAL_ERROR "bad JSONL line: ${line} (${line_error})")
  endif()
  math(EXPR seq "${seq} + 1")
  if(NOT line MATCHES "^{\"schema\":${schema},\"seq\":${seq},\"event\":")
    message(FATAL_ERROR "line ${seq} breaks the schema/seq header: ${line}")
  endif()
endforeach()
if(NOT events_jsonl MATCHES "\"event\":\"alert_raised\"")
  message(FATAL_ERROR "no alert_raised event for the injected attack")
endif()
if(NOT events_jsonl MATCHES "\"bin_bits\":\\[\\[")
  message(FATAL_ERROR "--explain did not attach bin_bits to alert_raised")
endif()
# -- investigation audit trail ----------------------------------------------
run(topology --out topo.txt --consumers 6 --seed 5)
run(investigate --topology topo.txt --baseline actual.csv --in reported.csv
    --week 13 --events-out inv_events.jsonl)
if(NOT run_stdout MATCHES "audit trail")
  message(FATAL_ERROR "investigate printed no audit trail:\n${run_stdout}")
endif()
file(READ ${WORK_DIR}/inv_events.jsonl inv_jsonl)
if(NOT inv_jsonl MATCHES "\"event\":\"investigation_step\"")
  message(FATAL_ERROR "investigate emitted no investigation_step events:\n"
                      "${inv_jsonl}")
endif()
if(NOT inv_jsonl MATCHES "\"branch\":\"localized\"")
  message(FATAL_ERROR "audit trail never reached a localisation decision:\n"
                      "${inv_jsonl}")
endif()

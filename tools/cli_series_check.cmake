# Verifies the telemetry time-series surface end to end: a seeded detect
# with --stats-interval/--series-out must print a live scoreboard, write one
# JSONL frame per interval (plus the final partial window), and emit
# Prometheus text exposition under --metrics-format prom; `fdeta stats` must
# re-render the series file as the same table.  A second detect under
# FDETA_THREADS=1 (which also changes the auto-resolved shard count) pins
# the acceptance criterion that the deterministic half of every frame is
# byte-identical across shard x thread layouts.
#
# Macros, not functions: in `cmake -P` script mode, set(... PARENT_SCOPE)
# from a top-level function call does not reach the script scope.
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

# Same, but pinned to one worker thread (and therefore a different
# auto-resolved shard count) for the cross-layout determinism check.
macro(run_single_thread)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env FDETA_THREADS=1
                          ${FDETA_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE run_stdout
                  ERROR_VARIABLE run_stderr)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fdeta (FDETA_THREADS=1) ${ARGN} failed (${code}): "
                        "${run_stdout}${run_stderr}")
  endif()
endmacro()

# Strips the layout-scoped "env" suffix from every frame line of `file`,
# leaving only the deterministic half, into the variable named by `var`.
# The trailing frame brace goes with it, but identically on every file, so
# equality of the stripped text still proves equality of the det series.
macro(det_series var file)
  file(READ ${WORK_DIR}/${file} _raw)
  string(REGEX REPLACE ",\"env\":[^\n]*" "" ${var} "${_raw}")
endmacro()

run(generate --out actual.csv --consumers 6 --weeks 16 --seed 3)
run(inject --in actual.csv --out reported.csv --consumer 1002 --week 13
    --attack integrated-over --train-weeks 12)
run(detect --in reported.csv --baseline actual.csv --train-weeks 12
    --stats-interval 168 --series-out series.jsonl
    --metrics-out metrics.prom --metrics-format prom)
set(detect_stdout "${run_stdout}")

# The live scoreboard: header plus one line per frame on stdout.
if(NOT detect_stdout MATCHES "frame[ ]+slot")
  message(FATAL_ERROR "scoreboard header missing from detect stdout:\n"
                      "${detect_stdout}")
endif()
if(NOT detect_stdout MATCHES "worst-shard")
  message(FATAL_ERROR "scoreboard header lacks worst-shard column:\n"
                      "${detect_stdout}")
endif()

# The series file: 16 weeks, 12 of training, 336 slots/week, one frame per
# 168 slots -> exactly 8 frames covering the whole scored span.
file(READ ${WORK_DIR}/series.jsonl series_jsonl)
string(REGEX MATCHALL "\"series_schema\":1" frame_marks "${series_jsonl}")
list(LENGTH frame_marks frame_count)
if(NOT frame_count EQUAL 8)
  message(FATAL_ERROR "expected 8 series frames, found ${frame_count}:\n"
                      "${series_jsonl}")
endif()
# Frame 0 is anchored at the first scrape boundary past the training span
# (12 * 336 + 168 = 4200), each frame spanning one full interval.
if(NOT series_jsonl MATCHES "\"frame\":0,\"slot\":4200,\"slots_delta\":168")
  message(FATAL_ERROR "frame 0 anchor/delta wrong:\n${series_jsonl}")
endif()
foreach(key counters gauges rates readings_per_slot alerts_per_hour
        coverage_gated_fraction drift_milli_bits burst_milli)
  if(NOT series_jsonl MATCHES "\"${key}\":")
    message(FATAL_ERROR "series frames lack key '${key}':\n${series_jsonl}")
  endif()
endforeach()
# The wall-clock half rides in a separate env block per frame.
if(NOT series_jsonl MATCHES "\"env\":{\"uptime_seconds\":")
  message(FATAL_ERROR "series frames lack the env block:\n${series_jsonl}")
endif()
# The slot-driven counters must actually move: 6 consumers x 168 slots.
if(NOT series_jsonl MATCHES "\"monitor.readings_ingested\":1008")
  message(FATAL_ERROR "per-frame ingest delta is not 6 consumers x 168 "
                      "slots:\n${series_jsonl}")
endif()

# stats must re-render the same file as the same table.
run(stats --in series.jsonl)
if(NOT run_stdout MATCHES "frames=8")
  message(FATAL_ERROR "fdeta stats did not render 8 frames:\n${run_stdout}")
endif()
if(NOT run_stdout MATCHES "worst-shard")
  message(FATAL_ERROR "fdeta stats lacks the scoreboard header:\n"
                      "${run_stdout}")
endif()

# A frame line with a malformed value must fail, naming its line, instead of
# being cast into range (a frame of -1 used to print as 2^64 - 1).
file(WRITE ${WORK_DIR}/bad_series.jsonl
     "{\"meta\":1}\n{\"frame\":-1,\"slot\":1e300,\"slots_delta\":nan,"
     "\"rates\":{\"readings_per_slot\":inf,\"drift_milli_bits\":-1e30}}\n")
execute_process(COMMAND ${FDETA_CLI} stats --in bad_series.jsonl
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE bad_stdout
                ERROR_VARIABLE bad_stderr)
if(code EQUAL 0 OR NOT bad_stderr MATCHES "stats: line 2: ")
  message(FATAL_ERROR "fdeta stats did not reject line 2 of a malformed "
                      "series (${code}):\n${bad_stdout}${bad_stderr}")
endif()

# The Prometheus exposition: build info first, then HELP/TYPE'd families
# with cumulative histogram buckets.
file(READ ${WORK_DIR}/metrics.prom prom_text)
if(NOT prom_text MATCHES "^# HELP fdeta_build_info")
  message(FATAL_ERROR "prom output does not lead with fdeta_build_info:\n"
                      "${prom_text}")
endif()
if(NOT prom_text MATCHES "fdeta_build_info{version=\"0\\.4\\.0\",schema=\"2\"} 1")
  message(FATAL_ERROR "fdeta_build_info labels wrong:\n${prom_text}")
endif()
foreach(token "# TYPE fdeta_" "_bucket{le=\"" "le=\"\\+Inf\"" "_sum " "_count ")
  if(NOT prom_text MATCHES "${token}")
    message(FATAL_ERROR "prom output lacks '${token}':\n${prom_text}")
  endif()
endforeach()
if(NOT prom_text MATCHES "monitor_shard00_pending_highwater")
  message(FATAL_ERROR "per-shard health gauges missing from prom output:\n"
                      "${prom_text}")
endif()

# Cross-layout determinism: the same seeded run under FDETA_THREADS=1 (one
# worker, different auto shard count) must produce a byte-identical det
# series once the env block is stripped from both files.
run_single_thread(detect --in reported.csv --baseline actual.csv
    --train-weeks 12 --stats-interval 168 --series-out series_t1.jsonl)
det_series(det_default series.jsonl)
det_series(det_single series_t1.jsonl)
if(NOT det_default STREQUAL det_single)
  message(FATAL_ERROR "det series differs across thread/shard layouts:\n"
                      "--- default pool ---\n${det_default}\n"
                      "--- FDETA_THREADS=1 ---\n${det_single}")
endif()

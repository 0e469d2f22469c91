# Layering check, two rules.  Every target links fdeta::all and every include
# resolves from src/, so neither the compiler nor the linker would notice a
# library picking up a header of a layer it does not link.
#
#  1. The serving core (src/core/ and src/grid/hierarchy/) must not include a
#     header of the evaluation harness (eval/) or of the libraries only the
#     harness needs (attack/, timeseries/).
#  2. The meter layer (src/meter/) must not include a checkpoint header
#     (persist/): fdeta_meter does not link fdeta_persist, and only the
#     owners of fitted state (src/core/) write checkpoints.

# Appends "path: line" to `out_var` for every include in `sources` matching
# the directory alternation `dirs` (e.g. "attack|eval").
function(find_includes out_var dirs)
  set(found "")
  foreach(source IN LISTS ARGN)
    file(STRINGS ${source} includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](${dirs})/")
    file(RELATIVE_PATH path ${SOURCE_DIR} ${source})
    foreach(line IN LISTS includes)
      string(APPEND found "\n  ${path}: ${line}")
    endforeach()
  endforeach()
  set(${out_var} "${found}" PARENT_SCOPE)
endfunction()

file(GLOB_RECURSE core_sources
     ${SOURCE_DIR}/src/core/*.h ${SOURCE_DIR}/src/core/*.cpp
     ${SOURCE_DIR}/src/grid/hierarchy/*.h
     ${SOURCE_DIR}/src/grid/hierarchy/*.cpp)
file(GLOB_RECURSE meter_sources
     ${SOURCE_DIR}/src/meter/*.h ${SOURCE_DIR}/src/meter/*.cpp)
list(LENGTH core_sources core_count)
list(LENGTH meter_sources meter_count)
if(core_count EQUAL 0 OR meter_count EQUAL 0)
  message(FATAL_ERROR "no serving-core or meter sources under ${SOURCE_DIR}/src")
endif()

find_includes(core_violations "attack|timeseries|eval" ${core_sources})
if(core_violations)
  message(FATAL_ERROR
          "the serving core includes harness headers:${core_violations}")
endif()
find_includes(meter_violations "persist" ${meter_sources})
if(meter_violations)
  message(FATAL_ERROR
          "the meter layer includes checkpoint headers:${meter_violations}")
endif()
message(STATUS "core_layering: ${core_count} serving-core files, no harness "
               "include; ${meter_count} meter files, no persist include")

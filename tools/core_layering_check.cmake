# Layering check: the serving core (src/core/ and src/grid/hierarchy/) must
# not include a header of the evaluation harness (eval/) or of the libraries
# only the harness needs (attack/, timeseries/).  Every target links
# fdeta::all and every include resolves from src/, so neither the compiler
# nor the linker would notice the serving core picking one up again.
file(GLOB_RECURSE sources
     ${SOURCE_DIR}/src/core/*.h ${SOURCE_DIR}/src/core/*.cpp
     ${SOURCE_DIR}/src/grid/hierarchy/*.h
     ${SOURCE_DIR}/src/grid/hierarchy/*.cpp)
list(LENGTH sources count)
if(count EQUAL 0)
  message(FATAL_ERROR "no serving-core sources under ${SOURCE_DIR}/src")
endif()

set(violations "")
foreach(source IN LISTS sources)
  file(STRINGS ${source} includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](attack|timeseries|eval)/")
  file(RELATIVE_PATH path ${SOURCE_DIR} ${source})
  foreach(line IN LISTS includes)
    string(APPEND violations "\n  ${path}: ${line}")
  endforeach()
endforeach()
if(violations)
  message(FATAL_ERROR "the serving core includes harness headers:${violations}")
endif()
message(STATUS "core_layering: ${count} serving-core files, no harness include")

# ctest script for bench/repro_report: it must render one "### E<N>" table
# per BENCH_E<N>.json in BASELINE_DIR, and exit 2 on a missing directory and
# on a directory holding a malformed artifact (BAD_DIR).
#
#   cmake -DREPRO_REPORT=<binary> -DBASELINE_DIR=<dir> -DBAD_DIR=<dir>
#         -P repro_report_check.cmake
execute_process(COMMAND "${REPRO_REPORT}" "${BASELINE_DIR}"
                OUTPUT_VARIABLE report RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repro_report ${BASELINE_DIR} exited '${rc}'")
endif()

file(GLOB artifacts "${BASELINE_DIR}/BENCH_E*.json")
list(LENGTH artifacts expected)
string(REGEX MATCHALL "\n### E[0-9]+ " headers "${report}")
list(LENGTH headers found)
if(expected EQUAL 0 OR NOT found EQUAL expected)
  message(FATAL_ERROR
          "${found} '### E<N>' headers for ${expected} artifacts:\n${report}")
endif()
foreach(path IN LISTS artifacts)
  get_filename_component(name "${path}" NAME_WE)
  string(REPLACE "BENCH_" "" id "${name}")
  string(REGEX MATCHALL "\n### ${id} " hits "${report}")
  list(LENGTH hits count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "${count} '### ${id}' headers for ${name}.json")
  endif()
endforeach()

foreach(dir "${BASELINE_DIR}/no-such-directory" "${BAD_DIR}")
  execute_process(COMMAND "${REPRO_REPORT}" "${dir}"
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "repro_report ${dir} exited '${rc}', expected 2")
  endif()
  message(STATUS "repro_report ${dir}: exit 2 (${err})")
endforeach()

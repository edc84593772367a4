# Regenerates the simulated-results ledger with suite_cli and compares
# it byte for byte against the committed file, printing every row that
# differs. Run in CMake script mode:
#
#   cmake -DSUITE_CLI=build/suite_cli
#         -DGOLDEN=tests/golden/results_256x160x6.csv
#         -DOUT=build/results.csv "-DRUN_ARGS=--jobs 1 --tile-jobs 4"
#         -P tests/golden/check_results.cmake
#
# The ledger's own parameters (workloads, techniques, frames, screen)
# are fixed here so the file and its check cannot drift apart; RUN_ARGS
# only picks execution knobs, which must not change a single byte.

foreach(var SUITE_CLI GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_results.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(run_args UNIX_COMMAND "${RUN_ARGS}")
execute_process(
  COMMAND "${SUITE_CLI}" --workload all --tech base,re,te,memo
          --frames 6 --width 256 --height 160 --quiet --csv "${OUT}"
          ${run_args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "suite_cli exited with ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differ)
if(differ EQUAL 0)
  return()
endif()

file(STRINGS "${GOLDEN}" want)
file(STRINGS "${OUT}" got)
list(LENGTH want nwant)
list(LENGTH got ngot)
set(report "")
set(i 0)
while(i LESS nwant OR i LESS ngot)
  set(a "<missing>")
  set(b "<missing>")
  if(i LESS nwant)
    list(GET want ${i} a)
  endif()
  if(i LESS ngot)
    list(GET got ${i} b)
  endif()
  if(NOT a STREQUAL b)
    string(APPEND report "row ${i}\n  golden: ${a}\n  actual: ${b}\n")
  endif()
  math(EXPR i "${i} + 1")
endwhile()
if(report STREQUAL "")
  set(report "(rows match; line endings or the final newline differ)\n")
endif()
message(FATAL_ERROR
        "simulated results differ from ${GOLDEN}\n${report}"
        "A model change regenerates the golden file and quotes its diff.")

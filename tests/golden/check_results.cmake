# Regenerates the simulated-results ledger with suite_cli, as CSV and
# as JSON Lines, and compares each byte for byte against its committed
# file, printing every line that differs. Run in CMake script mode:
#
#   cmake -DSUITE_CLI=build/suite_cli
#         -DGOLDEN=tests/golden/results_256x160x6.csv
#         -DGOLDEN_JSON=tests/golden/results_256x160x6.jsonl
#         -DOUT=build/results.csv -DOUT_JSON=build/results.jsonl
#         "-DRUN_ARGS=--jobs 1 --tile-jobs 4"
#         -P tests/golden/check_results.cmake
#
# The ledger's own parameters (workloads, techniques, frames, screen)
# are fixed here so the file and its check cannot drift apart; RUN_ARGS
# only picks execution knobs, which must not change a single byte.

foreach(var SUITE_CLI GOLDEN GOLDEN_JSON OUT OUT_JSON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_results.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(run_args UNIX_COMMAND "${RUN_ARGS}")
execute_process(
  COMMAND "${SUITE_CLI}" --workload all --tech base,re,te,memo
          --frames 6 --width 256 --height 160 --quiet --csv "${OUT}"
          --json "${OUT_JSON}" ${run_args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "suite_cli exited with ${rc}")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/compare_golden.cmake)
regpu_compare_golden("${GOLDEN}" "${OUT}" "simulated results")
regpu_compare_golden("${GOLDEN_JSON}" "${OUT_JSON}" "JSON results")

# Regenerates the paper's tables with paper_figures at --fast and
# compares its stdout byte for byte against the committed file,
# printing every line that differs. Run in CMake script mode:
#
#   cmake -DPAPER_FIGURES=build/paper_figures
#         -DGOLDEN=tests/golden/paper_figures_400x256x12.txt
#         -DOUT=build/paper_figures.txt
#         -P tests/golden/check_figures.cmake
#
# The scale (--fast: 400x256, 12 frames) is fixed here so the file and
# its check cannot drift apart; --jobs only picks the worker count,
# which must not change a single byte.

foreach(var PAPER_FIGURES GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_figures.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${PAPER_FIGURES}" --fast --jobs 4
  RESULT_VARIABLE rc
  OUTPUT_FILE "${OUT}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper_figures exited with ${rc}")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/compare_golden.cmake)
regpu_compare_golden("${GOLDEN}" "${OUT}" "the paper's tables")

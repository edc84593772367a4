# Byte-compares a regenerated file with its committed golden file
# and, on a mismatch, fails listing every line that differs. Included
# by the golden-file checks in this directory:
#
#   include(${CMAKE_CURRENT_LIST_DIR}/compare_golden.cmake)
#   regpu_compare_golden("${GOLDEN}" "${OUT}" "simulated results")

# The function keeps empty list elements (CMP0007), so blank lines
# count and the reported line numbers are the files' own.
cmake_policy(PUSH)
cmake_policy(SET CMP0007 NEW)

function(regpu_compare_golden golden out what)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${out}"
    RESULT_VARIABLE differ)
  if(differ EQUAL 0)
    return()
  endif()

  file(STRINGS "${golden}" want)
  file(STRINGS "${out}" got)
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
    math(EXPR i "${i} + 1")
    if(NOT a STREQUAL b)
      string(APPEND report "line ${i}\n  golden: ${a}\n  actual: ${b}\n")
    endif()
  endwhile()
  if(report STREQUAL "")
    set(report "(lines match; line endings or the final newline differ)\n")
  endif()
  message(FATAL_ERROR
          "${what} differ from ${golden}\n${report}"
          "A model change regenerates the golden file and quotes its diff.")
endfunction()
cmake_policy(POP)

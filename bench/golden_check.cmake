# Runs one `run_all --quick` bench into a fresh directory and compares every
# file it writes byte for byte with the committed copy in the baseline
# directory. A change that moves the output on purpose copies the new files
# over the baseline and says why.
#
#   cmake -DRUN_ALL=<run_all> -DBENCH=<name> -DOUT=<scratch dir>
#         -DBASELINE=<dir> -P golden_check.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${RUN_ALL}" --quick --bench "${BENCH}" --out "${OUT}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "run_all --quick --bench ${BENCH} failed: ${status}")
endif()
file(GLOB written RELATIVE "${OUT}" "${OUT}/*")
if(NOT written)
  message(FATAL_ERROR "run_all --bench ${BENCH} wrote nothing to ${OUT}")
endif()
foreach(name IN LISTS written)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASELINE}/${name}"
            "${OUT}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT}/${name} differs from ${BASELINE}/${name}")
  endif()
endforeach()

# Runs a paper driver and fails unless its stdout equals a golden file
# byte for byte. SDFMEM_BENCH_JSON is unset so the run takes the plain
# stdout path.
#
#   cmake -DDRIVER=<exe> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P tests/golden/compare_stdout.cmake
unset(ENV{SDFMEM_BENCH_JSON})
execute_process(COMMAND "${DRIVER}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
      "stdout of ${DRIVER} differs from ${GOLDEN}; the run is in ${ACTUAL}")
endif()

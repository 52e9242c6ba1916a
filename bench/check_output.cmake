# Runs one table bench with no arguments (its committed defaults) and
# compares its stdout byte for byte with the pinned output.  On a mismatch
# the output is written to ACTUAL, so `diff EXPECTED ACTUAL` shows what
# moved.
#
#   cmake -DBENCH=<binary> -DEXPECTED=<pinned .txt> -DACTUAL=<path> \
#         -P bench/check_output.cmake
execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()

file(READ ${EXPECTED} expected)
if(actual STREQUAL expected)
  file(REMOVE ${ACTUAL})
else()
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR
    "${BENCH}: stdout differs from the pinned ${EXPECTED}; it was written "
    "to ${ACTUAL}.  If the change is intended, regenerate the pin and say "
    "why in CHANGES.md.")
endif()

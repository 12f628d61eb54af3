# Runs a CLI and asserts it rejects its arguments cleanly: exit status 2
# and exactly one line on stderr (not an abort with a backtrace).
#
#   cmake -DCOMMAND="<program>|<arg>|<arg>..." -P expect_usage_error.cmake
#
# Arguments are separated by '|' so the list survives add_test().
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr:\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "\n$")
  message(FATAL_ERROR "expected one line on stderr, got:\n${err}")
endif()

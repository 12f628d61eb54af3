# Runs a traced CLI once at --threads 1 and once at --threads 4 and
# asserts that the two traces agree event for event once their `timing`
# members are stripped (`ceal_trace --check-determinism`).
#
#   cmake -DCOMMAND="<program>|<arg>..." -DWORK_DIR=<scratch dir>
#         -DCEAL_TRACE=<ceal_trace program>
#         -P expect_same_trace_across_threads.cmake
#
# Arguments are separated by '|' so the list survives add_test().
string(REPLACE "|" ";" command "${COMMAND}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(threads 1 4)
  execute_process(COMMAND ${command} --threads ${threads}
      --trace trace${threads}.jsonl
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "--threads ${threads} failed with status '${rc}'")
  endif()
endforeach()
execute_process(COMMAND "${CEAL_TRACE}" --input "${WORK_DIR}/trace4.jsonl"
    --check-determinism "${WORK_DIR}/trace1.jsonl"
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "the --threads 4 trace differs from --threads 1")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")

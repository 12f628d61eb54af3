# Regenerates committed result files in a fresh directory and diffs them
# byte for byte against the goldens in this directory. Trace goldens are
# stored with every `timing` member removed and are compared with
# `ceal_trace --check-determinism`, which strips `timing` on both sides.
#
#   cmake -DCOMMAND="<program>|<arg>..." -DENV="NAME=value|..."
#         -DWORK_DIR=<scratch dir> -DSTDOUT_GOLDEN=<file or empty>
#         -DFILES="<produced name>=<golden path>|..."
#         -DTRACES="<produced trace>=<stripped golden>|..."
#         -DCEAL_TRACE=<ceal_trace program> -P check_golden.cmake
#
# Lists are separated by '|' so they survive add_test(). A mismatch
# means an algorithm-visible change: re-pin the goldens only on purpose.
string(REPLACE "|" ";" command "${COMMAND}")
string(REPLACE "|" ";" env "${ENV}")
string(REPLACE "|" ";" files "${FILES}")
string(REPLACE "|" ";" traces "${TRACES}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env} ${command}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_FILE "${WORK_DIR}/stdout.txt")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "command failed with status '${rc}'")
endif()
if(STDOUT_GOLDEN)
  list(APPEND files "stdout.txt=${STDOUT_GOLDEN}")
endif()
foreach(pair IN LISTS files)
  string(REPLACE "=" ";" parts "${pair}")
  list(GET parts 0 produced)
  list(GET parts 1 golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORK_DIR}/${produced}" "${golden}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK_DIR}/${produced} differs from ${golden}")
  endif()
endforeach()
foreach(pair IN LISTS traces)
  string(REPLACE "=" ";" parts "${pair}")
  list(GET parts 0 produced)
  list(GET parts 1 golden)
  execute_process(COMMAND "${CEAL_TRACE}" --input "${WORK_DIR}/${produced}"
      --check-determinism "${golden}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK_DIR}/${produced} differs from ${golden}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")

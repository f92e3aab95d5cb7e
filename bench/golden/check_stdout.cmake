# Runs one bench or example binary in a fresh directory and compares its
# standard output with a committed golden, byte for byte.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir> [-DTRACE=1] \
#         -P check_stdout.cmake
#
# The binary runs in WORK_DIR because table5_4 writes its JSON and Chrome
# trace into the working directory. TABS_TRACE is set from TRACE and every
# other variable that selects bench output is cleared, so the result does not
# depend on the caller's environment. TABS_COMMIT_MODE is left alone: ctest
# runs each golden under both modes (the tables pin their protocol; an example
# whose output names protocol state has a separate Paxos golden).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
unset(ENV{TABS_BENCH_SMOKE})
if(TRACE)
  set(ENV{TABS_TRACE} 1)
else()
  unset(ENV{TABS_TRACE})
endif()

execute_process(
  COMMAND "${BIN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${WORK_DIR}/stdout.txt" "${actual}")
  message(FATAL_ERROR "stdout differs from the golden; compare with\n"
                      "  diff ${GOLDEN} ${WORK_DIR}/stdout.txt")
endif()

# Run one command and check how it exits; the BenchUsage.* and
# ExampleSmoke.* ctest entries use it. Run as
#   cmake -DCMD=<binary> -DARGS=<a|b|...> -DEXPECT_CODE=<n>
#         [-DEXPECT_STDOUT=<regex>] [-DEXPECT_STDERR=<regex>]
#         -P expect_exit.cmake
# ARGS separates arguments with '|' so the list survives add_test.
# An uncaught exception ("terminate called") always fails the check.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
set(report "command: ${CMD} ${args}\nexit: ${code}\nstdout: ${out}\nstderr: ${err}")
if(NOT code STREQUAL "${EXPECT_CODE}")
    message(FATAL_ERROR "expected exit ${EXPECT_CODE}\n${report}")
endif()
if(err MATCHES "terminate called")
    message(FATAL_ERROR "uncaught exception\n${report}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
    message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}'\n${report}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
    message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'\n${report}")
endif()

# Runs a command and requires an exact exit code and a stderr match, for
# CLI input-validation gates (WILL_FAIL only checks for a non-zero exit, and
# PASS_REGULAR_EXPRESSION ignores the exit code). Invoked with:
#   -DCOMMAND=<program|arg|...> -DEXPECT_EXIT=<code> -DEXPECT_STDERR=<regex>
# The command's words are '|'-separated so they survive add_test intact.

string(REPLACE "|" ";" COMMAND "${COMMAND}")
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_EXIT}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()

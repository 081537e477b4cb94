# Runs TOOL with ARGS ('|'-separated) and fails unless it exits with EXPECTED.
#   cmake -DTOOL=<exe> -DARGS=<a|b|c> -DEXPECTED=<code> -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "expected exit ${EXPECTED}, got ${code}\n${out}${err}")
endif()

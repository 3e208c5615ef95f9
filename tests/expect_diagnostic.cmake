# Runs CMD (a ;-list: program and arguments) and requires a clean refusal:
# exit code EXPECT_RC (default 1) and a diagnostic matching EXPECT_RE.  A
# crash (signal), any other exit or a missing diagnostic fails the test.
# With EXPECT_FILE set, that file must also have been written by the run.
#
#   cmake "-DCMD=<prog>;<arg>..." "-DEXPECT_RE=<regex>" [-DEXPECT_RC=<code>]
#         [-DEXPECT_FILE=<path>] -P expect_diagnostic.cmake
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 1)
endif()
if(DEFINED EXPECT_FILE)
  file(REMOVE "${EXPECT_FILE}")
endif()
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "expected exit code ${EXPECT_RC}, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${err}" MATCHES "${EXPECT_RE}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_RE}'\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_FILE AND NOT EXISTS "${EXPECT_FILE}")
  message(FATAL_ERROR "expected output '${EXPECT_FILE}' was not written\nstdout:\n${out}")
endif()

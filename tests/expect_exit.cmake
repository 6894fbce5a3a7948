# Runs a command and passes only if it exits with exactly EXPECT and
# writes one stderr line containing MATCH. An exact status tells a
# clean rejection from a crash, which would also be "non-zero".
#
#   cmake -DEXPECT=<status> -DMATCH=<text> [-DENV=NAME=VALUE]
#         -P expect_exit.cmake <command> [args...]
set(cmd)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first "${i} + 2")  # the command follows the script path
  elseif(DEFINED first AND i GREATER_EQUAL first)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  endif()
endforeach()

if(DEFINED ENV)
  string(FIND "${ENV}" "=" eq)
  string(SUBSTRING "${ENV}" 0 ${eq} env_name)
  math(EXPR value_at "${eq} + 1")
  string(SUBSTRING "${ENV}" ${value_at} -1 env_value)
  set(ENV{${env_name}} "${env_value}")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${cmd}: exit status ${status}, want ${EXPECT}; stderr: ${err}")
endif()
if(NOT lines EQUAL 1)
  message(FATAL_ERROR "${cmd}: want one stderr line, got ${lines}: ${err}")
endif()
string(FIND "${err}" "${MATCH}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "${cmd}: stderr does not mention '${MATCH}': ${err}")
endif()

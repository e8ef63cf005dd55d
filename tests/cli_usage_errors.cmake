# Runs a table of bad antalloc_cli invocations. Each must exit 2 and print a
# non-empty "error: ..." line on stderr that holds the expected text, never
# abort. Registered as the ctest entry cli_usage_errors; by hand:
#   cmake -DCLI=build/examples/antalloc_cli -DWORK_DIR=/tmp/cli_errors \
#         -P tests/cli_usage_errors.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<antalloc_cli> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/empty" "${WORK_DIR}/v2")
file(WRITE "${WORK_DIR}/v2/shard-0-of-2.manifest"
  "format antalloc-campaign-shard-v2\nconfig_hash 00000000deadbeef\n")

# A two-cell campaign in two shards, then shard 1's file (cell 1) removed.
set(small --n=256 --demand=50 --rounds=50 --replicates=1)
foreach(i 0 1)
  execute_process(
    COMMAND "${CLI}" --campaign=true --scenarios=constant --algos=ant,trivial
            --k=2 ${small} --shard=${i}/2 --out=${WORK_DIR}/partial
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "shard ${i}/2 did not run (exit ${rc}): ${err}")
  endif()
endforeach()
file(REMOVE "${WORK_DIR}/partial/shard-1-of-2.journal")

# expect_usage_error(<case> <regex the error line must match> <cli args>...)
function(expect_usage_error name expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX MATCH "error: [^\n]+" line "${err}")
  if(NOT rc STREQUAL "2" OR line STREQUAL "")
    message(SEND_ERROR
      "${name}: want exit 2 and an 'error:' line, got exit '${rc}': ${err}")
  elseif(NOT line MATCHES "${expected}")
    message(SEND_ERROR "${name}: '${line}' does not match '${expected}'")
  else()
    message(STATUS "${name}: ${line}")
  endif()
endfunction()

expect_usage_error("k=1 with every scenario family" "task-death"
  --campaign=true --k=1 ${small})
expect_usage_error("merge of a missing directory" "is not a directory"
  --merge=${WORK_DIR}/missing)
expect_usage_error("merge of an empty directory" "no \\*\\.journal files"
  --merge=${WORK_DIR}/empty)
expect_usage_error("merge of a v2 manifest directory"
  "antalloc-campaign-shard-v2.*antalloc-campaign-shard-v3"
  --merge=${WORK_DIR}/v2)
expect_usage_error("merge with one shard file removed" "missing cells 1$"
  --merge=${WORK_DIR}/partial)
expect_usage_error("unknown engine" "unknown engine 'bogus'"
  --engine=bogus ${small})
expect_usage_error("shard index past the shard count" "index < count"
  --campaign=true --scenarios=constant --algos=ant --k=2 ${small}
  --shard=5/3)
expect_usage_error("shard flags without a campaign" "require --campaign=true"
  --shard=0/2 ${small})
expect_usage_error("unknown flag" "unknown flag --no-such-flag"
  --no-such-flag=1 ${small})

# Sink equivalence: an observability sink writes the same file whichever
# way it was switched on (obs/switchboard.hpp).
#
#   cmake -DSCHEDULER=<cluster_scheduler> -DPLAIN=<fig02_ligen_workload>
#         -DWORK_DIR=<scratch dir> -P sink_equivalence.cmake
#
# SCHEDULER is a binary with the observability CLI (--trace-out,
# --metrics-out, --ledger-out); PLAIN is one without it, which must still
# honour the DSEM_TRACE / DSEM_METRICS / DSEM_LEDGER environment variables.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(clean_env --unset=DSEM_TRACE --unset=DSEM_METRICS --unset=DSEM_LEDGER)
set(scheduler_args --jobs 100)

# run(<VAR=value>... -- <command> <args>...)
function(run)
  list(FIND ARGN "--" split)
  list(SUBLIST ARGN 0 ${split} env)
  math(EXPR first "${split} + 1")
  list(SUBLIST ARGN ${first} -1 command)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${clean_env} ${env} ${command}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${env} ${command}")
  endif()
endfunction()

# expect_json(<file> <expected> <json path>...): the string at the path.
function(expect_json file expected)
  if(NOT EXISTS "${WORK_DIR}/${file}")
    message(FATAL_ERROR "${file} was not written")
  endif()
  file(READ "${WORK_DIR}/${file}" text)
  string(JSON got ERROR_VARIABLE error GET "${text}" ${ARGN})
  if(error OR NOT got STREQUAL expected)
    message(FATAL_ERROR
      "${file}: ${ARGN} is '${got}', expected '${expected}' ${error}")
  endif()
endfunction()

function(expect_absent file)
  if(EXISTS "${WORK_DIR}/${file}")
    message(FATAL_ERROR "${file} was written but not requested")
  endif()
endfunction()

# 1. DSEM_LEDGER and --ledger-out write byte-identical ledgers.
run(DSEM_LEDGER=ledger_env.json -- "${SCHEDULER}" ${scheduler_args})
run(-- "${SCHEDULER}" ${scheduler_args} --ledger-out ledger_flag.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/ledger_env.json" "${WORK_DIR}/ledger_flag.json"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "DSEM_LEDGER and --ledger-out ledgers differ")
endif()
expect_json(ledger_env.json dsem-ledger-v1 schema)
expect_json(ledger_env.json cluster_scheduler program)

# 2. DSEM_METRICS and --metrics-out both write dsem-run-v1 manifests.
run(DSEM_METRICS=run_env.json -- "${SCHEDULER}" ${scheduler_args})
run(-- "${SCHEDULER}" ${scheduler_args} --metrics-out run_flag.json)
foreach(manifest run_env.json run_flag.json)
  expect_json(${manifest} dsem-run-v1 schema)
  expect_json(${manifest} cluster_scheduler program)
  expect_json(${manifest} dsem-metrics-v1 metrics schema)
endforeach()

# The flag wins over the environment variable.
run(DSEM_LEDGER=ledger_loser.json --
    "${SCHEDULER}" ${scheduler_args} --ledger-out ledger_winner.json)
expect_json(ledger_winner.json dsem-ledger-v1 schema)
expect_absent(ledger_loser.json)

# 3. Without the CLI plumbing each variable alone still writes its file.
run(DSEM_TRACE=plain_trace.json -- "${PLAIN}")
file(READ "${WORK_DIR}/plain_trace.json" trace_text)
string(JSON events ERROR_VARIABLE error LENGTH "${trace_text}" traceEvents)
if(error OR events EQUAL 0)
  message(FATAL_ERROR "DSEM_TRACE wrote no trace events: ${error}")
endif()
expect_absent(plain_run.json)
run(DSEM_METRICS=plain_run.json -- "${PLAIN}")
expect_json(plain_run.json dsem-run-v1 schema)
expect_json(plain_run.json dsem-metrics-v1 metrics schema)
expect_absent(plain_ledger.json)
run(DSEM_LEDGER=plain_ledger.json -- "${PLAIN}")
expect_json(plain_ledger.json dsem-ledger-v1 schema)

# The one seed rule: `--seed N` means run.seed N and nothing more, so a spec
# run and the same run with its own run.seed given again as --seed must fold
# the same run-state digest.
#
#   cmake -DTOOL=<prog> -DSPEC=<spec.json> -DSEED=<its run.seed> -P seed_rule.cmake
foreach(extra "" "--seed=${SEED}")
  execute_process(COMMAND ${TOOL} --spec=${SPEC} --state-hash ${extra}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "'${extra}' run exited '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT out MATCHES "state-hash   : ([0-9a-f]+)")
    message(FATAL_ERROR "'${extra}' run printed no state-hash line\nstdout:\n${out}")
  endif()
  list(APPEND digests ${CMAKE_MATCH_1})
endforeach()
list(GET digests 0 plain)
list(GET digests 1 seeded)
if(NOT plain STREQUAL seeded)
  message(FATAL_ERROR "--seed=${SEED} changed the digest: ${plain} -> ${seeded}")
endif()

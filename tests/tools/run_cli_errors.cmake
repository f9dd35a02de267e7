# Runs the CLIs on invalid input and demands that each reports its
# error exactly once on stderr and exits 1, at the default log level
# and under `--log-level silent` (which hides log lines, never the
# error itself). Also covers integer options whose value does not fit
# the type the tool stores it in: they must be rejected, not wrapped.
#
# Expected -D variables:
#   SIM      path to the fastcap_sim executable
#   CLUSTER  path to the fastcap_cluster executable
#   SWEEP    path to the fastcap_sweep executable

# check(<message> <command...>): the command exits 1 and its stderr
# holds <message> exactly once.
function(check message)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REPLACE "${message}" "\n@@MATCH@@\n" marked "${err}")
  string(REGEX MATCHALL "@@MATCH@@" hits "${marked}")
  list(LENGTH hits count)
  if(NOT rc EQUAL 1 OR NOT count EQUAL 1)
    message(FATAL_ERROR
      "expected exit 1 and '${message}' once on stderr; got exit "
      "${rc} and ${count} copies from:\n  ${ARGN}\nstderr:\n${err}")
  endif()
endfunction()

set(budget_msg "budget fraction must be in (0, 1]")
check("${budget_msg}" ${SIM} --budget 1.5)
check("${budget_msg}" ${SIM} --budget 1.5 --log-level silent)
check("need at least one machine" ${CLUSTER} --machines 0)
check("need at least one machine"
  ${CLUSTER} --machines 0 --log-level silent)

check("bad value '4294967312' for option '--cores'"
  ${SIM} --cores 4294967312)
check("bad value '4294967297' for option '--max-epochs'"
  ${SIM} --max-epochs 4294967297)
check("bad value '4294967297' for option '--machines'"
  ${CLUSTER} --machines 4294967297 --cores 4)
check("bad cores value '4294967312' (expected an integer)"
  ${SWEEP} --cores 4294967312 --workloads ILP1 --policies FastCap)
check("bad max-epochs value '4294967297' (expected an integer)"
  ${SWEEP} --max-epochs 4294967297 --workloads ILP1 --policies FastCap
  --log-level silent)
check("bad seed '18446744073709551616'"
  ${SWEEP} --seed 18446744073709551616 --workloads ILP1 --policies FastCap)

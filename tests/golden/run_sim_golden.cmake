# Golden-output runner for the fastcap_sim modes no sweep golden
# covers: idealized out-of-order cores, skewed interleave over four
# controllers, and the sharded engine forced on at 64 cores, with
# in-order cores and with out-of-order cores over four controllers
# (several L2 submits pending per lane). Each run
# crosses a 0.9 -> 0.5 budget step and byte-compares the full stdout
# (summary plus --epoch-csv rows) against the committed reference.
#
#   cmake -DSIM=<fastcap_sim> -DMODE=ooo|skew|sharded|sharded_ooo
#         -DGOLDEN=<reference.txt> -DOUT=<scratch.txt>
#         -P run_sim_golden.cmake
#
# A mismatch means a change altered simulation results. If that is
# intentional (a bugfix or a model change), regenerate the reference
# with the same command line as below and call the change out in the
# PR description.

foreach(var SIM MODE GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_sim_golden.cmake: missing -D${var}=...")
  endif()
endforeach()

if(MODE STREQUAL "ooo")
  set(mode_args --ooo)
elseif(MODE STREQUAL "skew")
  set(mode_args --controllers 4 --skew 0.5)
elseif(MODE STREQUAL "sharded")
  set(mode_args --shards 4 --shard-threads 2)
elseif(MODE STREQUAL "sharded_ooo")
  set(mode_args --ooo --controllers 4 --shards 8 --shard-threads 2)
else()
  message(FATAL_ERROR "run_sim_golden.cmake: unknown MODE '${MODE}'")
endif()

execute_process(
  COMMAND ${SIM} --workload MIX3 --policy FastCap --cores 64
          --instructions 1e12 --max-epochs 20 --epoch-csv
          --scenario "name=drop|budget=step@0:0.9;step@0.05:0.5"
          ${mode_args}
  RESULT_VARIABLE rc
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fastcap_sim (${MODE}) failed (${rc}): ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "golden output mismatch: ${OUT} differs from ${GOLDEN}. If the "
    "result change is intentional, regenerate the reference (see "
    "tests/golden/run_sim_golden.cmake) and justify it in the PR.")
endif()

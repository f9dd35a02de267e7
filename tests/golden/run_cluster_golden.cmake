# Golden-output runner for the rack: four 64-core monolithic machines
# under one budget, a flash-crowd trace and a machine failure. Every
# machine's event queue is large enough for the fixed-delay lanes, so
# this pins the lane path end to end. The reference was recorded
# before the lanes existed and must never be regenerated to make a
# queue change pass: the lanes promise the heap-only firing order.
#
#   cmake -DCLUSTER=<fastcap_cluster> -DGOLDEN=<reference.csv>
#         -DOUT=<scratch.csv> -P run_cluster_golden.cmake
#
# A mismatch means a change altered rack results (stdout: summary
# plus --csv rows).

foreach(var CLUSTER GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_cluster_golden.cmake: missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CLUSTER} --machines 4 --cores 64 --budget 0.6
          --trace gen:flash,rate=6000,mean-duration=0.03,seed=7
          --fail 2@8:16 --max-epochs 24 --machine-threads 4 --csv -
  RESULT_VARIABLE rc
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fastcap_cluster failed (${rc}): ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "golden output mismatch: ${OUT} differs from ${GOLDEN}: the rack "
    "run's results changed.")
endif()

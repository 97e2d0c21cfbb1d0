# BenchE2eSmoke: runs every workload of prodigy_bench at smoke size and fails
# when any run's correctness gates fail.
#   cmake -DBENCH=/path/to/prodigy_bench -P smoke.cmake
foreach(workload fleet_shallow deep_window dashboard_ingest)
  execute_process(COMMAND ${BENCH} --workload ${workload} --seed 1 --smoke
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${workload} failed (exit ${code}):\n${out}\n${err}")
  endif()
  message(STATUS "${workload}: correctness gates hold")
endforeach()

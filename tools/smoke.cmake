# ToolsSmoke: drives the four CLI tools end to end on a small store and fails
# on any unexpected exit status or any "MISMATCH" line.  The stream replays
# run --verify-batch (bitwise stream-vs-batch scores) at W=64/H=16
# (incremental extraction), W=64/H=64 (full recompute), W=300/H=7
# (approximate entropy's subsample stride is not an integer there) and
# W=32/H=48 (full recompute over windows that skip rows between them).
# Usage errors (a negative count, a value flag without its value, a node
# list token that is not a count) must exit 2; a config the generator
# refuses or an unknown application must end the tool with exit 1.
#   cmake -DSIMULATE=... -DTRAIN=... -DPREDICT=... -DSTREAM=... -P smoke.cmake
# It writes store.dsos and model/ into the working directory.
function(run_tool expected)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(JOIN ARGN " " command)
  if(NOT code EQUAL expected)
    message(FATAL_ERROR
      "exit ${code} (expected ${expected}): ${command}\n${out}\n${err}")
  endif()
  string(FIND "${out}" "MISMATCH" mismatch)
  if(NOT mismatch EQUAL -1)
    message(FATAL_ERROR "stream/batch mismatch: ${command}\n${out}")
  endif()
  message(STATUS "ok: ${command}")
endfunction()

run_tool(0 ${SIMULATE} --out store.dsos --app LAMMPS --jobs 6 --nodes 4
         --duration 150)
run_tool(0 ${TRAIN} --store store.dsos --out model --epochs 30)
run_tool(0 ${PREDICT} --store store.dsos --model model --all)
foreach(shape "64;16" "64;64" "300;7" "32;48")
  list(GET shape 0 window)
  list(GET shape 1 hop)
  run_tool(0 ${STREAM} --model model --speed 0 --nodes 4 --duration 420
           --anomaly memleak --anomalous-nodes 1 --verify-batch
           --window ${window} --hop ${hop})
endforeach()
# A negative count is a usage error, not a wrapped size_t.
run_tool(2 ${PREDICT} --store store.dsos --model model --all --repeat -1)
# So is a value flag given without its value.
run_tool(2 ${TRAIN} --store store.dsos --out model --epochs)
run_tool(2 ${PREDICT} --store store.dsos --model model --all --metrics-out)
# So is a node list token that is not a count.
run_tool(2 ${SIMULATE} --out bad.dsos --app LAMMPS --jobs 1 --nodes 2
         --anomaly memleak --anomalous-nodes abc)
# A config the generator cannot honour, or an unknown application, ends the
# tool with its message and exit 1, not an abort.
run_tool(1 ${SIMULATE} --out bad.dsos --app LAMMPS --jobs 1 --nodes 2
         --anomaly memleak --anomalous-nodes 7)
run_tool(1 ${SIMULATE} --out bad.dsos --app NOPE --jobs 1 --nodes 2)

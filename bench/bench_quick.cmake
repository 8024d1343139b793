# ctest entry point for the quick experiment pipeline (see CMakeLists.txt):
#
#   cmake -DRUNNER=<bench_runner> -DSCALING_CHECK=<scaling_check>
#         -DREPORT=<repro_report> -DBASELINES=<dir> -DOUT=<dir>
#         -P bench_quick.cmake
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${ARGN}")
  endif()
endfunction()

file(REMOVE_RECURSE ${OUT})
run(${RUNNER} --quick --out=${OUT}
    --experiments=e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,e13,e14,e15,e16,e17,e18,e20)

set(gated)
foreach(id E1 E2 E8 E9 E17 E18 E20)
  list(APPEND gated ${OUT}/BENCH_${id}.json)
endforeach()
run(${SCALING_CHECK} --baseline-dir=${BASELINES} ${gated})

file(GLOB artifacts ${OUT}/BENCH_*.json)
run(${REPORT} ${artifacts})

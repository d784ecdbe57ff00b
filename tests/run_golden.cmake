# Golden-file regression driver: run one bench executable in its own
# scratch directory and require its CSV artifact to be byte-for-byte
# identical to the committed golden. Invoked by ctest as
#
#   cmake -DBENCH=<path-to-exe> -DCSV=<name>.csv -DGOLDEN=<path> \
#         -DWORKDIR=<scratch> [-DARGS="<space-separated args>"] \
#         -P run_golden.cmake
#
# ARGS is optional: benches take none, a tool such as fault_campaign
# takes the options that make it write <name>.csv.
#
# A drifted artifact fails with a unified diff so the change is visible
# in the ctest log; intentional model changes re-bless the golden by
# copying the new CSV over tests/golden/<name>.csv.
foreach(var BENCH CSV GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")

file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}")
endif()

set(produced "${WORKDIR}/${CSV}")
if(NOT EXISTS "${produced}")
  message(FATAL_ERROR "${BENCH} did not write ${CSV}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${produced}" "${GOLDEN}"
  RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${produced}"
                  OUTPUT_VARIABLE delta ERROR_VARIABLE delta)
  message(FATAL_ERROR
      "${CSV} drifted from the golden ${GOLDEN}:\n${delta}\n"
      "If the change is intentional, re-bless with: cp ${produced} ${GOLDEN}")
endif()
message(STATUS "${CSV} matches golden byte-for-byte")

# CTest script: run the papar CLI end to end on the shipped configurations.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A small deterministic edge list.
set(edges "")
foreach(i RANGE 0 499)
  math(EXPR src "(${i} * 37 + 11) % 97")
  math(EXPR dst "(${i} * 13 + 5) % 23")
  string(APPEND edges "${src}\t${dst}\n")
endforeach()
file(WRITE "${WORK_DIR}/edges.txt" "${edges}")

execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --stats
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar CLI failed (${rc}): ${out} ${err}")
endif()

# Every input edge must land in exactly one partition file.
set(total 0)
foreach(p RANGE 0 3)
  if(NOT EXISTS "${WORK_DIR}/parts/graph.${p}")
    message(FATAL_ERROR "missing partition file graph.${p}")
  endif()
  file(STRINGS "${WORK_DIR}/parts/graph.${p}" lines)
  list(LENGTH lines n)
  math(EXPR total "${total} + ${n}")
endforeach()
if(NOT total EQUAL 500)
  message(FATAL_ERROR "partitions hold ${total} edges, expected 500")
endif()

# Same workflow under an injected crash plus a lossy fabric: the run must
# recover and write partitions byte-identical to the fault-free run above.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-faulted/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --stats
          --faults "drop=0.05,crash=1@20" --fault-seed 7
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar CLI failed under fault injection (${rc}): ${out} ${err}")
endif()
# Progress/analysis output goes to stderr (stdout stays clean for piping).
if(NOT err MATCHES "faults injected")
  message(FATAL_ERROR "faulted CLI run did not report fault counts: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "papar polluted stdout: ${out}")
endif()
foreach(p RANGE 0 3)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/parts/graph.${p}" "${WORK_DIR}/parts-faulted/graph.${p}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "partition graph.${p} differs between the fault-free "
                        "and crash-recovered runs")
  endif()
endforeach()

# The benchmark's spelling of the executor (`--scheduler fibers --workers 2`)
# must run and write partitions byte-identical to the default run.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-workers/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --scheduler fibers --workers 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar CLI failed with --scheduler fibers --workers 2 (${rc}): ${out} ${err}")
endif()
foreach(p RANGE 0 3)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/parts/graph.${p}" "${WORK_DIR}/parts-workers/graph.${p}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "partition graph.${p} differs between the default and "
                        "the two-worker run")
  endif()
endforeach()

# Removed executor and sort-engine choices are typed errors: exit code 1
# with a message, never a crash and never a silent fallback.
foreach(removed "--scheduler;threads" "--sort;merge")
  execute_process(
    COMMAND "${PAPAR_CLI}"
            --input-config "${CONFIG_DIR}/graph_edge.xml"
            --workflow "${CONFIG_DIR}/hybrid_cut.xml"
            --arg input_file=edges.txt
            --arg output_path=${WORK_DIR}/parts-removed/graph
            --arg num_partitions=4
            --arg threshold=15
            --file edges.txt=${WORK_DIR}/edges.txt
            --nodes 4 ${removed}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REPLACE ";" " " shown "${removed}")
  if(NOT rc EQUAL 1 OR NOT err MATCHES "papar: config error")
    message(FATAL_ERROR "`${shown}` should fail with a config error, got (${rc}): ${err}")
  endif()
  if(EXISTS "${WORK_DIR}/parts-removed")
    message(FATAL_ERROR "`${shown}` wrote partitions instead of failing")
  endif()
endforeach()

# cfc_report diff must refuse, naming the field, to compare two bench
# payloads whose context differs in nproc, compiler or threads, and must
# still diff payloads recorded under the same context.
#
#   cmake -DCFC_REPORT=<path to cfc_report> -DWORK_DIR=<scratch dir>
#         -P tests/cfc_report_refusal.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")

function(write_payload path nproc compiler threads)
  file(WRITE "${path}"
    "{\"schema\": \"cfc.bench.v1\", \"bench\": \"probe\", "
    "\"context\": {\"git_sha\": \"abc\", \"nproc\": ${nproc}, "
    "\"compiler\": \"${compiler}\", \"threads\": ${threads}}, "
    "\"studies\": [], "
    "\"rows\": [{\"section\": \"throughput\", \"depth\": 12, "
    "\"states_per_sec\": 1000}], "
    "\"summary\": {\"checks_total\": 0, \"checks_failed\": 0, "
    "\"elapsed_ms\": 0}}\n")
endfunction()

write_payload("${WORK_DIR}/base.json" 4 "gcc 12.2.0" 0)
write_payload("${WORK_DIR}/same.json" 4 "gcc 12.2.0" 0)
write_payload("${WORK_DIR}/nproc.json" 8 "gcc 12.2.0" 0)
write_payload("${WORK_DIR}/compiler.json" 4 "clang 18.1.3" 0)
write_payload("${WORK_DIR}/threads.json" 4 "gcc 12.2.0" 1)

execute_process(
  COMMAND "${CFC_REPORT}" diff "${WORK_DIR}/base.json" "${WORK_DIR}/same.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "same-context diff exited ${rc}:\n${out}${err}")
endif()

foreach(field nproc compiler threads)
  execute_process(
    COMMAND "${CFC_REPORT}" diff "${WORK_DIR}/base.json"
            "${WORK_DIR}/${field}.json"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR
      "diff across ${field} exited ${rc}, want 3 (refused):\n${out}${err}")
  endif()
  if(NOT err MATCHES "refused: context\\.${field} differs")
    message(FATAL_ERROR "refusal does not name context.${field}:\n${err}")
  endif()
endforeach()

# Determinism on the observed path: run asasim twice with the same seed and
# every observer on (flight recorder, metrics, trace, spans) over loss, a
# WAN link, a join and a leave, then require each run's console output
# (which includes the flight-recorder dump) and each export to be
# byte-identical.
#
#   cmake -DASASIM=<asasim binary> -DOUT=<scratch dir> -P obs_reproducible.cmake
foreach(var ASASIM OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "obs_reproducible.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
foreach(run first second)
  # Each run writes the same relative names in its own directory, so the
  # "written to" lines of the console output match too.
  file(MAKE_DIRECTORY "${OUT}/${run}")
  execute_process(
    COMMAND "${ASASIM}" --nodes 12 --updates 30 --seed 5 --drop 0.01
            --join 200000 --leave 3:600000 --depart 7:900000
            --link 0:5:wan --writers 3 --zipf 120 --reads 25 --flight 64
            --metrics-out metrics.json --trace-out trace.jsonl
            --spans-out spans.json
    WORKING_DIRECTORY "${OUT}/${run}"
    OUTPUT_FILE "${OUT}/${run}/console.txt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "asasim (${run} run) exited with ${rc}")
  endif()
endforeach()

foreach(file console.txt metrics.json trace.jsonl spans.json)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT}/first/${file}" "${OUT}/second/${file}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${file} differs between two same-seed runs")
  endif()
endforeach()
file(READ "${OUT}/first/console.txt" console)
if(NOT console MATCHES "flight recorder \\(")
  message(FATAL_ERROR "the console output carries no flight-recorder dump")
endif()
message(STATUS "same-seed runs byte-identical: console, metrics, trace, spans")

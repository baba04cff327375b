# Pins the simulated runs of the fabric benchmark's gated workloads.
#
# Runs each workload at seed 1 for 3 s with tracing off and compares its
# `digest:` line, a hash over every sim-time result (latencies, first-packet
# and onboarding times, map-server waits, counts), with the value below. The
# simulated work is fixed by --seconds, not by wall time, so the digest is the
# same on any machine and in the sanitizer tree. A change that alters the
# simulated run on purpose updates the value here and says why in CHANGES.md.
# Each workload also runs at seed 2, whose digest must differ from seed 1's:
# a digest that ignores the seed would pin nothing.
#
#   cmake -DFABRICBENCH=<path to fabricbench> -P bench/check_digests.cmake
if(NOT FABRICBENCH)
  message(FATAL_ERROR "usage: cmake -DFABRICBENCH=<binary> -P check_digests.cmake")
endif()

set(pinned
    cached_16e e642287a900fe686
    miss_failover_16e eaa936dff645110b
    roam_16e 7eef0f6b0bc43a74)

set(failed FALSE)
list(LENGTH pinned n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET pinned ${i} workload)
  list(GET pinned ${j} expected)
  foreach(seed 1 2)
    execute_process(
      COMMAND ${FABRICBENCH} --workload ${workload} --seed ${seed} --seconds 3 --trace 0
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    string(REGEX MATCH "digest: ([0-9a-f]+)" matched "${out}")
    set(digest_${seed} "${CMAKE_MATCH_1}")
    if(NOT rc EQUAL 0)
      message(SEND_ERROR "${workload}: fabricbench --seed ${seed} exited with ${rc}\n${err}")
      set(failed TRUE)
    endif()
  endforeach()
  if(NOT digest_1 STREQUAL expected)
    message(SEND_ERROR "${workload}: digest '${digest_1}', pinned ${expected}")
    set(failed TRUE)
  elseif(digest_2 STREQUAL digest_1)
    message(SEND_ERROR "${workload}: seed 2 gives seed 1's digest ${digest_1}")
    set(failed TRUE)
  else()
    message(STATUS "${workload}: digest ${digest_1}, seed 2 ${digest_2}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "the simulated runs changed")
endif()

# Configures and builds an AddressSanitizer-instrumented tree of this
# project and runs the memory-sensitive tests in it. Invoked by the
# `asan_serve_and_common` ctest entry (see tests/CMakeLists.txt) with:
#   -DGANNS_SRC=<source dir> -DGANNS_ASAN_BUILD=<subbuild dir>
#
# The serving lifecycle (snapshot swap, clone-on-write graphs, background
# compaction) is exactly the kind of code where a stale reference outlives
# its epoch; ASan turns such a bug into a hard failure instead of a flaky
# read. The whole tree is instrumented (GANNS_SANITIZE=address applies
# add_compile_options globally) so library and test frames agree on the
# shadow memory layout.

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${GANNS_SRC} -B ${GANNS_ASAN_BUILD}
          -DGANNS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ASan subbuild configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${GANNS_ASAN_BUILD}
          --target serve_test obs_concurrency_test common_concurrency_test
                   quantize_test cluster_test federation_test
                   ganns_search_test
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ASan subbuild compile failed")
endif()

# detect_stack_use_after_return makes any instrumented access to a returned
# ParallelFor frame (the caller's stack-local completion state) a hard
# report; BackToBackTinyLoopsComplete makes thousands of such hand-offs.
execute_process(COMMAND ${CMAKE_COMMAND} -E env
                        ASAN_OPTIONS=detect_stack_use_after_return=1
                        ${GANNS_ASAN_BUILD}/tests/common_concurrency_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "common_concurrency_test failed under ASan")
endif()

# GANNS_TRACING=1 turns tracing and metrics on for the whole run, so the
# instrumentation buffers (trace recorder, HDR histograms, exemplars) are
# allocated and torn down under the leak/overflow checker as well.
execute_process(COMMAND ${CMAKE_COMMAND} -E env GANNS_TRACING=1
                        ${GANNS_ASAN_BUILD}/tests/serve_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve_test failed under ASan")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E env GANNS_TRACING=1
                        ${GANNS_ASAN_BUILD}/tests/obs_concurrency_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obs_concurrency_test failed under ASan")
endif()

# The compressed-search kernels index packed byte arrays with slot ids and
# the LUT path does per-subspace pointer arithmetic over the codebooks —
# exactly the indexing ASan exists to check.
execute_process(COMMAND ${GANNS_ASAN_BUILD}/tests/quantize_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quantize_test failed under ASan")
endif()

# The GANNS kernel's host fast path indexes a per-thread vertex table by
# vertex id across graphs of different sizes; its differential test runs
# with tracing on, so the phase spans are recorded under ASan too.
execute_process(COMMAND ${GANNS_ASAN_BUILD}/tests/ganns_search_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ganns_search_test failed under ASan")
endif()

# The cluster layer shuttles snapshot merges across simulated nodes and the
# monitoring plane diffs registry snapshots it does not own; both run with
# tracing on so the flow-event and alert-instant paths allocate under ASan.
execute_process(COMMAND ${CMAKE_COMMAND} -E env GANNS_TRACING=1
                        ${GANNS_ASAN_BUILD}/tests/cluster_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cluster_test failed under ASan")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E env GANNS_TRACING=1
                        ${GANNS_ASAN_BUILD}/tests/federation_test
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "federation_test failed under ASan")
endif()

# Build file of the benchmark harness, hooked into the repository's own
# build so the harness links the library targets mecoff_cli links and
# is compiled with the same flags.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_mecoff_INCLUDE=<this file>
# so CMake includes this file at the end of `project(mecoff)`. The
# libraries are defined later in the root CMakeLists.txt, so the target
# is added by a call deferred to the end of the root directory.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_harness)
  add_executable(perfbench_harness
    ${PERFBENCH_DIR}/src/main.cpp
    ${PERFBENCH_DIR}/src/http.cpp
    ${PERFBENCH_DIR}/src/inputs.cpp
    ${PERFBENCH_DIR}/src/replay.cpp
    ${PERFBENCH_DIR}/src/serving.cpp
    ${PERFBENCH_DIR}/src/batch.cpp
    ${PERFBENCH_DIR}/src/trace.cpp)
  target_include_directories(perfbench_harness PRIVATE ${PERFBENCH_DIR}/src)
  target_link_libraries(perfbench_harness
    PRIVATE mecoff_benchsupport mecoff_serve mecoff_warnings)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL perfbench_add_harness)

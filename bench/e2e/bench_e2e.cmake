# bench_e2e: the end-to-end benchmark, added to the repository's own build.
#
# This file is injected into the top-level project instead of defining a
# library of its own, so the benchmark links the very targets, flags and
# language level the root CMakeLists.txt defines (CMake 3.19 or later):
#
#   cmake -S . -B .bench_build/e2e -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/bench_e2e.cmake
#   cmake --build .bench_build/e2e --target bench_e2e -j
#   ctest --test-dir .bench_build/e2e -R bench_e2e_smoke
#
# Passing the same -DCMAKE_PROJECT_INCLUDE to an ordinary build directory
# adds bench_e2e_smoke to its full ctest run.

# CMAKE_PROJECT_INCLUDE runs right after project(); the target waits for the
# end of the top-level CMakeLists.txt, when its compile options are set,
# testing is enabled and the library targets exist.
function(ibvs_add_bench_e2e)
  add_executable(bench_e2e ${CMAKE_CURRENT_FUNCTION_LIST_DIR}/bench_e2e.cpp)
  target_link_libraries(bench_e2e PRIVATE ibvs_inject)
  add_test(NAME bench_e2e_smoke COMMAND bench_e2e --smoke)
endfunction()

cmake_language(DEFER CALL ibvs_add_bench_e2e)

# Build file of the benchmark harness. It is not part of the root build:
# run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=perfbench/build.cmake
# so the harness links the library targets exactly as the root project
# compiles them. The root CMakeLists.txt creates those targets after its
# project() call, hence the deferred definition.
set(HSVD_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(hsvd_perfbench_add_target)
  add_executable(hsvd_perfbench "${HSVD_PERFBENCH_DIR}/harness.cpp")
  target_link_libraries(hsvd_perfbench hsvd_serve heterosvd)
  target_compile_definitions(hsvd_perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()

cmake_language(DEFER CALL hsvd_perfbench_add_target)

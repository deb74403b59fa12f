# Build file of the federated-training benchmark.  run.py configures the
# repository with -DCMAKE_PROJECT_INCLUDE=<this file>, so it is read right
# after the top-level project() call.  The target is defined in a deferred
# call, once the top-level CMakeLists.txt has defined every photon library:
# the benchmark then links the libraries exactly as the repository builds
# them (same flags, same per-file SIMD options, same PHOTON_TRACE setting)
# without any change to the repository's own build files.
set(FEDBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(fedbench_add_target)
  add_executable(fedbench "${FEDBENCH_DIR}/fedbench.cpp")
  target_link_libraries(fedbench PRIVATE photon_core photon_sim)
  target_compile_definitions(fedbench PRIVATE
    FEDBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL fedbench_add_target)

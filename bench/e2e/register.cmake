# Passed to CMake as -DCMAKE_PROJECT_INCLUDE=<this file> by run.py, which
# is CMake's hook for adding a target to a project without editing it.
# The hook runs inside the top-level project() call, before the
# top-level CMakeLists.txt sets C++20 and strips -DNDEBUG, so
# CMakeLists.txt beside this file restores both on its own target.
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/bench-e2e)

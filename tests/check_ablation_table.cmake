# Keeps EXPERIMENTS.md's claim -> test table in step with the ablation tests:
# every TEST(Ablations, <name>) in tests/workload/ablations_test.cpp must be
# named by a row of the table (a line starting with "|" that contains
# Ablations.<name>), and every Ablations.<name> a row names must be a test.
# Fails naming each test without a row and each row naming no test.
#
#   cmake -DTESTS=tests/workload/ablations_test.cpp -DDOC=EXPERIMENTS.md -P tests/check_ablation_table.cmake
cmake_minimum_required(VERSION 3.20)  # IN_LIST
if(NOT TESTS OR NOT DOC)
  message(FATAL_ERROR "usage: cmake -DTESTS=<ablations_test.cpp> -DDOC=<EXPERIMENTS.md> -P check_ablation_table.cmake")
endif()

file(READ "${TESTS}" source)
string(REGEX MATCHALL "TEST\\(Ablations, [A-Za-z0-9_]+\\)" declarations "${source}")
set(tests "")
foreach(declaration IN LISTS declarations)
  string(REGEX REPLACE "TEST\\(Ablations, ([A-Za-z0-9_]+)\\)" "\\1" name "${declaration}")
  list(APPEND tests "${name}")
endforeach()
if(NOT tests)
  message(FATAL_ERROR "no TEST(Ablations, ...) found in ${TESTS}")
endif()

file(STRINGS "${DOC}" rows ENCODING UTF-8 REGEX "^\\|.*Ablations\\.")
set(named "")
foreach(row IN LISTS rows)
  string(REGEX MATCHALL "Ablations\\.[A-Za-z0-9_]+" mentions "${row}")
  foreach(mention IN LISTS mentions)
    string(REPLACE "Ablations." "" name "${mention}")
    list(APPEND named "${name}")
  endforeach()
endforeach()

set(problems "")
foreach(name IN LISTS tests)
  if(NOT name IN_LIST named)
    list(APPEND problems "Ablations.${name} has no row")
  endif()
endforeach()
list(REMOVE_DUPLICATES named)
foreach(name IN LISTS named)
  if(NOT name IN_LIST tests)
    list(APPEND problems "a row names Ablations.${name}, which is no test")
  endif()
endforeach()

if(problems)
  list(JOIN problems "; " text)
  message(FATAL_ERROR "EXPERIMENTS.md ablation table: ${text}")
endif()
list(LENGTH tests count)
message(STATUS "${count} ablation tests, each with a row")

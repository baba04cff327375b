# Keeps the knob table complete: every field declared in FabricTimings,
# HaConfig and FabricConfig (src/fabric/config.hpp), MapServerNodeConfig
# (src/lisp/map_server_node.hpp) and UnderlayConfig (src/underlay/network.hpp)
# must open a row of tests/fabric/knob_test.cpp: {"<prefix><field>", ...
# The prefix is "timings." for FabricTimings, "ha." for HaConfig,
# "map_server." for MapServerNodeConfig, "underlay." for UnderlayConfig and
# empty for FabricConfig, whose four nested structs are checked field by
# field instead of by their own names. Fails naming each field without a row.
#
#   cmake -DSRC=src -DTABLE=tests/fabric/knob_test.cpp -P tests/check_knob_table.cmake
if(NOT SRC OR NOT TABLE)
  message(FATAL_ERROR "usage: cmake -DSRC=<src dir> -DTABLE=<knob_test.cpp> -P check_knob_table.cmake")
endif()

file(READ "${TABLE}" table)

set(nested_types "FabricTimings|HaConfig|MapServerNodeConfig|UnderlayConfig")
set(fields 0)
set(missing "")

# Checks every field of struct `name` in `file`, whose rows begin with
# `prefix`, skipping fields whose type is one of the nested structs.
function(check_struct file name prefix)
  file(STRINGS "${SRC}/${file}" lines)
  set(inside FALSE)
  set(found 0)
  set(leaves ${fields})
  foreach(line IN LISTS lines)
    if(line MATCHES "^struct ${name} {")
      set(inside TRUE)
    elseif(inside AND line MATCHES "^};")
      set(inside FALSE)
    elseif(inside AND line MATCHES "^  ([A-Za-z_][A-Za-z0-9_:<>]*) ([a-z_][a-z0-9_]*)( = [^;]*|{[^;]*})?;")
      set(type "${CMAKE_MATCH_1}")
      set(field "${prefix}${CMAKE_MATCH_2}")
      math(EXPR found "${found} + 1")
      if(NOT type MATCHES "(^|:)(${nested_types})$")
        math(EXPR leaves "${leaves} + 1")
        string(FIND "${table}" "{\"${field}\"," row)
        if(row EQUAL -1)
          list(APPEND missing "${field}")
        endif()
      endif()
    endif()
  endforeach()
  if(found EQUAL 0)
    message(FATAL_ERROR "no fields of ${name} found in ${SRC}/${file}")
  endif()
  set(fields "${leaves}" PARENT_SCOPE)
  set(missing "${missing}" PARENT_SCOPE)
endfunction()

check_struct(fabric/config.hpp FabricTimings "timings.")
check_struct(fabric/config.hpp HaConfig "ha.")
check_struct(fabric/config.hpp FabricConfig "")
check_struct(lisp/map_server_node.hpp MapServerNodeConfig "map_server.")
check_struct(underlay/network.hpp UnderlayConfig "underlay.")

if(missing)
  list(JOIN missing ", " names)
  message(FATAL_ERROR "knob_test.cpp has no row for: ${names}")
endif()
message(STATUS "${fields} config fields, each with a row")

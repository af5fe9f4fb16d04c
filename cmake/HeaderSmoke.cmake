# Self-contained public headers: every header under src/*/include must
# compile as its own translation unit, included first, with nothing but
# the module include paths on the command line. A header relying on a
# transitive include that goes away fails here, not in whichever user TU
# happened to expose it. This is also the gate for harmful include
# cycles: when one header of a cycle needs the other's definitions,
# compiling the other on its own fails. ff-lint's header-hygiene rule
# checks what no compile does (#pragma once, canonical "ff/..." include
# spelling); its layering rule catches header-only back-edges, which
# compile here because this target links every module.

file(GLOB_RECURSE ff_public_headers CONFIGURE_DEPENDS
  "${PROJECT_SOURCE_DIR}/src/*/include/ff/*.h")

set(ff_header_smoke_dir "${CMAKE_BINARY_DIR}/header_smoke")
set(ff_header_smoke_sources "")
foreach(header IN LISTS ff_public_headers)
  # src/<mod>/include/ff/<mod>/<name>.h -> the "ff/<mod>/<name>.h" form
  # user code includes it by.
  string(REGEX REPLACE ".*/include/(ff/.*)$" "\\1" header_key "${header}")
  string(REGEX REPLACE "[/.]" "_" tu_name "${header_key}")
  set(tu "${ff_header_smoke_dir}/${tu_name}.cpp")
  file(CONFIGURE OUTPUT "${tu}" CONTENT "#include \"${header_key}\"\n")
  list(APPEND ff_header_smoke_sources "${tu}")
endforeach()

add_library(ff_header_smoke OBJECT ${ff_header_smoke_sources})
# Linked only for the include paths; generated TUs define no symbols.
target_link_libraries(ff_header_smoke PRIVATE
  ff::util ff::obs ff::sim ff::models ff::net ff::server ff::device
  ff::control ff::rt ff::core ff::fleet ff::sweep ff::invariants
  ff_warnings)

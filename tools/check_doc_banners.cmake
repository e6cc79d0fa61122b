# tools/check_doc_banners.cmake — docs lint for the tier-1 flow.
#
# Two checks:
#
#  1. Every header under src/ must carry a Doxygen `\file` doc banner, so
#     every module keeps the LLVM-style file documentation that
#     docs/ARCHITECTURE.md links into.
#  2. Every page under docs/ must be registered in REGISTERED_DOCS below
#     and present on disk. The list is the docs' table of contents: a new
#     page that isn't registered fails the lint (it would otherwise be
#     invisible to the cross-reference sweep), as does a registered page
#     that was deleted without updating the list.
#
# Run standalone:
#
#   cmake -DDMLL_SOURCE_DIR=$PWD -P tools/check_doc_banners.cmake
#
# or via ctest (registered as the `docs_lint` test by the top-level
# CMakeLists.txt).

if(NOT DEFINED DMLL_SOURCE_DIR)
  get_filename_component(DMLL_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

# The registered documentation pages (docs/ table of contents).
set(REGISTERED_DOCS
  ARCHITECTURE.md
  CODEGEN.md
  EXECUTION.md
  FUZZING.md
  ROBUSTNESS.md
  SERVICE.md
  TELEMETRY.md
  TUNING.md
)

file(GLOB_RECURSE HEADERS "${DMLL_SOURCE_DIR}/src/*.h")
if(NOT HEADERS)
  message(FATAL_ERROR "docs lint: no headers found under ${DMLL_SOURCE_DIR}/src")
endif()

set(MISSING "")
foreach(HDR ${HEADERS})
  file(READ "${HDR}" CONTENT)
  # Every header must carry a `\file` Doxygen banner...
  string(FIND "${CONTENT}" "\\file" POS)
  if(POS EQUAL -1)
    list(APPEND MISSING "${HDR}")
    continue()
  endif()
  # ...with at least a line of prose after it (an empty banner is as bad as
  # a missing one): require a non-empty `/// ...` line following `\file`.
  string(SUBSTRING "${CONTENT}" ${POS} -1 TAIL)
  if(NOT TAIL MATCHES "///[ \t]*[A-Za-z0-9]")
    list(APPEND MISSING "${HDR}")
  endif()
endforeach()

list(LENGTH HEADERS TOTAL)
if(MISSING)
  list(LENGTH MISSING NMISSING)
  string(REPLACE ";" "\n  " PRETTY "${MISSING}")
  message(FATAL_ERROR "docs lint: ${NMISSING}/${TOTAL} header(s) lack a "
          "non-empty \\file doc banner:\n  ${PRETTY}\n"
          "Add an LLVM-style banner (see src/observe/Trace.h for the shape).")
endif()
message(STATUS "docs lint: all ${TOTAL} headers under src/ carry \\file banners")

# Check 2: the docs/ directory and REGISTERED_DOCS must agree exactly.
set(DOC_PROBLEMS "")
foreach(DOC ${REGISTERED_DOCS})
  if(NOT EXISTS "${DMLL_SOURCE_DIR}/docs/${DOC}")
    list(APPEND DOC_PROBLEMS
         "docs/${DOC} is registered but missing from disk")
  endif()
endforeach()
file(GLOB ON_DISK RELATIVE "${DMLL_SOURCE_DIR}/docs" "${DMLL_SOURCE_DIR}/docs/*.md")
foreach(DOC ${ON_DISK})
  list(FIND REGISTERED_DOCS "${DOC}" FOUND)
  if(FOUND EQUAL -1)
    list(APPEND DOC_PROBLEMS
         "docs/${DOC} exists on disk but is not registered — add it to REGISTERED_DOCS in tools/check_doc_banners.cmake")
  endif()
endforeach()
if(DOC_PROBLEMS)
  string(REPLACE ";" "\n  " PRETTY "${DOC_PROBLEMS}")
  message(FATAL_ERROR "docs lint:\n  ${PRETTY}")
endif()
list(LENGTH REGISTERED_DOCS NDOCS)
message(STATUS "docs lint: all ${NDOCS} registered docs/ pages present and accounted for")

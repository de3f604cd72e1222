# Byte-identity check for one figure/ablation/app/example binary.
#
#   cmake -DBIN=<executable> -DDIGEST=<file.sha256> -P stdout_digest.cmake
#
# Runs BIN with no arguments, requires exit status 0, and compares the
# SHA-256 of its stdout with the first field of DIGEST (sha256sum format).
# A mismatch prints the actual digest; the committed file is the contract,
# so a changed output is a reviewed edit of that file, never a re-record.
if(NOT BIN OR NOT DIGEST)
  message(FATAL_ERROR "usage: cmake -DBIN=<exe> -DDIGEST=<file> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

execute_process(COMMAND "${BIN}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

file(READ "${DIGEST}" digest_line)
string(REGEX MATCH "^[0-9a-f]+" expected "${digest_line}")
string(SHA256 actual "${out}")
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout digest mismatch for ${BIN}\n"
                      "  expected ${expected} (${DIGEST})\n"
                      "  actual   ${actual}")
endif()

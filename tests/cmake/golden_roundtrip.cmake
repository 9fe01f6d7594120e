# Regenerates the golden pipeline outputs with `golden_gen` into a scratch
# directory and requires them to be byte-identical to the committed files
# under tests/golden/ — the generator must keep writing exactly what the
# golden tests check against.
#
# Usage: cmake -DGOLDEN_GEN=<path to golden_gen> -DGOLDEN_DIR=<tests/golden>
#              -DWORK_DIR=<scratch dir> -P golden_roundtrip.cmake

if(NOT GOLDEN_GEN OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
          "pass -DGOLDEN_GEN=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${GOLDEN_GEN}" "${WORK_DIR}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden_gen exited ${rc}")
endif()
foreach(name hurricane_default.golden deer_default.golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/${name}" "${GOLDEN_DIR}/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: golden_gen output differs from the "
                        "committed file")
  endif()
endforeach()

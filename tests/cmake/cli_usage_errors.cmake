# Strict argv parsing of the `traclus` CLI: every malformed command line below
# must exit 1 (a usage error) and name the offending flag or argument on
# stderr, while the
# same command without the mistake exits 0 — so a lenient parser that ran the
# mistyped command anyway fails this check.
#
# Usage: cmake -DTRACLUS=<path to traclus> -DWORK_DIR=<scratch dir>
#              -P cli_usage_errors.cmake

if(NOT TRACLUS OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DTRACLUS=<binary> -DWORK_DIR=<dir>")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(csv "${WORK_DIR}/fig1.csv")

function(expect_exit code needle)
  execute_process(COMMAND "${TRACLUS}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "traclus ${ARGN}: exit ${rc}, want ${code}\n${err}")
  endif()
  if(needle AND NOT err MATCHES "${needle}")
    message(FATAL_ERROR "traclus ${ARGN}: stderr does not name '${needle}':\n"
                        "${err}")
  endif()
endfunction()

expect_exit(0 "" generate fig1 "${csv}")
set(cluster cluster "${csv}" --eps 10 --min-lns 3)

# Controls: well-formed spellings of the flags the cases below break.
expect_exit(0 "" ${cluster})
expect_exit(0 "" ${cluster} --threads -1 --sieve 2 --sieve-offset 1
            --shards 2 --chunk-size 64)

# An unknown flag (typo of --shards), and a flag another command takes.
expect_exit(1 "--shard'" ${cluster} --shard 4)
expect_exit(1 "--eps" partition "${csv}" --eps 10)
# Partial numbers.
expect_exit(1 "--eps" cluster "${csv}" --eps 10x --min-lns 3)
expect_exit(1 "--threads" ${cluster} --threads 2x)
expect_exit(1 "--chunk-size" ${cluster} --chunk-size 64k)
# Negative and fractional counts.
expect_exit(1 "--sieve" ${cluster} --sieve -1)
expect_exit(1 "--shards" ${cluster} --shards 2.5)
expect_exit(1 "--grid" estimate "${csv}" --grid -8)
# A grid the heuristic cannot run on (it needs two points).
expect_exit(1 "--grid" estimate "${csv}" --grid 1)
# A residue without a sieve to select it from.
expect_exit(1 "--sieve-offset" ${cluster} --sieve-offset 3)
expect_exit(1 "--sieve-offset" ${cluster} --sieve 1 --sieve-offset 3)
# A value flag at the end of the line, missing its value.
expect_exit(1 "--min-lns" cluster "${csv}" --eps 10 --min-lns)
# Surplus positional arguments: each command takes an exact count.
expect_exit(0 "" stats "${csv}")
expect_exit(1 "extra.csv" stats "${csv}" extra.csv)
set(snapshot "${WORK_DIR}/fig1.snapshot")
expect_exit(0 "" ${cluster} --save-snapshot "${snapshot}")
expect_exit(0 "" assign "${snapshot}" "${csv}")
expect_exit(1 "extra.csv" assign "${snapshot}" "${csv}" extra.csv)

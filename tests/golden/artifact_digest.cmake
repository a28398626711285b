# Golden-artifact gate: regenerates every checked-in figure and ablation
# artifact and compares its SHA-256 with tests/golden/artifacts.sha256.
#
#   cmake -DBIN_DIR=<dir with the bench binaries> -DWORK_DIR=<scratch dir>
#         -DSOURCE_DIR=<repo root> -P artifact_digest.cmake
#
# Each binary runs in its own directory under WORK_DIR, so the repo's copies
# are never overwritten. The manifest is in `sha256sum -c` format with paths
# relative to the repo root, so `sha256sum -c tests/golden/artifacts.sha256`
# run there checks the checked-in copies too; this script checks both the
# regenerated and the checked-in files. On success or failure it writes the
# regenerated digests to WORK_DIR/artifacts.sha256 (in manifest order): after
# a deliberate behaviour change, that file is the new manifest.
cmake_minimum_required(VERSION 3.16)

foreach(var BIN_DIR WORK_DIR SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "artifact_digest: -D${var}=... is required")
  endif()
endforeach()

set(manifest "${SOURCE_DIR}/tests/golden/artifacts.sha256")
set(binaries
    fig4a_all_publishers fig4b_all_subscribers fig5_scalability fig6_load_ratio
    fig7_elasticity ablation_cpu_aware ablation_propagation ablation_replication
    ablation_thresholds)

file(REMOVE_RECURSE "${WORK_DIR}")
set(errors "")
foreach(bin IN LISTS binaries)
  set(dir "${WORK_DIR}/${bin}")
  file(MAKE_DIRECTORY "${dir}")
  string(TIMESTAMP t0 "%s")
  execute_process(COMMAND "${BIN_DIR}/${bin}" WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE rc OUTPUT_FILE "${dir}/stdout.txt"
                  ERROR_FILE "${dir}/stderr.txt")
  string(TIMESTAMP t1 "%s")
  math(EXPR secs "${t1} - ${t0}")
  message(STATUS "${bin}: exit ${rc}, ${secs} s")
  if(NOT rc EQUAL 0)
    string(APPEND errors "  ${bin} exited with ${rc} (see ${dir}/stderr.txt)\n")
  endif()
endforeach()

file(STRINGS "${manifest}" lines)
set(regenerated "")
set(checked 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    string(APPEND errors "  malformed manifest line: ${line}\n")
    continue()
  endif()
  set(want "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  math(EXPR checked "${checked} + 1")

  file(GLOB found "${WORK_DIR}/*/${name}")
  list(LENGTH found count)
  if(NOT count EQUAL 1)
    string(APPEND errors "  ${name}: produced by ${count} binaries, expected 1\n")
  else()
    file(SHA256 "${found}" got)
    string(APPEND regenerated "${got}  ${name}\n")
    if(NOT got STREQUAL want)
      string(APPEND errors "  ${name}: regenerated ${got}, manifest ${want}\n")
    endif()
  endif()

  if(NOT EXISTS "${SOURCE_DIR}/${name}")
    string(APPEND errors "  ${name}: no checked-in copy\n")
  else()
    file(SHA256 "${SOURCE_DIR}/${name}" repo_copy)
    if(NOT repo_copy STREQUAL want)
      string(APPEND errors "  ${name}: checked-in copy ${repo_copy}, manifest ${want}\n")
    endif()
  endif()
endforeach()
file(WRITE "${WORK_DIR}/artifacts.sha256" "${regenerated}")

if(checked EQUAL 0)
  string(APPEND errors "  ${manifest} lists no artifacts\n")
endif()
if(errors)
  message(FATAL_ERROR "golden artifacts differ:\n${errors}"
                      "Regenerated digests: ${WORK_DIR}/artifacts.sha256")
endif()
message(STATUS "${checked} artifacts match ${manifest}")

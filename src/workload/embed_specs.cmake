# Writes OUT, a C++ source that holds the committed workload specs as
# string literals: SPECS/*.json in the order SPECS/suite.txt lists them,
# then SPECS/oracle/*.json in filename order. Usage:
#
#   cmake -DSPECS=<specs dir> -DOUT=<generated .cc> -P embed_specs.cmake
#
# Fails, naming the file, when the manifest and SPECS/*.json disagree.
cmake_minimum_required(VERSION 3.16)

set(manifest "${SPECS}/suite.txt")
file(STRINGS "${manifest}" names)
list(REMOVE_ITEM names "")
if(NOT names)
    message(FATAL_ERROR "${manifest} names no workloads")
endif()

set(listed "")
foreach(name IN LISTS names)
    if(NOT name MATCHES "^[A-Za-z0-9_.-]+$")
        message(FATAL_ERROR "${manifest}: '${name}' is not a workload name")
    endif()
    if(name IN_LIST listed)
        message(FATAL_ERROR "${manifest} lists '${name}' twice")
    endif()
    if(NOT EXISTS "${SPECS}/${name}.json")
        message(FATAL_ERROR
            "${manifest} lists '${name}' but ${SPECS}/${name}.json "
            "does not exist")
    endif()
    list(APPEND listed "${name}")
endforeach()

file(GLOB spec_files RELATIVE "${SPECS}" "${SPECS}/*.json")
foreach(file IN LISTS spec_files)
    string(REGEX REPLACE "\\.json$" "" name "${file}")
    if(NOT name IN_LIST listed)
        message(FATAL_ERROR "${SPECS}/${file} is not listed in ${manifest}")
    endif()
endforeach()

file(GLOB oracle_files RELATIVE "${SPECS}/oracle" "${SPECS}/oracle/*.json")
list(SORT oracle_files)
if(NOT oracle_files)
    message(FATAL_ERROR "${SPECS}/oracle holds no *.json oracle specs")
endif()

# One "{name, text}" initializer per file, the bytes in a raw string.
set(delimiter "mtperf_spec")
function(append_entry out name path)
    file(READ "${path}" text)
    string(FIND "${text}" ")${delimiter}\"" clash)
    if(NOT clash EQUAL -1)
        message(FATAL_ERROR "${path} contains the raw-string delimiter "
            "')${delimiter}\"'")
    endif()
    set(${out} "${${out}}        {\"${name}\", R\"${delimiter}(${text})${delimiter}\"},\n"
        PARENT_SCOPE)
endfunction()

set(suite_entries "")
foreach(name IN LISTS names)
    append_entry(suite_entries "${name}" "${SPECS}/${name}.json")
endforeach()
set(oracle_entries "")
foreach(file IN LISTS oracle_files)
    string(REGEX REPLACE "\\.json$" "" name "${file}")
    append_entry(oracle_entries "${name}" "${SPECS}/oracle/${file}")
endforeach()

file(WRITE "${OUT}" "// Generated from specs/ by src/workload/embed_specs.cmake. Do not edit.
#include \"workload/spec_io.h\"

namespace mtperf::workload {

std::span<const EmbeddedSpec>
embeddedSuiteSpecs()
{
    static constexpr EmbeddedSpec kSpecs[] = {
${suite_entries}    };
    return kSpecs;
}

std::span<const EmbeddedSpec>
embeddedOracleSpecs()
{
    static constexpr EmbeddedSpec kSpecs[] = {
${oracle_entries}    };
    return kSpecs;
}

} // namespace mtperf::workload
")

/**
 * @file
 * CRC-sealed JSON: the one format of the drift report, the telemetry
 * time series and the benchdiff verdict.
 *
 * A sealed document is a single-line JSON object whose last member is
 * "crc32", the CRC32 of every byte before that member's comma:
 *
 *     {"mtperf_validate_report":1,...,"failed":0,"crc32":1533394565}
 *
 * There is no trailing newline, so no truncation of a sealed file can
 * pass for a complete document. Readers check the seal on the raw
 * bytes before parsing, so a flipped byte reads as damage, not as a
 * schema error.
 */

#ifndef MTPERF_COMMON_SEALED_JSON_H_
#define MTPERF_COMMON_SEALED_JSON_H_

#include <string>
#include <string_view>

#include "common/json.h"

namespace mtperf {

/**
 * Seal @p body, a JSON object missing its closing brace: append
 * ,"crc32":N} where N is the CRC32 of @p body.
 */
std::string sealJson(std::string body);

/**
 * Check the seal on the raw bytes of @p text, then parse it.
 * @p source names the input in JSON syntax errors.
 * @return the document, which is a JSON object.
 * @throw FatalError saying what is wrong, without a prefix naming the
 * document kind: callers add their own.
 */
json::JsonValue parseSealedJson(std::string_view text,
                                const std::string &source);

} // namespace mtperf

#endif // MTPERF_COMMON_SEALED_JSON_H_

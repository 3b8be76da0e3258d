#include "common/sealed_json.h"

#include <charconv>

#include "common/checksum.h"
#include "common/logging.h"

namespace mtperf {

namespace {

/** The seal's byte prefix; the CRC covers every byte before it. */
constexpr std::string_view kSealPrefix = ",\"crc32\":";

} // namespace

std::string
sealJson(std::string body)
{
    const std::uint32_t crc = crc32(body);
    body += kSealPrefix;
    body += std::to_string(crc);
    body += '}';
    return body;
}

json::JsonValue
parseSealedJson(std::string_view text, const std::string &source)
{
    const std::size_t seal = text.rfind(kSealPrefix);
    if (seal == std::string_view::npos)
        throw FatalError("missing crc32 seal");
    const std::string_view digits = text.substr(seal + kSealPrefix.size());
    std::uint32_t stored = 0;
    const auto [end, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), stored);
    if (ec != std::errc() || digits.substr(end - digits.data()) != "}")
        throw FatalError("malformed crc32 seal");
    const std::uint32_t computed = crc32(text.substr(0, seal));
    if (stored != computed) {
        throw FatalError("crc32 mismatch (stored " +
                         std::to_string(stored) + ", computed " +
                         std::to_string(computed) + "): file is damaged");
    }

    json::JsonValue root = json::parseJson(text, source);
    if (!root.isObject())
        throw FatalError("document must be an object");
    return root;
}

} // namespace mtperf

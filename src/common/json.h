/**
 * @file
 * A small strict JSON reader.
 *
 * The repository has long *emitted* JSON (metrics dumps, traces,
 * bench reports) but could not read any back; the
 * declarative workload language made a parser unavoidable. This one
 * is deliberately strict — it exists to validate documents a later
 * pipeline stage will trust:
 *
 *  - standard JSON only: no comments, no trailing commas, no NaN/Inf
 *    literals, exactly one document per input (trailing whitespace is
 *    permitted, trailing content is not);
 *  - duplicate object keys are an error, not a silent last-one-wins;
 *  - numbers remember whether their literal was integral, so schema
 *    code can demand an exact byte count and reject "1024.5" instead
 *    of silently flooring it;
 *  - every error is thrown as FatalError with the source name, line,
 *    column and the JSON path of the enclosing container, e.g.
 *    "specs/mcf.json:7:13: duplicate key 'name' (at phases[0])".
 *
 * Doubles round-trip exactly: jsonNumberText() emits the shortest
 * representation that parses back to the same bits (std::to_chars),
 * and parsing converts with std::from_chars, which is correctly
 * rounded. That is what makes spec serialization bit-identical.
 */

#ifndef MTPERF_COMMON_JSON_H_
#define MTPERF_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mtperf::json {

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    /** Object member, in document order. */
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    static JsonValue makeNull();
    static JsonValue makeBool(bool value);
    static JsonValue makeNumber(double value);
    static JsonValue makeInteger(std::uint64_t value);
    static JsonValue makeString(std::string value);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::vector<Member> members);

    Type type() const { return type_; }

    /** Human name of @p type ("number", "object", ...). */
    static const char *typeName(Type type);
    const char *typeName() const { return typeName(type_); }

    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** @pre isBool(). */
    bool boolean() const;

    /** Numeric value as a double. @pre isNumber(). */
    double number() const;

    /**
     * True when the literal was a sign-free integer that fits an
     * unsigned 64-bit value ("12", not "12.0", "1.2e1" or "-12").
     * Schema code uses this to demand exact counts and byte sizes.
     */
    bool isUnsignedIntegral() const { return integral_; }

    /** Exact integer value. @pre isUnsignedIntegral(). */
    std::uint64_t unsignedIntegral() const;

    /** @pre isString(). */
    const std::string &string() const;

    /** @pre isArray(). */
    const std::vector<JsonValue> &array() const;

    /** Members in document order. @pre isObject(). */
    const std::vector<Member> &members() const;

    /** Member named @p key, or nullptr. @pre isObject(). */
    const JsonValue *find(const std::string &key) const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    bool integral_ = false;
    std::uint64_t integer_ = 0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<Member> members_;
};

/**
 * Parse exactly one JSON document from @p text.
 *
 * @p source names the input in error messages (a file path, "<stdin>",
 * "<json>", ...). @throw FatalError on any syntax violation, with
 * "source:line:col:" and the JSON path of the enclosing container.
 */
JsonValue parseJson(std::string_view text,
                    const std::string &source = "<json>");

/**
 * Read @p path (or standard input when @p path is "-") and parse it.
 * @throw FatalError when the file cannot be read or does not parse.
 */
JsonValue parseJsonFile(const std::string &path);

/**
 * The canonical text of a JSON number: the shortest decimal string
 * that converts back to exactly @p value. @throw FatalError for
 * non-finite values (JSON cannot represent them).
 */
std::string jsonNumberText(double value);

} // namespace mtperf::json

#endif // MTPERF_COMMON_JSON_H_

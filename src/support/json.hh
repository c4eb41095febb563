/**
 * @file
 * Minimal JSON value type with serialization and parsing.
 *
 * Used by the selection store for its on-disk format and by the
 * metrics registry for its JSON export.  Deliberately tiny: objects,
 * arrays, strings, numbers (doubles), booleans, and null; no
 * streaming, no comments, UTF-8 passed through untouched.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dysel {
namespace support {

/**
 * One JSON value.  A small tagged union; objects keep their keys
 * sorted (std::map), which makes serialization deterministic -- the
 * store round-trip tests rely on that.
 */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), boolV(b) {}
    Json(double d) : kind_(Kind::Number), numV(d) {}
    Json(std::int64_t i)
        : kind_(Kind::Number), numV(static_cast<double>(i))
    {}
    Json(std::uint64_t u)
        : kind_(Kind::Number), numV(static_cast<double>(u))
    {}
    Json(int i) : kind_(Kind::Number), numV(i) {}
    Json(unsigned u) : kind_(Kind::Number), numV(u) {}
    Json(const char *s) : kind_(Kind::String), strV(s) {}
    Json(std::string s) : kind_(Kind::String), strV(std::move(s)) {}

    /** An empty array / object (Json() alone is null). */
    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    /** Typed accessors; throw std::runtime_error on a kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<Json> &items() const;
    const std::map<std::string, Json> &fields() const;

    /** Append to an array (converts a null value to an array). */
    Json &push(Json v);

    /** Object field access; set() converts a null value to an object. */
    Json &set(const std::string &key, Json v);
    bool has(const std::string &key) const;

    /** Field lookup; throws std::runtime_error when absent. */
    const Json &at(const std::string &key) const;

    /** Field lookup with a fallback for absent keys. */
    double numberOr(const std::string &key, double fallback) const;
    std::int64_t intOr(const std::string &key,
                       std::int64_t fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Serialize; @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Deepest array/object nesting parse() accepts. */
    static constexpr unsigned maxParseDepth = 256;

    /**
     * Parse JSON text.  Throws std::runtime_error with a character
     * offset on malformed input, including nesting deeper than
     * maxParseDepth (so hostile input cannot overflow the stack).
     */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool boolV = false;
    double numV = 0.0;
    std::string strV;
    std::vector<Json> arrV;
    std::map<std::string, Json> objV;
};

/** JSON-escape a string (without the surrounding quotes). */
std::string jsonEscape(const std::string &s);

} // namespace support
} // namespace dysel

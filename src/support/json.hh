/**
 * @file
 * A minimal JSON writer and reader.
 *
 * HILP's results (schedules, DSE sweeps, traces) feed external
 * plotting and analysis pipelines; this writer produces
 * standards-compliant JSON without pulling in a dependency. The
 * reader (Json::parse) exists so tests and tooling can round-trip
 * HILP's own output - e.g. validating an exported Chrome trace -
 * not as a general configuration format; HILP's input formats remain
 * CSV (workload/io.hh) and code-level builders.
 *
 * A double is written as printf's "%.17g" text, produced by
 * std::to_chars (general format, precision 17), and the reader takes
 * it back with std::from_chars: every finite double, subnormals
 * included, reads back equal to what was written ("-0" reads as the
 * integer 0). NaN and infinities are written as null.
 */

#ifndef HILP_SUPPORT_JSON_HH
#define HILP_SUPPORT_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hilp {

/**
 * A JSON value under construction. Build with the static factories
 * and the object()/array() helpers, then render with dump().
 */
class Json
{
  public:
    /** Construct null. */
    Json();

    static Json null();
    static Json boolean(bool value);
    static Json number(double value);
    static Json number(int64_t value);
    static Json string(std::string value);
    static Json object();
    static Json array();

    /**
     * Parse JSON text into *out. Returns false (and sets *error to a
     * position-carrying message, when given) on malformed input, in
     * which case *out is left null. Accepts exactly what dump()
     * produces plus standard JSON written by other tools; trailing
     * non-whitespace after the top-level value is an error.
     */
    static bool parse(const std::string &text, Json *out,
                      std::string *error = nullptr);

    /**
     * Kind predicates. isNumber covers doubles and integers;
     * isInteger only int64-range numbers with no fraction or exponent.
     */
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const
    {
        return kind_ == Kind::Number || kind_ == Kind::Integer;
    }
    bool isInteger() const { return kind_ == Kind::Integer; }
    bool isString() const { return kind_ == Kind::String; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    /** Scalar accessors; panic when the kind does not match. */
    bool boolValue() const;
    double numberValue() const;  //!< Doubles and integers.
    /** Integers; doubles truncate, saturating outside int64. */
    int64_t intValue() const;
    const std::string &stringValue() const;

    /**
     * Object member lookup: the value for key, or nullptr when the
     * key is absent. Panics on non-objects.
     */
    const Json *find(const std::string &key) const;

    /** Array element access; panics on non-arrays or out of range. */
    const Json &at(size_t index) const;

    /** Object members in insertion order. Panics on non-objects. */
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Set a key on an object (panics on non-objects). Returns *this
     * for chaining.
     */
    Json &set(const std::string &key, Json value);

    /** Append to an array (panics on non-arrays). */
    Json &append(Json value);

    /** Number of members/elements (0 for scalars). */
    size_t size() const;

    /**
     * Render as JSON text. indent < 0 renders compactly; indent >= 0
     * pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

  private:
    enum class Kind { Null, Bool, Number, Integer, String, Object,
                      Array };

    void write(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    int64_t integer_ = 0;
    std::string string_;
    std::vector<std::pair<std::string, Json>> members_;
    std::vector<Json> elements_;
};

/** Escape a string for inclusion in JSON text (without quotes). */
std::string jsonEscape(const std::string &text);

// Lenient member reads for probing reply lines: the value of `key`
// when `object` is an object holding it with the right kind, else
// the fallback (also for a non-object, so a line of any shape can be
// probed). Requests and point records use readField below.

int64_t intOr(const Json &object, const char *key, int64_t fallback);
bool boolOr(const Json &object, const char *key, bool fallback);
std::string stringOr(const Json &object, const char *key,
                     const std::string &fallback = "");

/**
 * Read an optional member into *out, for decoding wire requests and
 * point records. An absent member leaves *out as it is; a present one
 * must have the JSON kind of *out (an integer for int64_t) or the
 * read fails, so a value of the wrong kind is never replaced by a
 * default or truncated. `object` must be a JSON object.
 */
template <typename T>
bool
readField(const Json &object, const char *key, T *out)
{
    const Json *value = object.find(key);
    if (!value)
        return true;
    if constexpr (std::is_same_v<T, bool>) {
        if (!value->isBool())
            return false;
        *out = value->boolValue();
    } else if constexpr (std::is_same_v<T, int64_t>) {
        if (!value->isInteger())
            return false;
        *out = value->intValue();
    } else if constexpr (std::is_same_v<T, double>) {
        if (!value->isNumber())
            return false;
        *out = value->numberValue();
    } else {
        static_assert(std::is_same_v<T, std::string>);
        if (!value->isString())
            return false;
        *out = value->stringValue();
    }
    return true;
}

} // namespace hilp

#endif // HILP_SUPPORT_JSON_HH

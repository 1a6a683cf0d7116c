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
 */

#ifndef HILP_SUPPORT_JSON_HH
#define HILP_SUPPORT_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
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

// Typed member reads for decoding wire and checkpoint objects: the
// value of `key` when `object` is an object holding it with the
// right kind, else the fallback (also for a non-object, so a reply
// line of any shape can be probed).

double numberOr(const Json &object, const char *key, double fallback);
int64_t intOr(const Json &object, const char *key, int64_t fallback);
bool boolOr(const Json &object, const char *key, bool fallback);
std::string stringOr(const Json &object, const char *key,
                     const std::string &fallback = "");

} // namespace hilp

#endif // HILP_SUPPORT_JSON_HH

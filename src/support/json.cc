#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "logging.hh"
#include "str.hh"

namespace hilp {

Json::Json() = default;

Json
Json::null()
{
    return Json();
}

Json
Json::boolean(bool value)
{
    Json json;
    json.kind_ = Kind::Bool;
    json.bool_ = value;
    return json;
}

Json
Json::number(double value)
{
    Json json;
    json.kind_ = Kind::Number;
    json.number_ = value;
    return json;
}

Json
Json::number(int64_t value)
{
    Json json;
    json.kind_ = Kind::Integer;
    json.integer_ = value;
    return json;
}

Json
Json::string(std::string value)
{
    Json json;
    json.kind_ = Kind::String;
    json.string_ = std::move(value);
    return json;
}

Json
Json::object()
{
    Json json;
    json.kind_ = Kind::Object;
    return json;
}

Json
Json::array()
{
    Json json;
    json.kind_ = Kind::Array;
    return json;
}

Json &
Json::set(const std::string &key, Json value)
{
    hilp_assert(kind_ == Kind::Object);
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::append(Json value)
{
    hilp_assert(kind_ == Kind::Array);
    elements_.push_back(std::move(value));
    return *this;
}

size_t
Json::size() const
{
    if (kind_ == Kind::Object)
        return members_.size();
    if (kind_ == Kind::Array)
        return elements_.size();
    return 0;
}

bool
Json::boolValue() const
{
    hilp_assert(kind_ == Kind::Bool);
    return bool_;
}

double
Json::numberValue() const
{
    hilp_assert(kind_ == Kind::Number || kind_ == Kind::Integer);
    return kind_ == Kind::Integer
        ? static_cast<double>(integer_) : number_;
}

int64_t
Json::intValue() const
{
    hilp_assert(kind_ == Kind::Number || kind_ == Kind::Integer);
    if (kind_ == Kind::Integer)
        return integer_;
    // Casting a double outside int64 is undefined: saturate instead.
    if (std::isnan(number_))
        return 0;
    if (number_ >= 0x1p63)
        return std::numeric_limits<int64_t>::max();
    if (number_ < -0x1p63)
        return std::numeric_limits<int64_t>::min();
    return static_cast<int64_t>(number_);
}

const std::string &
Json::stringValue() const
{
    hilp_assert(kind_ == Kind::String);
    return string_;
}

const Json *
Json::find(const std::string &key) const
{
    hilp_assert(kind_ == Kind::Object);
    for (const auto &member : members_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const Json &
Json::at(size_t index) const
{
    hilp_assert(kind_ == Kind::Array);
    hilp_assert(index < elements_.size());
    return elements_[index];
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    hilp_assert(kind_ == Kind::Object);
    return members_;
}

namespace {

const Json *
member(const Json &object, const char *key)
{
    return object.isObject() ? object.find(key) : nullptr;
}

} // anonymous namespace

double
numberOr(const Json &object, const char *key, double fallback)
{
    const Json *value = member(object, key);
    return value && value->isNumber() ? value->numberValue() : fallback;
}

int64_t
intOr(const Json &object, const char *key, int64_t fallback)
{
    const Json *value = member(object, key);
    return value && value->isNumber() ? value->intValue() : fallback;
}

bool
boolOr(const Json &object, const char *key, bool fallback)
{
    const Json *value = member(object, key);
    return value && value->isBool() ? value->boolValue() : fallback;
}

std::string
stringOr(const Json &object, const char *key,
         const std::string &fallback)
{
    const Json *value = member(object, key);
    return value && value->isString() ? value->stringValue()
                                      : fallback;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20)
                out += format("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

namespace {

/** Render a double as JSON (no NaN/Inf in JSON: emit null). */
std::string
numberText(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::string text = format("%.17g", value);
    return text;
}

} // anonymous namespace

void
Json::write(std::string &out, int indent, int depth) const
{
    auto newline = [&](int level) {
        if (indent < 0)
            return;
        out += "\n";
        out += std::string(static_cast<size_t>(indent) *
                           static_cast<size_t>(level), ' ');
    };

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        out += numberText(number_);
        break;
      case Kind::Integer:
        out += std::to_string(integer_);
        break;
      case Kind::String:
        out += "\"" + jsonEscape(string_) + "\"";
        break;
      case Kind::Object: {
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += "{";
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ",";
            newline(depth + 1);
            out += "\"" + jsonEscape(members_[i].first) + "\":";
            if (indent >= 0)
                out += " ";
            members_[i].second.write(out, indent, depth + 1);
        }
        newline(depth);
        out += "}";
        break;
      }
      case Kind::Array: {
        if (elements_.empty()) {
            out += "[]";
            break;
        }
        out += "[";
        for (size_t i = 0; i < elements_.size(); ++i) {
            if (i > 0)
                out += ",";
            newline(depth + 1);
            elements_[i].write(out, indent, depth + 1);
        }
        newline(depth);
        out += "]";
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    write(out, indent, 0);
    return out;
}

namespace {

/**
 * Recursive-descent JSON reader. Errors carry the byte offset so a
 * malformed multi-megabyte trace points at the problem.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(Json *out)
    {
        skipSpace();
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    /** Nesting cap: malformed input must not overflow the stack. */
    static constexpr int kMaxDepth = 200;

    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = format("%s at offset %zu", what.c_str(), pos_);
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word, Json value, Json *out)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail(format("invalid literal (expected '%s')",
                               word));
        pos_ += len;
        *out = std::move(value);
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case 'n':
            return literal("null", Json::null(), out);
          case 't':
            return literal("true", Json::boolean(true), out);
          case 'f':
            return literal("false", Json::boolean(false), out);
          case '"': {
            std::string value;
            if (!parseString(&value))
                return false;
            *out = Json::string(std::move(value));
            return true;
          }
          case '[':
            return parseArray(out, depth);
          case '{':
            return parseObject(out, depth);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseArray(Json *out, int depth)
    {
        ++pos_; // '['
        Json array = Json::array();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = std::move(array);
            return true;
        }
        for (;;) {
            skipSpace();
            Json element;
            if (!parseValue(&element, depth + 1))
                return false;
            array.append(std::move(element));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                break;
            if (c != ',') {
                --pos_;
                return fail("expected ',' or ']' in array");
            }
        }
        *out = std::move(array);
        return true;
    }

    bool
    parseObject(Json *out, int depth)
    {
        ++pos_; // '{'
        Json object = Json::object();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = std::move(object);
            return true;
        }
        for (;;) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(&key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipSpace();
            Json value;
            if (!parseValue(&value, depth + 1))
                return false;
            object.set(key, std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                break;
            if (c != ',') {
                --pos_;
                return fail("expected ',' or '}' in object");
            }
        }
        *out = std::move(object);
        return true;
    }

    bool
    hex4(uint32_t *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_ + i];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("invalid \\u escape digit");
        }
        pos_ += 4;
        *out = value;
        return true;
    }

    void
    appendUtf8(std::string *out, uint32_t cp)
    {
        if (cp < 0x80) {
            *out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            *out += static_cast<char>(0xc0 | (cp >> 6));
            *out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            *out += static_cast<char>(0xe0 | (cp >> 12));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            *out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            *out += static_cast<char>(0xf0 | (cp >> 18));
            *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            *out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseString(std::string *out)
    {
        ++pos_; // '"'
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("truncated escape sequence");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': *out += '"'; break;
              case '\\': *out += '\\'; break;
              case '/': *out += '/'; break;
              case 'b': *out += '\b'; break;
              case 'f': *out += '\f'; break;
              case 'n': *out += '\n'; break;
              case 'r': *out += '\r'; break;
              case 't': *out += '\t'; break;
              case 'u': {
                uint32_t cp = 0;
                if (!hex4(&cp))
                    return false;
                // Combine UTF-16 surrogate pairs when both halves
                // are present; a lone surrogate becomes U+FFFD.
                if (cp >= 0xd800 && cp <= 0xdbff &&
                    pos_ + 1 < text_.size() &&
                    text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    uint32_t low = 0;
                    if (!hex4(&low))
                        return false;
                    if (low >= 0xdc00 && low <= 0xdfff)
                        cp = 0x10000 + ((cp - 0xd800) << 10) +
                             (low - 0xdc00);
                    else
                        cp = 0xfffd;
                } else if (cp >= 0xd800 && cp <= 0xdfff) {
                    cp = 0xfffd;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("invalid escape sequence");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json *out)
    {
        size_t start = pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            return fail("invalid value");
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        std::string token = text_.substr(start, pos_ - start);
        errno = 0;
        if (integral) {
            char *end = nullptr;
            long long value = std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0') {
                *out = Json::number(static_cast<int64_t>(value));
                return true;
            }
            // Out of int64 range: fall through to double.
            errno = 0;
        }
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (!end || *end != '\0' || errno == ERANGE) {
            pos_ = start;
            return fail("malformed number");
        }
        *out = Json::number(value);
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
    std::string error_;
};

} // anonymous namespace

bool
Json::parse(const std::string &text, Json *out, std::string *error)
{
    *out = Json::null();
    JsonParser parser(text);
    Json value;
    if (!parser.parse(&value)) {
        if (error)
            *error = parser.error();
        return false;
    }
    *out = std::move(value);
    return true;
}

} // namespace hilp

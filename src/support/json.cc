#include "json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>

#include "logging.hh"
#include "str.hh"

namespace hilp {

// A hostile line of up to net::kMaxLineBytes parses into a DOM before
// any validation, so the DOM's bytes per input byte bound what one
// request can make the daemon allocate (DESIGN.md §12): keep a value
// at a tag and one 8-byte payload.
static_assert(sizeof(Json) <= 16, "a Json value is a tag and a payload");

Json::Json(const Json &other) : kind_(other.kind_), payload_(other.payload_)
{
    switch (kind_) {
      case Kind::String:
        if (payload_.string)
            payload_.string = new std::string(*payload_.string);
        break;
      case Kind::Object:
        if (payload_.members)
            payload_.members = new Members(*payload_.members);
        break;
      case Kind::Array:
        if (payload_.elements)
            payload_.elements = new Elements(*payload_.elements);
        break;
      default:
        break;
    }
}

Json::Json(Json &&other) noexcept
    : kind_(other.kind_), payload_(other.payload_)
{
    other.kind_ = Kind::Null;
    other.payload_ = Payload{};
}

Json &
Json::operator=(const Json &other)
{
    if (this != &other)
        *this = Json(other);
    return *this;
}

Json &
Json::operator=(Json &&other) noexcept
{
    // Detach other before releasing this value's payload: other may
    // be owned by it.
    Kind kind = other.kind_;
    Payload payload = other.payload_;
    other.kind_ = Kind::Null;
    other.payload_ = Payload{};
    release();
    kind_ = kind;
    payload_ = payload;
    return *this;
}

Json::~Json()
{
    release();
}

void
Json::release() noexcept
{
    switch (kind_) {
      case Kind::String:
        delete payload_.string;
        break;
      case Kind::Object:
        delete payload_.members;
        break;
      case Kind::Array:
        delete payload_.elements;
        break;
      default:
        break;
    }
}

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
    json.payload_.boolean = value;
    return json;
}

Json
Json::number(double value)
{
    Json json;
    json.kind_ = Kind::Number;
    json.payload_.number = value;
    return json;
}

Json
Json::number(int64_t value)
{
    Json json;
    json.kind_ = Kind::Integer;
    json.payload_.integer = value;
    return json;
}

Json
Json::string(std::string value)
{
    Json json;
    json.kind_ = Kind::String;
    json.payload_.string = nullptr;
    if (!value.empty())
        json.payload_.string = new std::string(std::move(value));
    return json;
}

Json
Json::object()
{
    Json json;
    json.kind_ = Kind::Object;
    json.payload_.members = nullptr;
    return json;
}

Json
Json::array()
{
    Json json;
    json.kind_ = Kind::Array;
    json.payload_.elements = nullptr;
    return json;
}

namespace {

/**
 * Capacity of a container's first allocation in set() and append():
 * a point record's objects and schedule rows then grow once or twice
 * instead of from one slot up. The parser grows its containers from
 * one slot, so a hostile line's DOM is not inflated by it.
 */
constexpr size_t kFirstCapacity = 8;

template <typename Container>
Container *
newContainer()
{
    auto container = std::make_unique<Container>();
    container->reserve(kFirstCapacity);
    return container.release();
}

} // anonymous namespace

Json &
Json::set(const std::string &key, Json value)
{
    hilp_assert(kind_ == Kind::Object);
    if (!payload_.members)
        payload_.members = newContainer<Members>();
    for (auto &member : *payload_.members) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    payload_.members->emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::append(Json value)
{
    hilp_assert(kind_ == Kind::Array);
    if (!payload_.elements)
        payload_.elements = newContainer<Elements>();
    payload_.elements->push_back(std::move(value));
    return *this;
}

size_t
Json::size() const
{
    if (kind_ == Kind::Object)
        return payload_.members ? payload_.members->size() : 0;
    if (kind_ == Kind::Array)
        return payload_.elements ? payload_.elements->size() : 0;
    return 0;
}

bool
Json::boolValue() const
{
    hilp_assert(kind_ == Kind::Bool);
    return payload_.boolean;
}

double
Json::numberValue() const
{
    hilp_assert(kind_ == Kind::Number || kind_ == Kind::Integer);
    return kind_ == Kind::Integer
        ? static_cast<double>(payload_.integer) : payload_.number;
}

int64_t
Json::intValue() const
{
    hilp_assert(kind_ == Kind::Number || kind_ == Kind::Integer);
    if (kind_ == Kind::Integer)
        return payload_.integer;
    // Casting a double outside int64 is undefined: saturate instead.
    double number = payload_.number;
    if (std::isnan(number))
        return 0;
    if (number >= 0x1p63)
        return std::numeric_limits<int64_t>::max();
    if (number < -0x1p63)
        return std::numeric_limits<int64_t>::min();
    return static_cast<int64_t>(number);
}

const std::string &
Json::stringValue() const
{
    hilp_assert(kind_ == Kind::String);
    static const std::string empty;
    return payload_.string ? *payload_.string : empty;
}

const Json *
Json::find(const std::string &key) const
{
    hilp_assert(kind_ == Kind::Object);
    if (payload_.members)
        for (const auto &member : *payload_.members)
            if (member.first == key)
                return &member.second;
    return nullptr;
}

const Json &
Json::at(size_t index) const
{
    hilp_assert(kind_ == Kind::Array);
    hilp_assert(index < size());
    return (*payload_.elements)[index];
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    hilp_assert(kind_ == Kind::Object);
    static const Members empty;
    return payload_.members ? *payload_.members : empty;
}

namespace {

const Json *
member(const Json &object, const char *key)
{
    return object.isObject() ? object.find(key) : nullptr;
}

} // anonymous namespace

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

namespace {

/** Append text to out escaped as a JSON string body (no quotes). */
void
appendEscaped(std::string &out, std::string_view text)
{
    // Runs that need no escape are appended whole.
    size_t run = 0;
    for (size_t i = 0; i < text.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(text.data() + run, i - run);
        run = i + 1;
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
            out += format("\\u%04x", c);
        }
    }
    out.append(text.data() + run, text.size() - run);
}

void
appendQuoted(std::string &out, std::string_view text)
{
    out += '"';
    appendEscaped(out, text);
    out += '"';
}

void
appendInteger(std::string &out, int64_t value)
{
    char text[24];
    auto written = std::to_chars(text, text + sizeof(text), value);
    out.append(text, written.ptr);
}

/**
 * Append a double as JSON (no NaN/Inf in JSON: emit null). General
 * format at precision 17 is by definition printf's "%.17g", and 17
 * significant digits read back as the same double. An integral
 * double below 1e17 in magnitude has at most 17 digits, all exact,
 * and %.17g prints them with no exponent or point: the integer
 * formatter writes the same text, several times faster. -0.0 would
 * lose its sign there, so it keeps the general path.
 */
void
appendNumber(std::string &out, double value)
{
    if (std::fabs(value) < 1e17) {
        int64_t integral = static_cast<int64_t>(value);
        if (static_cast<double>(integral) == value &&
            (integral != 0 || !std::signbit(value))) {
            appendInteger(out, integral);
            return;
        }
    } else if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char text[32];
    auto written = std::to_chars(text, text + sizeof(text), value,
                                 std::chars_format::general, 17);
    out.append(text, written.ptr);
}

} // anonymous namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    appendEscaped(out, text);
    return out;
}

void
Json::write(std::string &out, int indent, int depth) const
{
    auto newline = [&](int level) {
        if (indent < 0)
            return;
        out += '\n';
        out.append(static_cast<size_t>(indent) *
                       static_cast<size_t>(level),
                   ' ');
    };

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += payload_.boolean ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, payload_.number);
        break;
      case Kind::Integer:
        appendInteger(out, payload_.integer);
        break;
      case Kind::String:
        appendQuoted(out, stringValue());
        break;
      case Kind::Object: {
        if (size() == 0) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, value] : *payload_.members) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            appendQuoted(out, key);
            out += ':';
            if (indent >= 0)
                out += ' ';
            value.write(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
      case Kind::Array: {
        if (size() == 0) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Json &element : *payload_.elements) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            element.write(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    // A guess at a container's text size, so a point record grows
    // its buffer once or twice instead of a dozen times; capped, so a
    // huge array does not reserve its worst case up front.
    constexpr size_t kBytesPerEntry = 64;
    constexpr size_t kMaxReserve = size_t{64} << 10;
    std::string out;
    out.reserve(std::min(kMaxReserve, kBytesPerEntry * size()));
    write(out, indent, 0);
    return out;
}

/**
 * Recursive-descent JSON reader. Errors carry the byte offset so a
 * malformed multi-megabyte trace points at the problem.
 */
class Json::Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

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
        array.payload_.elements = new Elements();
        Elements &elements = *array.payload_.elements;
        for (;;) {
            skipSpace();
            elements.emplace_back();
            if (!parseValue(&elements.back(), depth + 1))
                return false;
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
        object.payload_.members = new Members();
        Members &members = *object.payload_.members;
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
            members.emplace_back(std::move(key), Json());
            if (!parseValue(&members.back().second, depth + 1))
                return false;
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
        collapseDuplicateKeys(members);
        *out = std::move(object);
        return true;
    }

    /**
     * Give the members what a set() per member would have: a repeated
     * key keeps its first position and takes its last value. Small
     * objects are checked pairwise; a large one sorts its keys, so a
     * line of many keys costs n log n, not n^2.
     */
    static void
    collapseDuplicateKeys(Members &members)
    {
        constexpr size_t kPairwiseMax = 32;
        const size_t n = members.size();
        if (n <= kPairwiseMax) {
            bool repeated = false;
            for (size_t i = 1; i < n && !repeated; ++i)
                for (size_t j = 0; j < i && !repeated; ++j)
                    repeated = members[i].first == members[j].first;
            if (!repeated)
                return;
        }
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return members[a].first < members[b].first;
                         });
        std::vector<char> dropped(n, 0);
        for (size_t begin = 0, end = 0; begin < n; begin = end) {
            while (end < n &&
                   members[order[end]].first == members[order[begin]].first)
                ++end;
            if (end - begin < 2)
                continue;
            members[order[begin]].second =
                std::move(members[order[end - 1]].second);
            for (size_t k = begin + 1; k < end; ++k)
                dropped[order[k]] = 1;
        }
        size_t kept = 0;
        for (size_t i = 0; i < n; ++i) {
            if (dropped[i])
                continue;
            if (kept != i)
                members[kept] = std::move(members[i]);
            ++kept;
        }
        members.erase(members.begin() + static_cast<ptrdiff_t>(kept),
                      members.end());
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
            // Characters that need no decoding are appended as a run.
            size_t run = pos_;
            while (pos_ < text_.size()) {
                unsigned char c = static_cast<unsigned char>(text_[pos_]);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++pos_;
            }
            out->append(text_, run, pos_ - run);
            if (pos_ >= text_.size())
                break;
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail("unescaped control character in string");
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
        auto digit = [](char c) { return c >= '0' && c <= '9'; };
        size_t start = pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (pos_ >= text_.size() || !digit(text_[pos_]))
            return fail("invalid value");
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (digit(c)) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            int64_t value = 0;
            auto parsed = std::from_chars(first, last, value);
            if (parsed.ec == std::errc() && parsed.ptr == last) {
                *out = Json::number(value);
                return true;
            }
            // Out of int64 range: fall through to double.
        }
        // from_chars takes every finite result, subnormals included,
        // and reports overflow and underflow to zero as out of range.
        double value = 0.0;
        auto parsed = std::from_chars(first, last, value);
        if (parsed.ec != std::errc() || parsed.ptr != last) {
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

bool
Json::parse(const std::string &text, Json *out, std::string *error)
{
    *out = Json::null();
    Parser parser(text);
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

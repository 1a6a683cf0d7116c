#include "str.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <limits>
#include <system_error>

#include "logging.hh"

namespace hilp {

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = detail::vformat(fmt, ap);
    va_end(ap);
    return out;
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
toLower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

bool
parseBytes(const std::string &text, size_t *out)
{
    constexpr size_t kMax = std::numeric_limits<size_t>::max();
    size_t value = 0;
    size_t i = 0;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
        const size_t digit = static_cast<size_t>(text[i] - '0');
        if (value > (kMax - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    if (i == 0)
        return false;
    int shift = 0;
    if (i < text.size()) {
        const char suffix = text[i++];
        if (suffix == 'K' || suffix == 'k')
            shift = 10;
        else if (suffix == 'M' || suffix == 'm')
            shift = 20;
        else if (suffix == 'G' || suffix == 'g')
            shift = 30;
        else
            return false;
    }
    if (i != text.size() || value > (kMax >> shift))
        return false;
    *out = value << shift;
    return true;
}

namespace {

/** parseInt/parseReal: the whole string, in [min, max]. */
template <typename T>
bool
parseNumber(const std::string &text, T min, T max, T *out)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    // The negated range test also rejects NaN.
    if (error != std::errc() || stop != end ||
        !(min <= value && value <= max))
        return false;
    *out = value;
    return true;
}

} // anonymous namespace

bool
parseInt(const std::string &text, int64_t min, int64_t max,
         int64_t *out)
{
    return parseNumber(text, min, max, out);
}

bool
parseReal(const std::string &text, double min, double max,
          double *out)
{
    return parseNumber(text, min, max, out);
}

std::string
fmtDouble(double v, int decimals)
{
    if (decimals <= 0)
        return format("%.0f", v);
    return format("%.*f", decimals, v);
}

} // namespace hilp

/**
 * @file
 * String formatting and manipulation helpers.
 */

#ifndef HILP_SUPPORT_STR_HH
#define HILP_SUPPORT_STR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hilp {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split a string on a delimiter character; keeps empty fields. */
std::vector<std::string> split(const std::string &s, char delim);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True when s starts with the given prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &s);

/**
 * Parse a byte count: decimal digits with an optional K, M or G
 * suffix (binary multiples, either case). Returns false, leaving
 * *out untouched, on empty input, a sign, any other trailing
 * character, or a value that does not fit size_t.
 */
bool parseBytes(const std::string &text, size_t *out);

/**
 * Parse the whole string as a decimal integer (an optional minus
 * sign, then digits) in [min, max]. Returns false, leaving *out
 * untouched, on anything else, on overflow, or outside the range.
 */
bool parseInt(const std::string &text, int64_t min, int64_t max,
              int64_t *out);

/**
 * As parseInt, for a decimal number with an optional fraction and
 * exponent (no plus sign, hex, inf or nan) in the finite range
 * [min, max].
 */
bool parseReal(const std::string &text, double min, double max,
               double *out);

/**
 * Render a double compactly for tables: fixed with the given number
 * of decimals, but trimming a plain integer to no decimal point when
 * decimals == 0.
 */
std::string fmtDouble(double v, int decimals = 2);

} // namespace hilp

#endif // HILP_SUPPORT_STR_HH

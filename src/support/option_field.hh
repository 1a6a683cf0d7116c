/**
 * @file
 * One row of an options struct's field table: an options struct that
 * crosses a process boundary declares its wire fields once, in a
 * table beside the struct, and hilp/options.hh walks the tables.
 */

#ifndef HILP_SUPPORT_OPTION_FIELD_HH
#define HILP_SUPPORT_OPTION_FIELD_HH

#include <cstdint>
#include <limits>
#include <type_traits>
#include <variant>

namespace hilp {

/** The full int64 range, for fields that accept any 64-bit value. */
inline constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
inline constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/**
 * A field's wire name, its member, and its inclusive valid range.
 * Booleans take any JSON boolean. Integers travel as JSON integers
 * holding the value cast to int64, so an unsigned member with the
 * full int64 range round-trips every 64-bit value.
 */
template <typename Options>
struct OptionField
{
    constexpr OptionField(const char *name_in, bool Options::*member_in)
        : name(name_in), member(member_in) {}

    template <typename Int>
        requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
    constexpr OptionField(const char *name_in, Int Options::*member_in,
                          int64_t lo, int64_t hi)
        : name(name_in), member(member_in), intMin(lo), intMax(hi) {}

    constexpr OptionField(const char *name_in,
                          double Options::*member_in, double lo,
                          double hi)
        : name(name_in), member(member_in), realMin(lo), realMax(hi) {}

    const char *name;
    std::variant<bool Options::*, int Options::*, int64_t Options::*,
                 uint64_t Options::*, double Options::*>
        member;
    int64_t intMin = 0;
    int64_t intMax = 0;
    double realMin = 0.0;
    double realMax = 0.0;
};

} // namespace hilp

#endif // HILP_SUPPORT_OPTION_FIELD_HH

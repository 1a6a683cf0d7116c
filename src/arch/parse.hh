/**
 * @file
 * Parsing the paper's SoC configuration labels.
 *
 * The paper names SoCs "(c_i, g_j, d_k^l)": i CPU cores, j GPU SMs,
 * k DSAs with l PEs each. This module parses that notation back into
 * a SocConfig, which makes configuration labels usable on command
 * lines and in experiment scripts.
 */

#ifndef HILP_ARCH_PARSE_HH
#define HILP_ARCH_PARSE_HH

#include <string>
#include <vector>

#include "soc.hh"

namespace hilp {
namespace arch {

/**
 * Largest CPU-core, GPU-SM, DSA or PE count a label may carry: far
 * above the paper's largest SoC (c4,g64,d5^16), and small enough that
 * no count derived from it overflows an int.
 */
inline constexpr int kMaxLabelCount = 4096;

/** Outcome of parsing a configuration label. */
struct SocParseResult
{
    bool ok = false;
    std::string error;  //!< First problem found (empty when ok).
    SocConfig config;
};

/**
 * Parse a label like "(c4,g16,d2^16)" (whitespace tolerated, the
 * surrounding parentheses optional). Counts are digits only, at most
 * kMaxLabelCount. The k DSAs are assigned the first k entries of
 * dsa_priority, exactly as the paper allocates DSAs; parsing fails
 * if k exceeds the priority list.
 */
SocParseResult parseSocName(const std::string &text,
                            const std::vector<int> &dsa_priority,
                            double dsa_advantage = 4.0);

} // namespace arch
} // namespace hilp

#endif // HILP_ARCH_PARSE_HH

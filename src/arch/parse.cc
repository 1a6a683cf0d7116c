#include "parse.hh"

#include <cctype>

#include "support/str.hh"

namespace hilp {
namespace arch {

namespace {

/** A count in [0, kMaxLabelCount], digits only; ok=false otherwise. */
int
parseCount(const std::string &field, bool &ok)
{
    int64_t count = 0;
    // The sign check keeps "-0" out.
    if (field.empty() || field[0] == '-' ||
        !parseInt(field, 0, kMaxLabelCount, &count))
        ok = false;
    return static_cast<int>(count);
}

} // anonymous namespace

SocParseResult
parseSocName(const std::string &text,
             const std::vector<int> &dsa_priority,
             double dsa_advantage)
{
    SocParseResult result;

    // Normalize: strip whitespace and optional parentheses.
    std::string compact;
    for (char c : text)
        if (!std::isspace(static_cast<unsigned char>(c)))
            compact.push_back(c);
    if (!compact.empty() && compact.front() == '(')
        compact.erase(compact.begin());
    if (!compact.empty() && compact.back() == ')')
        compact.pop_back();

    std::vector<std::string> parts = split(compact, ',');
    if (parts.size() != 3) {
        result.error = "expected three comma-separated fields "
                       "(c<i>,g<j>,d<k>^<l>)";
        return result;
    }
    if (parts[0].empty() || parts[0][0] != 'c' ||
        parts[1].empty() || parts[1][0] != 'g' ||
        parts[2].empty() || parts[2][0] != 'd') {
        result.error = "fields must start with c, g, and d";
        return result;
    }

    bool ok = true;
    int cpus = parseCount(parts[0].substr(1), ok);
    int sms = parseCount(parts[1].substr(1), ok);

    std::vector<std::string> dsa_parts = split(parts[2].substr(1),
                                               '^');
    int dsas = 0;
    int pes = 0;
    if (dsa_parts.size() == 2) {
        dsas = parseCount(dsa_parts[0], ok);
        pes = parseCount(dsa_parts[1], ok);
    } else if (dsa_parts.size() == 1) {
        dsas = parseCount(dsa_parts[0], ok);
        pes = 1;
    } else {
        ok = false;
    }
    if (!ok) {
        result.error = format("malformed count in configuration label "
                              "(counts are digits, at most %d)",
                              kMaxLabelCount);
        return result;
    }
    if (cpus < 1) {
        result.error = "an SoC needs at least one CPU core";
        return result;
    }
    if (dsas > 0 && pes < 1) {
        result.error = "DSAs need at least one PE";
        return result;
    }
    if (dsas > static_cast<int>(dsa_priority.size())) {
        result.error = format(
            "label asks for %d DSAs but the priority list has %zu "
            "targets", dsas, dsa_priority.size());
        return result;
    }

    result.config.cpuCores = cpus;
    result.config.gpuSms = sms;
    result.config.dsaAdvantage = dsa_advantage;
    for (int d = 0; d < dsas; ++d)
        result.config.dsas.push_back({pes, dsa_priority[d]});
    result.ok = true;
    return result;
}

} // namespace arch
} // namespace hilp

/**
 * @file
 * The option-table walk: every wire field of EngineOptions and
 * cp::SolverOptions goes through hilp/options.hh's writer, parser and
 * digest. The walk iterates the tables themselves, so a row added
 * later is covered with no change here. For every field, a non-default
 * value at either end of its range changes the digest and survives a
 * wire round trip, and a value just outside the range - or of the
 * wrong JSON kind - is rejected with the field's name.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "hilp/engine.hh"
#include "hilp/options.hh"
#include "support/json.hh"
#include "support/str.hh"

namespace hilp {
namespace {

/** Which wire object a table's fields sit in. */
enum class Block { Engine, Solver };

const char *
blockName(Block block)
{
    return block == Block::Engine ? "engine" : "solver";
}

/** Parse wire text into options overlaid on the defaults. */
bool
parseText(const std::string &text, EngineOptions *out,
          std::string *error)
{
    Json json;
    std::string parse_error;
    EXPECT_TRUE(Json::parse(text, &json, &parse_error))
        << parse_error << ": " << text;
    return parseEngineOptions(json, out, error);
}

/** Parse options carrying one field with the raw JSON `value`. */
bool
parseField(Block block, const std::string &name,
           const std::string &value, EngineOptions *out,
           std::string *error)
{
    std::string field = "\"" + name + "\":" + value;
    return parseText(block == Block::Solver
                         ? "{\"solver\":{" + field + "}}"
                         : "{" + field + "}",
                     out, error);
}

void
expectRejected(Block block, const std::string &name,
               const std::string &value)
{
    SCOPED_TRACE(name + "=" + value);
    EngineOptions options;
    std::string error;
    EXPECT_FALSE(parseField(block, name, value, &options, &error));
    EXPECT_EQ(error, format("%s options out of range: %s",
                            blockName(block), name.c_str()));
}

/** Shortest text that parses back to exactly `value`. */
std::string
doubleText(double value)
{
    return format("%.17g", value);
}

/**
 * The nearest double outside a range end. Below zero that is the
 * smallest normal negative, not a subnormal, which strtod reports as
 * an underflow.
 */
double
outside(double end, bool below)
{
    if (below && end == 0.0)
        return -std::numeric_limits<double>::min();
    return std::nextafter(end, below ? -HUGE_VAL : HUGE_VAL);
}

/** The int64 just past a range end, as JSON text (2^63 overflows). */
std::string
outsideText(int64_t end, bool below)
{
    if (below)
        return end == kInt64Min ? "-9223372036854775809"
                                : std::to_string(end - 1);
    return end == kInt64Max ? "9223372036854775808"
                            : std::to_string(end + 1);
}

EngineOptions &
engineOf(EngineOptions &options)
{
    return options;
}

cp::SolverOptions &
solverOf(EngineOptions &options)
{
    return options.solver;
}

/**
 * Run every per-field check of one table. `select` picks the table's
 * struct out of EngineOptions.
 */
template <typename Options, size_t N>
void
walkTable(const OptionField<Options> (&fields)[N], Block block,
          Options &(*select)(EngineOptions &))
{
    const EngineOptions defaults;
    const uint64_t default_digest = engineOptionsDigest(defaults);
    for (const OptionField<Options> &field : fields) {
        SCOPED_TRACE(field.name);
        std::visit([&](auto member) {
            using T = std::remove_cvref_t<decltype(
                std::declval<Options &>().*member)>;

            // Valid values other than the default, and invalid wire
            // texts, by the field's type.
            std::vector<T> valid;
            std::vector<std::string> invalid;
            EngineOptions probe;
            const T default_value = select(probe).*member;
            if constexpr (std::is_same_v<T, bool>) {
                valid = {!default_value};
                invalid = {"1", "\"true\"", "null"};
            } else if constexpr (std::is_same_v<T, double>) {
                valid = {field.realMin, field.realMax};
                invalid = {doubleText(outside(field.realMin, true)),
                           doubleText(outside(field.realMax, false)),
                           "true", "null"};
            } else {
                valid = {static_cast<T>(field.intMin),
                         static_cast<T>(field.intMax)};
                // A double is rejected even when it holds an
                // in-range integral value.
                invalid = {outsideText(field.intMin, true),
                           outsideText(field.intMax, false),
                           std::to_string(field.intMin) + ".0",
                           "1e30", "true", "null"};
            }

            for (const T &value : valid) {
                if (value == default_value)
                    continue;
                EngineOptions options;
                select(options).*member = value;
                EXPECT_NE(engineOptionsDigest(options), default_digest);

                EngineOptions back;
                std::string error;
                ASSERT_TRUE(parseText(engineOptionsJson(options).dump(),
                                      &back, &error))
                    << error;
                EXPECT_EQ(select(back).*member, value);
                EXPECT_EQ(engineOptionsDigest(back),
                          engineOptionsDigest(options));
            }
            for (const std::string &text : invalid)
                expectRejected(block, field.name, text);
        }, field.member);
    }
}

TEST(OptionTables, EveryFieldIsDigestedRoundTrippedAndRangeChecked)
{
    walkTable(kEngineOptionFields, Block::Engine, engineOf);
    walkTable(cp::kSolverOptionFields, Block::Solver, solverOf);

    // Values remote clients have sent, each the edge of a defect the
    // range checks close.
    // 2^32 + 2 narrows to an accepted 2 unless checked as int64.
    expectRejected(Block::Solver, "threads", "-1");
    expectRejected(Block::Solver, "threads", "4294967298");
    expectRejected(Block::Solver, "greedy_restarts", "-3");
    expectRejected(Block::Solver, "greedy_restarts", "1000000000");
    // Casting 1e30 to int64 is undefined behavior.
    expectRejected(Block::Solver, "max_nodes", "1e30");
    // 2^32 + 200 narrows to an accepted 200.
    expectRejected(Block::Engine, "horizon_steps", "4294967496");
    // Hours of hill climbing, whatever the clock budgets say.
    expectRejected(Block::Solver, "lns_iterations", "2147483647");
}

TEST(OptionTables, UnknownKeysAreIgnored)
{
    // A client may send fields this build no longer knows, the
    // retired engine and solver knobs included, even with values
    // their old range checks rejected.
    EngineOptions options;
    std::string error;
    ASSERT_TRUE(parseText("{\"retired_knob\":true,"
                          "\"fallback_lns_iterations\":-1,\"solver\":"
                          "{\"retired_depth\":3,\"use_nogoods\":true,"
                          "\"nogood_capacity\":-1,\"lns\":true,"
                          "\"lns_polish_nodes\":\"many\",\"threads\":2}}",
                          &options, &error))
        << error;
    EXPECT_EQ(options.solver.threads, 2);
    options.solver.threads = EngineOptions{}.solver.threads;
    EXPECT_EQ(engineOptionsDigest(options),
              engineOptionsDigest(EngineOptions{}));
}

/** The table row of a member; fails the test when there is none. */
template <typename Options, size_t N, typename T>
const OptionField<Options> &
rowOf(const OptionField<Options> (&fields)[N], T Options::*member)
{
    for (const OptionField<Options> &field : fields) {
        const auto *candidate = std::get_if<T Options::*>(&field.member);
        if (candidate && *candidate == member)
            return field;
    }
    ADD_FAILURE() << "member has no table row";
    return fields[0];
}

TEST(OptionTables, EscalationCannotOverflowTheBudgets)
{
    // The engine multiplies maxNodes (int64) and lnsIterations (int)
    // by escalation_factor once per escalation. At the largest
    // accepted values of all four fields both products must still
    // fit their types.
    double factor = rowOf(kEngineOptionFields,
                          &EngineOptions::escalationFactor).realMax;
    int64_t escalations =
        rowOf(kEngineOptionFields, &EngineOptions::escalations).intMax;
    double nodes = static_cast<double>(
        rowOf(cp::kSolverOptionFields, &cp::SolverOptions::maxNodes)
            .intMax);
    double lns = static_cast<double>(
        rowOf(cp::kSolverOptionFields,
              &cp::SolverOptions::lnsIterations).intMax);
    for (int64_t i = 0; i < escalations; ++i) {
        nodes *= factor;
        lns *= factor;
    }
    EXPECT_LT(nodes, 0x1p63);
    EXPECT_LE(lns, static_cast<double>(INT_MAX));
}

/**
 * Every option set a non-test caller builds must pass the parser:
 * the library defaults and modes, bench validationEngine and
 * explorationOptions across their budgets and flags, perfbench's
 * sweepOptions, and solver_micro's pinned instances.
 */
TEST(OptionTables, CallerOptionSetsAreAccepted)
{
    std::vector<EngineOptions> sets = {
        EngineOptions{}, EngineOptions::validationMode(),
        EngineOptions::explorationMode()};
    for (double seconds : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        for (int threads : {0, 1, 2, 4, 8}) {
            for (bool timed : {false, true}) {
                EngineOptions validation =
                    EngineOptions::validationMode();
                validation.solver.maxSeconds = seconds;
                validation.solver.maxNodes = 400000;
                validation.solver.threads = threads;
                validation.escalations = 1;
                validation.pointTimeoutS = timed ? 5.0 : 0.0;
                sets.push_back(validation);

                EngineOptions exploration =
                    EngineOptions::explorationMode();
                exploration.solver.maxSeconds = seconds;
                exploration.solver.maxNodes = 120000;
                exploration.solver.threads = threads;
                exploration.escalations = timed ? 1 : 0;
                exploration.pointTimeoutS = timed ? 5.0 : 0.0;
                sets.push_back(exploration);
            }
        }
    }
    EngineOptions perf = EngineOptions::explorationMode();
    perf.solver.maxNodes = 4000;
    perf.solver.maxSeconds = 120.0;
    perf.solver.threads = 1;
    sets.push_back(perf);
    for (double seconds : {1.0, 2.0, 8.0}) {
        for (double gap : {0.0, 0.10}) {
            EngineOptions micro;
            micro.solver.maxSeconds = seconds;
            micro.solver.maxNodes = 1000000;
            micro.solver.targetGap = gap;
            sets.push_back(micro);
        }
    }

    for (const EngineOptions &options : sets) {
        EngineOptions back;
        std::string error;
        ASSERT_TRUE(parseText(engineOptionsJson(options).dump(), &back,
                              &error))
            << error << ": " << engineOptionsJson(options).dump();
        EXPECT_EQ(engineOptionsDigest(back),
                  engineOptionsDigest(options));
    }
}

} // anonymous namespace
} // namespace hilp

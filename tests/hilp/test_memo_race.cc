/**
 * @file
 * Concurrency regression test for SolveMemo::insert: two threads
 * racing equal-rank results into the same keys must always converge
 * on the same surviving entry, whatever the interleaving. Lives in
 * the concurrency binary so the TSan stage of scripts/check.sh
 * checks the locking as well as the determinism.
 */

#include <gtest/gtest.h>

#include <thread>

#include "hilp/engine.hh"

namespace hilp {
namespace {

TEST(SolveMemoRace, RacingEqualRankInsertsConvergeDeterministically)
{
    // Equal rank (ok, gap, degraded), different makespans: the
    // content tiebreak must pick the 2.0 result for every key in
    // every repetition, no matter which thread's insert lands first.
    EvalResult a;
    a.ok = true;
    a.makespanS = 2.0;
    a.gap = 0.05;
    EvalResult b = a;
    b.makespanS = 2.5;

    constexpr uint64_t kKeys = 64;
    for (int rep = 0; rep < 20; ++rep) {
        SolveMemo memo;
        std::thread ta([&] {
            for (uint64_t key = 0; key < kKeys; ++key)
                memo.insert(key, 0, a);
        });
        std::thread tb([&] {
            for (uint64_t key = 0; key < kKeys; ++key)
                memo.insert(key, 0, b);
        });
        ta.join();
        tb.join();
        for (uint64_t key = 0; key < kKeys; ++key) {
            EvalResult out;
            ASSERT_TRUE(memo.lookup(key, 0, &out)) << "key " << key;
            EXPECT_DOUBLE_EQ(out.makespanS, 2.0) << "key " << key;
        }
    }
}

} // anonymous namespace
} // namespace hilp

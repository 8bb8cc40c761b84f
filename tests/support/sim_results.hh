/**
 * @file
 * Field-by-field SimResult and SimCounters comparison for the
 * equivalence tests (serial = batched = sharded = forked = cached).
 *
 * Counters are compared by iterating SimCounters::kFields, so a new
 * counter is covered without touching any test, and a mismatch names
 * the counter that differs.
 */

#ifndef SNOC_TESTS_SUPPORT_SIM_RESULTS_HH
#define SNOC_TESTS_SUPPORT_SIM_RESULTS_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/simulation.hh"

namespace snoc::testsupport {

/** Every counter equal; `what` labels a failure. */
inline void
expectSameCounters(const SimCounters &a, const SimCounters &b,
                   const std::string &what = "")
{
    for (const SimCounters::Field &f : SimCounters::kFields)
        EXPECT_EQ(a.*f.member, b.*f.member)
            << what << ": counter " << f.name;
}

/** Every SimResult field bitwise equal; `what` labels a failure. */
inline void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what = "")
{
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency) << what;
    EXPECT_EQ(a.avgNetworkLatency, b.avgNetworkLatency) << what;
    EXPECT_EQ(a.p99PacketLatencyBound, b.p99PacketLatencyBound) << what;
    EXPECT_EQ(a.avgHops, b.avgHops) << what;
    EXPECT_EQ(a.throughput, b.throughput) << what;
    EXPECT_EQ(a.offeredLoad, b.offeredLoad) << what;
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered) << what;
    EXPECT_EQ(a.stable, b.stable) << what;
    EXPECT_EQ(a.cyclesRun, b.cyclesRun) << what;
    expectSameCounters(a.counters, b.counters, what);
}

} // namespace snoc::testsupport

#endif // SNOC_TESTS_SUPPORT_SIM_RESULTS_HH

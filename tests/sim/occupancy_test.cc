/**
 * @file
 * Incremental-bookkeeping equivalence tests for the O(1) occupancy
 * counters, the active-VC sweep bitmasks, and the flat ShortestPaths
 * table.
 *
 * The occupancy counters and sweep masks are maintained at the exact
 * points credits move and queues change; Network::auditInvariants()
 * recounts every one of them against a from-scratch scan. These
 * tests drive randomized traffic — with and without mid-run fault
 * purges — through that audit via SimInvariantChecker, and pin the
 * public-API relationships the adaptive schemes rely on
 * (pathOccupancy == sum of linkOccupancy along the minimal path).
 */

#include <gtest/gtest.h>

#include <string>

#include "graph/shortest_paths.hh"
#include "sim/network.hh"
#include "tests/support/sim_invariants.hh"
#include "topo/table4.hh"

namespace snoc {
namespace {

using testsupport::SimInvariantChecker;

std::uint64_t
splitmix(std::uint64_t &s)
{
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
offerRandom(Network &net, std::uint64_t &s, int perCycle)
{
    int nodes = net.topology().numNodes();
    const int sizes[3] = {1, 4, 6};
    for (int k = 0; k < perCycle; ++k) {
        std::uint64_t r = splitmix(s);
        int src = static_cast<int>(r % static_cast<std::uint64_t>(nodes));
        int dst = static_cast<int>((r >> 20) %
                                   static_cast<std::uint64_t>(nodes));
        if (src == dst)
            continue;
        net.offerPacket(src, dst, sizes[(r >> 40) % 3]);
    }
}

/** Drive `cycles` of random traffic, auditing every `checkEvery`. */
void
soak(Network &net, std::uint64_t seed, int cycles, int checkEvery)
{
    SimInvariantChecker checker(net);
    std::uint64_t s = seed;
    for (int c = 0; c < cycles; ++c) {
        offerRandom(net, s, 2);
        net.step();
        if (c % checkEvery == checkEvery - 1)
            checker.check("cycle " + std::to_string(c));
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    checker.checkQuiescent("after drain");
}

TEST(OccupancyTracking, UgalTrafficMatchesRecounts)
{
    // UGAL's 2*diameter VC count is the configuration the bitmask
    // sweep targets; the audit recounts occToward, occMask, reqCount,
    // and ownedMask every 50 cycles.
    for (const char *topoId : {"sn_54", "cm4"}) {
        Network net(makeNamedTopology(topoId),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::UgalL, /*seed=*/7);
        soak(net, 0x5eed0 + std::string(topoId).size(), 600, 50);
    }
}

TEST(OccupancyTracking, CentralBufferTrafficMatchesRecounts)
{
    // The CBR divert/intake/drain paths maintain cbMask and the
    // requester refcounts across the bypass -> CB handoff.
    Network net(makeNamedTopology("cm4"), RouterConfig::named("CBR-6"),
                LinkConfig{}, RoutingMode::Minimal, /*seed=*/7);
    soak(net, 0xcb5eed, 600, 50);
}

TEST(OccupancyTracking, FaultPurgeKeepsCountersCoherent)
{
    // The purge rewrites buffers, ownership, and routing state
    // wholesale, then rebuilds the sweep masks; credits it returns
    // keep the occupancy counters balanced. Audit every cycle across
    // the kill / repair / re-kill window.
    FaultPlan plan;
    plan.linkDown(0, 1, 120)
        .routerDown(3, 160)
        .linkUp(0, 1, 220)
        .routerUp(3, 260);
    Network net(makeNamedTopology("cm4"), RouterConfig::named("EB-Var"),
                LinkConfig{}, RoutingMode::UgalL, /*seed=*/7, plan);
    SimInvariantChecker checker(net);
    std::uint64_t s = 0xfa17;
    for (int c = 0; c < 320; ++c) {
        offerRandom(net, s, 2);
        net.step();
        if (c >= 100)
            checker.check("cycle " + std::to_string(c));
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    checker.checkQuiescent("after faulted drain");
}

TEST(OccupancyTracking, RandomFaultSoakUnderCbr)
{
    // Random link failures against the CBR config: the purge must
    // rebuild cbMask alongside the edge-buffer masks.
    FaultPlan plan = FaultPlan::randomLinkFailures(0.10, 150, 23);
    Network net(makeNamedTopology("sn_54"), RouterConfig::named("CBR-6"),
                LinkConfig{}, RoutingMode::Minimal, /*seed=*/7, plan);
    SimInvariantChecker checker(net);
    std::uint64_t s = 0xabcdEF;
    for (int c = 0; c < 400; ++c) {
        offerRandom(net, s, 2);
        net.step();
        if (c % 25 == 24)
            checker.check("cycle " + std::to_string(c));
    }
}

TEST(OccupancyTracking, PathOccupancyIsSumOfLinkOccupancies)
{
    NocTopology topo = makeNamedTopology("sn_54");
    Network net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::UgalG, /*seed=*/7);
    ShortestPaths paths(net.topology().routers());
    std::uint64_t s = 0x900d;
    for (int c = 0; c < 300; ++c) {
        offerRandom(net, s, 2);
        net.step();
    }
    int n = net.topology().numRouters();
    for (int src = 0; src < n; ++src) {
        int dst = (src + n / 2) % n;
        if (src == dst)
            continue;
        int expected = 0;
        for (int v = src; v != dst;) {
            int nh = paths.nextHop(v, dst);
            expected += net.linkOccupancy(v, nh);
            v = nh;
        }
        EXPECT_EQ(net.pathOccupancy(src, dst), expected)
            << src << " -> " << dst;
    }
}

TEST(OccupancyTracking, LinkOccupancyStartsAtZeroAndStaysBounded)
{
    NocTopology topo = makeNamedTopology("cm4");
    Network net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, /*seed=*/7);
    const Graph &g = topo.routers();
    for (int u = 0; u < g.numVertices(); ++u)
        for (int v : g.neighbors(u))
            EXPECT_EQ(net.linkOccupancy(u, v), 0) << u << "->" << v;
    std::uint64_t s = 0xb0b;
    for (int c = 0; c < 200; ++c) {
        offerRandom(net, s, 2);
        net.step();
    }
    for (int u = 0; u < g.numVertices(); ++u)
        for (int v : g.neighbors(u))
            EXPECT_GE(net.linkOccupancy(u, v), 0) << u << "->" << v;
}

TEST(FlatShortestPaths, MatchesBfsAndTieBreaksLowestId)
{
    NocTopology topo = makeNamedTopology("sn_54");
    const Graph &g = topo.routers();
    ShortestPaths paths(g);
    for (int dst = 0; dst < g.numVertices(); ++dst) {
        auto d = g.bfsDistances(dst);
        for (int src = 0; src < g.numVertices(); ++src) {
            EXPECT_EQ(paths.distance(src, dst),
                      d[static_cast<std::size_t>(src)]);
            if (src == dst || d[static_cast<std::size_t>(src)] < 0)
                continue;
            int nh = paths.nextHop(src, dst);
            // One hop closer, and the lowest-id such neighbor.
            EXPECT_EQ(d[static_cast<std::size_t>(nh)],
                      d[static_cast<std::size_t>(src)] - 1);
            for (int w : g.neighbors(src)) {
                if (d[static_cast<std::size_t>(w)] ==
                    d[static_cast<std::size_t>(src)] - 1) {
                    EXPECT_LE(nh, w);
                }
            }
        }
    }
}

} // namespace
} // namespace snoc

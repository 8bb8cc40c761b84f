/**
 * @file
 * Baseline topology tests: the exact router counts, network radix k',
 * router radix k, node counts and diameters of Table 4, and the one
 * path table a topology shares with its copies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "topo/table4.hh"

namespace snoc {
namespace {

struct Table4Row
{
    const char *id;
    int p;
    int networkRadix; // k' of the widest router
    int routerRadix;  // k = k' + p
    int numRouters;
    int numNodes;
    int diameter;
};

class Table4 : public ::testing::TestWithParam<Table4Row>
{
};

TEST_P(Table4, MatchesPaperRow)
{
    const Table4Row &row = GetParam();
    NocTopology t = makeNamedTopology(row.id);
    EXPECT_EQ(t.concentration(), row.p) << row.id;
    EXPECT_EQ(t.routers().maxDegree(), row.networkRadix) << row.id;
    EXPECT_EQ(t.routerRadix(), row.routerRadix) << row.id;
    EXPECT_EQ(t.numRouters(), row.numRouters) << row.id;
    EXPECT_EQ(t.numNodes(), row.numNodes) << row.id;
    EXPECT_EQ(t.diameter(), row.diameter) << row.id;
}

// Paper Table 4 (PFBF diameter: the paper quotes D = 4 counting the
// worst case over both partitioned dimensions; one-dimensional
// partitions give D = 3 by construction).
INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table4,
    ::testing::Values(
        // N in {192, 200}
        Table4Row{"t2d3", 3, 4, 7, 64, 192, 8},
        Table4Row{"t2d4", 4, 4, 8, 50, 200, 7},
        Table4Row{"cm3", 3, 4, 7, 64, 192, 14},
        Table4Row{"cm4", 4, 4, 8, 50, 200, 13},
        Table4Row{"fbf3", 3, 14, 17, 64, 192, 2},
        Table4Row{"fbf4", 4, 13, 17, 50, 200, 2},
        Table4Row{"pfbf3", 3, 8, 11, 64, 192, 4},
        Table4Row{"pfbf4", 4, 9, 13, 50, 200, 3},
        Table4Row{"sn_subgr_200", 4, 7, 11, 50, 200, 2},
        Table4Row{"sn_gr_200", 4, 7, 11, 50, 200, 2},
        // N = 1296
        Table4Row{"t2d9", 9, 4, 13, 144, 1296, 12},
        Table4Row{"t2d8", 8, 4, 12, 162, 1296, 13},
        Table4Row{"cm9", 9, 4, 13, 144, 1296, 22},
        Table4Row{"cm8", 8, 4, 12, 162, 1296, 25},
        Table4Row{"fbf9", 9, 22, 31, 144, 1296, 2},
        Table4Row{"fbf8", 8, 25, 33, 162, 1296, 2},
        Table4Row{"pfbf9", 9, 12, 21, 144, 1296, 4},
        Table4Row{"pfbf8", 8, 17, 25, 162, 1296, 3},
        Table4Row{"sn_subgr_1296", 8, 13, 21, 162, 1296, 2},
        Table4Row{"sn_gr_1296", 8, 13, 21, 162, 1296, 2}));

TEST(Topologies, SmallScaleClass54)
{
    for (const auto &id : table4Ids(54)) {
        NocTopology t = makeNamedTopology(id);
        EXPECT_EQ(t.numNodes(), 54) << id;
    }
}

TEST(Topologies, UnknownIdThrows)
{
    EXPECT_THROW(makeNamedTopology("nonsense"), FatalError);
    EXPECT_THROW(table4Ids(123), FatalError);
}

TEST(Topologies, CycleTimesFollowRadixClasses)
{
    EXPECT_DOUBLE_EQ(makeNamedTopology("t2d4").cycleTimeNs(), 0.4);
    EXPECT_DOUBLE_EQ(makeNamedTopology("cm4").cycleTimeNs(), 0.4);
    EXPECT_DOUBLE_EQ(makeNamedTopology("pfbf4").cycleTimeNs(), 0.5);
    EXPECT_DOUBLE_EQ(makeNamedTopology("sn_subgr_200").cycleTimeNs(),
                     0.5);
    EXPECT_DOUBLE_EQ(makeNamedTopology("fbf4").cycleTimeNs(), 0.6);
}

TEST(Topologies, DragonflyStructure)
{
    // h = 3: a = 6 routers/group, g = 19 groups, all pairs joined by
    // exactly one global channel, diameter 3.
    NocTopology t = makeNamedTopology("df_200");
    EXPECT_EQ(t.numRouters(), 114);
    EXPECT_TRUE(t.routers().isRegular());
    EXPECT_EQ(t.routers().maxDegree(), 5 + 3); // (a-1) local + h global
    EXPECT_LE(t.diameter(), 3);
}

TEST(Topologies, FoldedClosIsIndirect)
{
    NocTopology t = makeNamedTopology("clos_200");
    EXPECT_EQ(t.numNodes(), 200);
    EXPECT_EQ(t.diameter(), 2);
    // Spines have zero concentration.
    int transit = 0;
    for (int r = 0; r < t.numRouters(); ++r)
        if (t.concentrationOf(r) == 0)
            ++transit;
    EXPECT_EQ(transit, 7);
}

TEST(Topologies, NodeRouterMappingRoundTrip)
{
    // Over every registered topology (clos_200's zero-node spines are
    // the interesting case): routerOfNode agrees with the prefix-sum
    // definition, the last router r with firstNodeOfRouter(r) <= n,
    // and never lands on a router without nodes.
    for (const auto &id : namedTopologyIds()) {
        NocTopology t = makeNamedTopology(id);
        // The O(1) diameter read from the path table agrees with a
        // from-scratch sweep of the router graph.
        EXPECT_EQ(t.diameter(), t.routers().diameter()) << id;
        std::vector<int> firstNode;
        for (int r = 0; r < t.numRouters(); ++r)
            firstNode.push_back(t.firstNodeOfRouter(r));
        firstNode.push_back(t.numNodes());
        for (int n = 0; n < t.numNodes(); ++n) {
            int r = t.routerOfNode(n);
            int expect = static_cast<int>(
                std::upper_bound(firstNode.begin(), firstNode.end(), n) -
                firstNode.begin()) - 1;
            ASSERT_EQ(r, expect) << id << " node " << n;
            ASSERT_GT(t.concentrationOf(r), 0) << id << " node " << n;
            int first = t.firstNodeOfRouter(r);
            EXPECT_GE(n, first) << id;
            EXPECT_LT(n, first + t.concentrationOf(r)) << id;
        }
    }
}

TEST(Topologies, CopiesShareOnePathTable)
{
    auto original =
        std::make_unique<NocTopology>(makeNamedTopology("sn_subgr_200"));
    std::shared_ptr<const ShortestPaths> table = original->paths();
    ASSERT_NE(table, nullptr);
    NocTopology copy = *original;
    NocTopology second = copy;
    EXPECT_EQ(copy.paths(), table);
    EXPECT_EQ(second.paths(), table);
    // A factory result after a move keeps the table it was built
    // with; the table holds no pointer into the moved-from graph.
    NocTopology moved = std::move(second);
    EXPECT_EQ(moved.paths(), table);

    // Destroy the original: the copy still routes correctly, down to
    // the neighbor walk of minimalNextHops.
    original.reset();
    const Graph &g = copy.routers();
    const ShortestPaths &sp = *copy.paths();
    for (int s = 0; s < g.numVertices(); ++s) {
        std::vector<int> dist = g.bfsDistances(s);
        for (int t = 0; t < g.numVertices(); ++t) {
            ASSERT_EQ(sp.distance(t, s), dist[static_cast<std::size_t>(t)]);
            if (t == s)
                continue;
            std::vector<int> expect;
            for (int w : g.neighbors(t))
                if (dist[static_cast<std::size_t>(w)] ==
                    dist[static_cast<std::size_t>(t)] - 1)
                    expect.push_back(w);
            ASSERT_EQ(sp.minimalNextHops(t, s), expect) << t << "->" << s;
            EXPECT_EQ(sp.nextHop(t, s),
                      *std::min_element(expect.begin(), expect.end()));
        }
    }
}

TEST(Topologies, BisectionOrdering)
{
    // For a fixed die, FBF's bisection must exceed PFBF's, which is
    // designed to be comparable to SN's (Section 5.1).
    int fbf = makeNamedTopology("fbf4").bisectionLinks();
    int pfbf = makeNamedTopology("pfbf4").bisectionLinks();
    int sn = makeNamedTopology("sn_subgr_200").bisectionLinks();
    int t2d = makeNamedTopology("t2d4").bisectionLinks();
    EXPECT_GT(fbf, pfbf);
    EXPECT_GT(sn, t2d);
    // PFBF matched to SN within a 2x factor band.
    EXPECT_LT(std::abs(pfbf - sn), std::max(pfbf, sn));
}

} // namespace
} // namespace snoc

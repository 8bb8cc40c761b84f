/**
 * @file
 * Shortest-path table tests: correctness of distances, deterministic
 * tie-breaking, path reconstruction, and weighted Dijkstra.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/shortest_paths.hh"

namespace snoc {
namespace {

Graph
grid3x3()
{
    // 0 1 2 / 3 4 5 / 6 7 8 mesh
    Graph g(9);
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
            int v = y * 3 + x;
            if (x < 2)
                g.addEdge(v, v + 1);
            if (y < 2)
                g.addEdge(v, v + 3);
        }
    }
    return g;
}

TEST(ShortestPaths, DistancesMatchBfs)
{
    Graph g = grid3x3();
    ShortestPaths sp(g);
    for (int s = 0; s < 9; ++s) {
        auto d = g.bfsDistances(s);
        for (int t = 0; t < 9; ++t)
            EXPECT_EQ(sp.distance(s, t), d[static_cast<std::size_t>(t)]);
    }
}

TEST(ShortestPaths, PathIsMinimalAndValid)
{
    Graph g = grid3x3();
    ShortestPaths sp(g);
    for (int s = 0; s < 9; ++s) {
        for (int t = 0; t < 9; ++t) {
            auto p = sp.path(s, t);
            EXPECT_EQ(static_cast<int>(p.size()) - 1, sp.distance(s, t));
            EXPECT_EQ(p.front(), s);
            EXPECT_EQ(p.back(), t);
            for (std::size_t i = 0; i + 1 < p.size(); ++i)
                EXPECT_TRUE(g.hasEdge(p[i], p[i + 1]));
        }
    }
}

TEST(ShortestPaths, DeterministicTieBreakLowestId)
{
    Graph g = grid3x3();
    ShortestPaths sp(g);
    // From 0 to 4, both 1 and 3 are minimal; lowest id wins.
    EXPECT_EQ(sp.nextHop(0, 4), 1);
    // And the full minimal set contains both.
    auto hops = sp.minimalNextHops(0, 4);
    ASSERT_EQ(hops.size(), 2u);
    EXPECT_EQ(hops[0], 1);
    EXPECT_EQ(hops[1], 3);
}

TEST(ShortestPaths, OutlivesTheGraphItWasBuiltFrom)
{
    // The table keeps its own adjacency, so one built from a
    // temporary still walks neighbor lists after the graph is gone.
    ShortestPaths sp(grid3x3());
    EXPECT_EQ(sp.minimalNextHops(0, 4), (std::vector<int>{1, 3}));
    EXPECT_EQ(sp.minimalNextHops(8, 0), (std::vector<int>{5, 7}));
    EXPECT_EQ(sp.minimalNextHops(4, 5), (std::vector<int>{5}));
    EXPECT_EQ(sp.diameter(), 4);
}

TEST(ShortestPaths, DiameterIsMinusOneWhenDisconnected)
{
    Graph g(3);
    g.addEdge(0, 1);
    EXPECT_EQ(ShortestPaths(g).diameter(), -1);
    EXPECT_EQ(ShortestPaths(Graph(1)).diameter(), 0);
}

TEST(ShortestPaths, MinimalNextHopsEmptyForSelf)
{
    Graph g = grid3x3();
    ShortestPaths sp(g);
    EXPECT_TRUE(sp.minimalNextHops(4, 4).empty());
}

TEST(Dijkstra, WeightedDistances)
{
    // Triangle with a heavy direct edge: 0-1 w=10, 0-2 w=1, 2-1 w=1.
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(2, 1);
    auto weight = [](int u, int v) {
        if ((u == 0 && v == 1) || (u == 1 && v == 0))
            return 10.0;
        return 1.0;
    };
    auto d = dijkstra(g, 0, weight);
    EXPECT_DOUBLE_EQ(d[0], 0.0);
    EXPECT_DOUBLE_EQ(d[2], 1.0);
    EXPECT_DOUBLE_EQ(d[1], 2.0); // via 2, not the direct edge
}

TEST(Dijkstra, UnreachableIsInfinity)
{
    Graph g(3);
    g.addEdge(0, 1);
    auto d = dijkstra(g, 0, [](int, int) { return 1.0; });
    EXPECT_TRUE(std::isinf(d[2]));
}

} // namespace
} // namespace snoc

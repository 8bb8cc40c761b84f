/**
 * @file
 * Shortest-path machinery backing the static minimum routing used by
 * the paper (Section 5.1: paths computed with Dijkstra's algorithm)
 * and the minimal-path sets needed by adaptive schemes (UGAL,
 * XY-adaptive).
 */

#ifndef SNOC_GRAPH_SHORTEST_PATHS_HH
#define SNOC_GRAPH_SHORTEST_PATHS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "graph/graph.hh"

namespace snoc {

/**
 * All-pairs minimal routing tables for a router graph.
 *
 * Ties between equal-length paths are broken deterministically toward
 * the lowest-id neighbor, which keeps the routing static and
 * reproducible (the paper's "static minimum routing").
 *
 * Storage is one contiguous row-major array of packed
 * (distance, nextHop) pairs, one row per destination: UGAL's triple
 * distance probe and the per-hop path walks of pathOccupancy touch a
 * single cache-resident row instead of chasing per-destination
 * vectors. Unreachable pairs hold (-1, -1).
 *
 * The table is self-contained: it keeps its own copy of the graph's
 * adjacency (minimalNextHops walks it), so it may outlive the Graph
 * it was built from and be shared read-only by any number of owners
 * (NocTopology, Networks, routing schemes) across threads.
 */
class ShortestPaths
{
  public:
    /** Precompute tables for g. O(V * (V + E)). */
    explicit ShortestPaths(Graph g);

    /** Hop distance between routers (-1 when unreachable). */
    int
    distance(int src, int dst) const
    {
        SNOC_ASSERT(src >= 0 && src < n_ && dst >= 0 && dst < n_,
                    "vertex out of range");
        return table_[index(src, dst)].dist;
    }

    /**
     * Deterministic next hop from src toward dst.
     * @pre src != dst and dst reachable.
     */
    int
    nextHop(int src, int dst) const
    {
        SNOC_ASSERT(src != dst, "nextHop with src == dst");
        int nh = table_[index(src, dst)].next;
        SNOC_ASSERT(nh >= 0, "destination ", dst,
                    " unreachable from ", src);
        return nh;
    }

    /** All neighbors of src that lie on some minimal src->dst path. */
    std::vector<int> minimalNextHops(int src, int dst) const;

    /** Allocation-free variant for per-route hot paths: clears `out`
     *  and fills it with the minimal next hops. */
    void minimalNextHops(int src, int dst, std::vector<int> &out) const;

    /** The full deterministic path src -> ... -> dst (inclusive). */
    std::vector<int> path(int src, int dst) const;

    int numVertices() const { return n_; }

    /** Maximum hop distance over all pairs; -1 if disconnected.
     *  Found while the table is filled, so reading it is O(1). */
    int diameter() const { return diameter_; }

  private:
    /** One (src, dst) table entry: hop distance + next hop. */
    struct Entry
    {
        std::int32_t dist = -1;
        std::int32_t next = -1;
    };

    std::size_t
    index(int src, int dst) const
    {
        return static_cast<std::size_t>(dst) *
                   static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(src);
    }

    Graph graph_;
    int n_;
    int diameter_ = 0;
    std::vector<Entry> table_; //!< row-major by dst: [dst * n_ + src]
};

/**
 * Single-source Dijkstra with arbitrary non-negative edge weights
 * (used for physically-weighted wire-length analyses).
 *
 * @param g        the graph
 * @param src      source vertex
 * @param weight   weight(u, v) for each adjacent pair; must be >= 0
 * @return per-vertex distance; unreachable vertices get infinity
 */
std::vector<double> dijkstra(
    const Graph &g, int src,
    const std::function<double(int, int)> &weight);

} // namespace snoc

#endif // SNOC_GRAPH_SHORTEST_PATHS_HH

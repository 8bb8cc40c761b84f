#include "graph/shortest_paths.hh"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

namespace snoc {

ShortestPaths::ShortestPaths(Graph g)
    : graph_(std::move(g)), n_(graph_.numVertices())
{
    table_.resize(static_cast<std::size_t>(n_) *
                  static_cast<std::size_t>(n_));
    for (int dst = 0; dst < n_; ++dst) {
        auto d = graph_.bfsDistances(dst);
        Entry *row = &table_[index(0, dst)];
        for (int v = 0; v < n_; ++v) {
            row[v].dist =
                static_cast<std::int32_t>(d[static_cast<std::size_t>(v)]);
            if (d[static_cast<std::size_t>(v)] < 0) {
                diameter_ = -1;
                continue;
            }
            if (diameter_ >= 0)
                diameter_ = std::max(diameter_,
                                     d[static_cast<std::size_t>(v)]);
            if (v == dst)
                continue;
            int best = -1;
            for (int w : graph_.neighbors(v)) {
                if (d[static_cast<std::size_t>(w)] ==
                    d[static_cast<std::size_t>(v)] - 1) {
                    if (best < 0 || w < best)
                        best = w;
                }
            }
            row[v].next = static_cast<std::int32_t>(best);
        }
    }
}

std::vector<int>
ShortestPaths::minimalNextHops(int src, int dst) const
{
    std::vector<int> hops;
    minimalNextHops(src, dst, hops);
    return hops;
}

void
ShortestPaths::minimalNextHops(int src, int dst,
                               std::vector<int> &out) const
{
    SNOC_ASSERT(src >= 0 && src < n_ && dst >= 0 && dst < n_,
                "vertex out of range");
    out.clear();
    if (src == dst)
        return;
    const Entry *row = &table_[index(0, dst)];
    for (int w : graph_.neighbors(src)) {
        if (row[w].dist == row[src].dist - 1) {
            // Parallel edges produce duplicate neighbors; keep one each.
            if (std::find(out.begin(), out.end(), w) == out.end())
                out.push_back(w);
        }
    }
}

std::vector<int>
ShortestPaths::path(int src, int dst) const
{
    std::vector<int> p;
    p.push_back(src);
    int v = src;
    while (v != dst) {
        v = nextHop(v, dst);
        p.push_back(v);
        SNOC_ASSERT(static_cast<int>(p.size()) <= n_,
                    "routing loop from ", src, " to ", dst);
    }
    return p;
}

std::vector<double>
dijkstra(const Graph &g, int src,
         const std::function<double(int, int)> &weight)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(static_cast<std::size_t>(g.numVertices()), inf);
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    dist[static_cast<std::size_t>(src)] = 0.0;
    pq.emplace(0.0, src);
    while (!pq.empty()) {
        auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[static_cast<std::size_t>(v)])
            continue;
        for (int w : g.neighbors(v)) {
            double ew = weight(v, w);
            SNOC_ASSERT(ew >= 0.0, "negative edge weight");
            double nd = d + ew;
            if (nd < dist[static_cast<std::size_t>(w)]) {
                dist[static_cast<std::size_t>(w)] = nd;
                pq.emplace(nd, w);
            }
        }
    }
    return dist;
}

} // namespace snoc

#include "topo/noc_topology.hh"

#include <algorithm>

#include "common/log.hh"

namespace snoc {

NocTopology::NocTopology(std::string name, Graph routers,
                         Placement placement,
                         std::vector<int> nodesPerRouter,
                         double cycleTimeNs, int expectedDiameter)
    : name_(std::move(name)), routers_(std::move(routers)),
      placement_(std::move(placement)),
      nodesPerRouter_(std::move(nodesPerRouter)),
      cycleTimeNs_(cycleTimeNs)
{
    SNOC_ASSERT(static_cast<int>(nodesPerRouter_.size()) ==
                    routers_.numVertices(),
                "nodesPerRouter size mismatch");
    SNOC_ASSERT(placement_.numRouters() == routers_.numVertices(),
                "placement size mismatch");
    SNOC_ASSERT(cycleTimeNs_ > 0.0, "cycle time must be positive");
    firstNode_.resize(nodesPerRouter_.size() + 1, 0);
    for (std::size_t r = 0; r < nodesPerRouter_.size(); ++r) {
        SNOC_ASSERT(nodesPerRouter_[r] >= 0, "negative concentration");
        firstNode_[r + 1] = firstNode_[r] + nodesPerRouter_[r];
        nodeRouter_.insert(nodeRouter_.end(),
                           static_cast<std::size_t>(nodesPerRouter_[r]),
                           static_cast<int>(r));
    }
    numNodes_ = firstNode_.back();
    SNOC_ASSERT(numNodes_ > 0, "topology has no nodes");
    paths_ = std::make_shared<const ShortestPaths>(routers_);
    SNOC_ASSERT(diameter() >= 0, "router graph disconnected");
    if (expectedDiameter >= 0) {
        SNOC_ASSERT(diameter() == expectedDiameter, "topology ", name_,
                    " diameter ", diameter(), " != expected ",
                    expectedDiameter);
    }
}

int
NocTopology::concentrationOf(int router) const
{
    SNOC_ASSERT(router >= 0 && router < numRouters(), "router range");
    return nodesPerRouter_[static_cast<std::size_t>(router)];
}

int
NocTopology::concentration() const
{
    return *std::max_element(nodesPerRouter_.begin(),
                             nodesPerRouter_.end());
}

int
NocTopology::routerRadix() const
{
    int best = 0;
    for (int r = 0; r < numRouters(); ++r) {
        best = std::max(best, routers_.degree(r) + concentrationOf(r));
    }
    return best;
}

int
NocTopology::firstNodeOfRouter(int router) const
{
    SNOC_ASSERT(router >= 0 && router < numRouters(), "router range");
    return firstNode_[static_cast<std::size_t>(router)];
}

int
NocTopology::bisectionLinks() const
{
    // Count links whose endpoints fall on opposite sides of the
    // vertical center line (ties: a link fully on the line counts 0).
    double center = static_cast<double>(placement_.dimX() - 1) / 2.0;
    int cut = 0;
    for (int i = 0; i < numRouters(); ++i) {
        for (int j : routers_.neighbors(i)) {
            if (j <= i)
                continue;
            double xi = placement_.coordOf(i).x;
            double xj = placement_.coordOf(j).x;
            if ((xi < center && xj > center) ||
                (xj < center && xi > center)) {
                ++cut;
            }
        }
    }
    return cut;
}

} // namespace snoc

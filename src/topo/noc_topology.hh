/**
 * @file
 * NocTopology: the common bundle every topology factory produces and
 * every downstream consumer (simulator, power model, benches) uses.
 *
 * A topology instance is a router graph, a physical placement on the
 * die grid, a node-to-router attachment, and the router cycle time
 * the paper assigns per radix class (Section 5.1: 0.4 ns for low-radix
 * T2D/CM, 0.5 ns for SN/PFBF, 0.6 ns for high-radix FBF).
 *
 * The constructor also builds the router graph's fault-free
 * ShortestPaths table, once. Copies and moves of a topology share
 * that table, and so does every Network, batch lane and table routing
 * scheme built on it; a fault event builds a private live table
 * instead of touching this one.
 */

#ifndef SNOC_TOPO_NOC_TOPOLOGY_HH
#define SNOC_TOPO_NOC_TOPOLOGY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/layout.hh"
#include "graph/graph.hh"
#include "graph/shortest_paths.hh"

namespace snoc {

/**
 * Topology family tag plus the structural details deterministic
 * routing needs (grid dimensions, partition counts). Generic falls
 * back to BFS-table minimal routing with hop-indexed VCs.
 */
struct RoutingHint
{
    enum class Kind
    {
        Generic,    //!< BFS minimal, VC = hop index
        SlimNoc,    //!< BFS minimal, 2 VCs (diameter 2)
        Mesh,       //!< dimension-ordered XY
        Torus,      //!< dimension-ordered XY + dateline VCs
        Fbf,        //!< X hop then Y hop
        Pfbf,       //!< X phase (intra + partition links) then Y phase
        Dragonfly,  //!< minimal local-global-local
        Clos,       //!< up/down
    };
    Kind kind = Kind::Generic;
    int cols = 0;
    int rows = 0;
    int partsX = 1;
    int partsY = 1;
};

/** A fully-specified network instance. */
class NocTopology
{
  public:
    /**
     * @param name          short id ("sn_subgr", "t2d4", "fbf9", ...)
     * @param routers       router connectivity graph
     * @param placement     tile coordinates per router
     * @param nodesPerRouter node count attached to each router
     *                      (routers with 0 are transit-only, e.g.
     *                      folded-Clos spine routers)
     * @param cycleTimeNs   router clock period
     * @param expectedDiameter the topology's nominal diameter, used
     *                      for validation; -1 to skip the check
     *
     * Builds the fault-free path table, which also checks that the
     * router graph is connected.
     */
    NocTopology(std::string name, Graph routers, Placement placement,
                std::vector<int> nodesPerRouter, double cycleTimeNs,
                int expectedDiameter = -1);

    const std::string &name() const { return name_; }
    const Graph &routers() const { return routers_; }
    const Placement &placement() const { return placement_; }
    double cycleTimeNs() const { return cycleTimeNs_; }

    const RoutingHint &routingHint() const { return routingHint_; }
    void setRoutingHint(const RoutingHint &hint) { routingHint_ = hint; }

    int numRouters() const { return routers_.numVertices(); }
    int numNodes() const { return numNodes_; }

    /** Nodes attached to a given router. */
    int concentrationOf(int router) const;

    /** Maximum concentration over all routers (the paper's p). */
    int concentration() const;

    /** Router radix k = k' + p for the widest router. */
    int routerRadix() const;

    /** The router a node is attached to (an O(1) table lookup). */
    int
    routerOfNode(int node) const
    {
        SNOC_ASSERT(node >= 0 && node < numNodes_, "node out of range");
        return nodeRouter_[static_cast<std::size_t>(node)];
    }

    /** The nodes attached to a router: [first, first + count). */
    int firstNodeOfRouter(int router) const;

    /** The router graph's fault-free path table, shared by every
     *  copy of this topology. */
    const std::shared_ptr<const ShortestPaths> &
    paths() const
    {
        return paths_;
    }

    /** Hop-count diameter of the router graph (O(1)). */
    int diameter() const { return paths_->diameter(); }

    /**
     * Layout-cut bisection link count: links whose L-route crosses
     * the vertical center line of the die. A proxy for bisection
     * bandwidth under the physical placement.
     */
    int bisectionLinks() const;

  private:
    std::string name_;
    Graph routers_;
    Placement placement_;
    std::vector<int> nodesPerRouter_;
    std::vector<int> firstNode_;
    std::vector<int> nodeRouter_; //!< router of each node
    int numNodes_;
    double cycleTimeNs_;
    RoutingHint routingHint_;
    std::shared_ptr<const ShortestPaths> paths_;
};

} // namespace snoc

#endif // SNOC_TOPO_NOC_TOPOLOGY_HH

/**
 * @file
 * Routing algorithms (Section 5.1, Section 4.3, Section 6).
 *
 * The paper's primary scheme is static minimum routing computed with
 * Dijkstra/BFS, with deadlock freedom from hop-indexed VCs (VC0 for
 * the first hop, VC1 for the second in diameter-2 Slim NoC). Grid
 * baselines use dimension-ordered routing (XY), the torus adds
 * dateline VCs, and the PFBF routes X-phase (intra-partition link
 * plus partition-crossing links) then Y-phase.
 *
 * For the Figure 20 study the UGAL-L / UGAL-G adaptive schemes and
 * FBF's XY-adaptive scheme are provided; they pick between candidate
 * paths using output-queue occupancies exposed via NetworkState.
 */

#ifndef SNOC_SIM_ROUTING_HH
#define SNOC_SIM_ROUTING_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "graph/shortest_paths.hh"
#include "sim/types.hh"
#include "topo/noc_topology.hh"

namespace snoc {

/** Read-only queue state the adaptive schemes consult. */
class NetworkState
{
  public:
    virtual ~NetworkState() = default;

    /** Occupied downstream buffer slots on the link router->next
     *  (summed over VCs): the "local queue size" of UGAL-L. */
    virtual int linkOccupancy(int router, int nextRouter) const = 0;

    /** Sum of linkOccupancy along the deterministic minimal path
     *  (UGAL-G's global queue information). */
    virtual int pathOccupancy(int srcRouter, int dstRouter) const = 0;
};

/** Strategy interface: one instance per network, shared by routers. */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /**
     * Decide the next router and VC for a packet at `router`.
     * `packet.hops` is the number of routers already visited
     * (0 at the source router). Returns nextRouter == -1 to eject.
     */
    virtual RouteDecision route(int router, Packet &packet) = 0;

    /** VCs the scheme needs for deadlock freedom. */
    virtual int numVcs() const = 0;

    /**
     * Called once when the packet is injected (source router known);
     * adaptive schemes pick minimal-vs-Valiant or X-vs-Y here.
     */
    virtual void
    onInject(Packet &packet, const NetworkState &state)
    {
        (void)packet;
        (void)state;
    }

    /** Upper bound on hops a packet may take (loop detection). */
    virtual int maxHops() const = 0;

    /**
     * Give per-hop-adaptive schemes access to live queue state; the
     * Network calls this once after construction. Default: ignored.
     */
    virtual void attachState(const NetworkState &state)
    {
        (void)state;
    }

    /**
     * True when the scheme can reroute around dead links: it routes
     * from the table that onTopologyChange() swaps. Algebraic grid
     * schemes (XY, dateline torus, FBF, PFBF) return false; the
     * fault-aware makeRouting() replaces them with table routing.
     */
    virtual bool supportsFaults() const { return false; }

    /**
     * Route from now on over `live`, the path table of the degraded
     * (or repaired) router graph. Called by the Network after each
     * fault event with the one table it built for that event and
     * keeps itself; `live` covers only the currently-alive links.
     * Unreachable destinations get no next hop — the Network purges
     * packets that would need one before any route() call can see
     * them.
     */
    virtual void
    onTopologyChange(std::shared_ptr<const ShortestPaths> live)
    {
        (void)live;
    }
};

/** Adaptive-routing selector for makeRouting(). */
enum class RoutingMode
{
    Minimal,     //!< deterministic static minimum routing (default)
    MinAdaptive, //!< minimal-adaptive: least-loaded minimal next hop
    UgalL,       //!< UGAL with local queue information
    UgalG,       //!< UGAL with global queue information
    XyAdaptive,  //!< FBF's adaptive X-first/Y-first (Section 6)
};

/** Registry name of a mode: "minimal", "ugal-l", ... */
std::string to_string(RoutingMode mode);

/**
 * Resolve a registry name ("minimal", "min-adaptive", "ugal-l",
 * "ugal-g", "xy-adaptive") to its mode.
 * @throws FatalError listing the valid names when unknown.
 */
RoutingMode routingModeFromName(const std::string &name);

/** All registered mode names, in enum order (`snoc list routings`). */
const std::vector<std::string> &routingModeNames();

/**
 * Build the routing algorithm for a topology.
 *
 * @param topo       the topology (its RoutingHint selects the scheme;
 *                   table schemes share its path table)
 * @param mode       minimal or one of the adaptive modes
 * @param seed       rng seed for adaptive tie-breaks / Valiant picks
 * @param faultAware require a scheme that supportsFaults(): algebraic
 *                   grid schemes are replaced by BFS-table minimal
 *                   routing on the same graph (identical scheme for
 *                   SlimNoc/Generic topologies, so zero-fault armed
 *                   runs match unarmed ones there)
 */
std::unique_ptr<RoutingAlgorithm> makeRouting(const NocTopology &topo,
                                              RoutingMode mode =
                                                  RoutingMode::Minimal,
                                              std::uint64_t seed = 7,
                                              bool faultAware = false);

} // namespace snoc

#endif // SNOC_SIM_ROUTING_HH

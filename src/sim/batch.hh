/**
 * @file
 * Batched same-topology co-simulation: N scenario lanes share one
 * topology build and run one after another.
 *
 * Figure-class campaigns re-simulate the *same* topology dozens of
 * times with only per-run state differing (load, traffic seed, fault
 * plan, routing seed). A BatchedNetwork owns N Network lanes that
 * share the immutable structure — one NocTopology via shared_ptr, and
 * through it the topology's fault-free ShortestPaths table, as any
 * Network on that topology does — while all per-run mutable state
 * (router/VC/channel queues, occupancy counters, credit counts, RNG
 * streams, SimCounters, the wake calendar) stays per lane, exactly as
 * an unbatched run would hold it.
 *
 * Stepping a lane is Network::step() itself, so every lane is
 * *bitwise identical* — delivery stream, SimCounters, RNG draws — to
 * the same scenario run unbatched (enforced by tests/sim/batch_test.cc
 * goldens and the fuzz harness). What batching buys is the shared
 * set-up.
 *
 * Lane order: runBatchedSimulation runs each lane's whole warmup /
 * measure / drain schedule before the next lane starts, so one lane's
 * routers, channels and queues stay cache-resident. Stepping every
 * live lane on every cycle instead (lockstep) walks all lanes' state
 * each cycle; at 8 lanes of a dense sweep that working set does not
 * fit a core's L2 (2 MiB) (docs/ARCHITECTURE.md has the
 * measurements).
 *
 * step() still takes a lane mask, so tests interleave lanes to check
 * that they stay isolated: all masked lanes must be at the same
 * local time, and a lane that leaves the mask freezes.
 */

#ifndef SNOC_SIM_BATCH_HH
#define SNOC_SIM_BATCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/network.hh"
#include "sim/simulation.hh"

namespace snoc {

/** N same-structure Network lanes over one shared topology. */
class BatchedNetwork
{
  public:
    /** Per-lane construction parameters (everything that may differ
     *  across lanes at build time). */
    struct LaneSpec
    {
        std::uint64_t routingSeed = 7;
        FaultPlan faults;
    };

    /** Lane masks are single words. */
    static constexpr int kMaxLanes = 64;

    /**
     * Build `specs.size()` lanes over one shared topology.
     *
     * @param topo   shared immutable topology (TopologyCache::
     *               getShared, or make_shared from a local build)
     * @param router router microarchitecture (identical per lane —
     *               it shapes the port/VC structure)
     * @param link   wire configuration (identical per lane)
     * @param mode   routing mode (identical per lane; the *seed* may
     *               differ per lane)
     * @param specs  per-lane routing seed and fault plan
     */
    BatchedNetwork(std::shared_ptr<const NocTopology> topo,
                   const RouterConfig &router, const LinkConfig &link,
                   RoutingMode mode,
                   const std::vector<LaneSpec> &specs);

    BatchedNetwork(const BatchedNetwork &) = delete;
    BatchedNetwork &operator=(const BatchedNetwork &) = delete;

    int numLanes() const { return static_cast<int>(lanes_.size()); }

    /** A lane's Network: offer packets, read stats, audit — the full
     *  unbatched surface. */
    Network &lane(int l) { return *lanes_[static_cast<std::size_t>(l)]; }
    const Network &
    lane(int l) const
    {
        return *lanes_[static_cast<std::size_t>(l)];
    }

    /** All-lanes mask for step(). */
    std::uint64_t
    allLanes() const
    {
        int n = numLanes();
        return n >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << n) - 1;
    }

    /** Pre-size every lane's packet arena. */
    void reservePackets(std::size_t packets);

    /**
     * Advance every lane in `laneMask` by one cycle, lowest lane
     * first. All masked lanes must be at the same local time (lanes
     * that drop out of the mask freeze and must not re-enter).
     */
    void step(std::uint64_t laneMask);

    /** (router, lane) visits made by the last step() (diagnostics:
     *  the sum of the stepped lanes' Network::lastActiveRouters). */
    std::size_t lastVisited() const { return lastVisited_; }

    /** Run every lane's Network::auditInvariants, naming the first
     *  failing lane. Not a hot-path facility. */
    bool auditInvariants(std::string &err) const;

  private:
    std::vector<std::unique_ptr<Network>> lanes_;
    std::size_t lastVisited_ = 0;
};

/** Per-lane simulation schedule for runBatchedSimulation. */
struct BatchLaneSim
{
    TrafficSource source;
    SimConfig cfg;
};

/**
 * Run one RunSchedule per lane (sim/simulation.hh), lane 0 first:
 * each lane walks its whole warmup / measure / (optional) drain
 * schedule through BatchedNetwork::step with its one-bit mask before
 * the next lane starts. Lane k's SimResult is bitwise identical to
 * runSimulation(laneNetwork, source, cfg).
 */
std::vector<SimResult>
runBatchedSimulation(BatchedNetwork &bn,
                     const std::vector<BatchLaneSim> &lanes);

} // namespace snoc

#endif // SNOC_SIM_BATCH_HH

/**
 * @file
 * Batched same-topology co-simulation: N scenario lanes advance in
 * lockstep through one sweep.
 *
 * Figure-class campaigns re-simulate the *same* topology dozens of
 * times with only per-run state differing (load, traffic seed, fault
 * plan, routing seed). A BatchedNetwork owns N Network lanes that
 * share the immutable structure — one NocTopology and one fault-free
 * ShortestPaths table via shared_ptr (a lane's fault rebuild swaps
 * its own pointer: copy-on-write) — while all per-run mutable state
 * (router/VC/channel queues, occupancy counters, credit counts, RNG
 * streams, SimCounters) stays per lane, exactly as an unbatched run
 * would hold it.
 *
 * The batch layer replaces Network::step()'s per-cycle skeleton with
 * structure-of-arrays control state indexed [lane][router-word]:
 *
 *  - a `queued` bitset per lane (router has buffered flits), kept
 *    incrementally from injection and post-visit recounts;
 *  - a wake-calendar wheel of per-lane router bitsets indexed by
 *    arrival cycle mod W: every channel push/drain reschedules the
 *    sink at the ring front's exact arrival, replacing the legacy
 *    worklist's scan of every channel every cycle (which wakes a
 *    router on every cycle a flit is merely *in flight* — pure waste
 *    on multi-cycle links);
 *  - a per-node lane mask of non-empty source queues, so the
 *    injection pump touches only (node, lane) pairs with queued
 *    packets and amortizes the node -> router/slot lookups across
 *    lanes.
 *
 * Per cycle the visit set of a lane is queued | wake-due; the sweep
 * is lane-major (lanes never interact, so each lane runs its full
 * cycle with its mutable state hot in cache) and drives each lane's
 * routers through the same collect / step / drain phases as
 * Network::step(), in the same ascending-router order within each
 * lane. Visits the legacy worklist would have made beyond this set
 * are provable no-ops (round-robin pointers derive from `now`;
 * collect pops only arrived traffic; the allocators act only on
 * buffered flits), so every lane is *bitwise identical* — delivery
 * stream, SimCounters, RNG draws — to the same scenario stepped
 * unbatched (enforced by tests/sim/batch_test.cc goldens and the
 * fuzz harness).
 *
 * Lane drop-out: step() takes a lane mask, so finished lanes freeze
 * while the rest continue (heterogeneous warmup/measure/drain
 * schedules in one batch).
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

/** N same-structure Network lanes stepping through one sweep. */
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
    ~BatchedNetwork();

    BatchedNetwork(const BatchedNetwork &) = delete;
    BatchedNetwork &operator=(const BatchedNetwork &) = delete;

    int numLanes() const { return static_cast<int>(lanes_.size()); }

    /** A lane's Network: offer packets, read stats, audit — the full
     *  unbatched surface. Do not call lane(l).step(); advance lanes
     *  through BatchedNetwork::step(). */
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
     * Advance every lane in `laneMask` by one cycle. All masked
     * lanes must be at the same local time (lanes that drop out of
     * the mask freeze and must not re-enter).
     */
    void step(std::uint64_t laneMask);

    /** (router, lane) visits made by the last step() (diagnostics:
     *  the batched analogue of Network::lastActiveRouters). */
    std::size_t lastVisited() const { return lastVisited_; }

    /**
     * Audit the batch bookkeeping against a from-scratch recount of
     * every per-lane structure: queued bits vs buffered-flit counts,
     * source-pending masks vs queue depths, and a scheduled wake at
     * or before every in-flight arrival. Also runs each lane's own
     * Network::auditInvariants. Not a hot-path facility.
     */
    bool auditInvariants(std::string &err) const;

    /** Offer-notification hook (called by Network::offerPacket on
     *  lanes; not part of the public API). */
    void
    noteOffer(int laneIdx, int srcNode)
    {
        srcPending_[static_cast<std::size_t>(srcNode)] |=
            std::uint64_t{1} << laneIdx;
    }

  private:
    std::vector<std::unique_ptr<Network>> lanes_;
    int numRouters_ = 0;
    int numNodes_ = 0;
    int words_ = 0;     //!< 64-bit words per router bitset
    int wheelSize_ = 0; //!< covers the max channel+pipeline horizon

    // SoA control state, lane-major ([lane * words_ + w]).
    std::vector<std::uint64_t> queued_; //!< router has buffered flits
    std::vector<std::uint64_t> visit_;  //!< this cycle's visit set
    // Wake wheel: [(slot * lanes + lane) * words_ + w].
    std::vector<std::uint64_t> wheel_;
    // Per node: lanes whose source queue may be non-empty.
    std::vector<std::uint64_t> srcPending_;

    // Shared channel geometry (identical across lanes, copied from
    // lane 0): which router a channel's flits / credits wake, and a
    // CSR of the channels incident to each router (each channel
    // appears under both endpoints).
    std::vector<int> chanFlitSink_;
    std::vector<int> chanCreditSink_;
    std::vector<int> chanFirst_;
    std::vector<int> chanRefs_;

    std::size_t lastVisited_ = 0;

    std::uint64_t *queuedLane(int l);
    std::uint64_t *visitLane(int l);
    std::uint64_t *wheelSlot(int slot, int l);
    void scheduleWake(int laneIdx, int router, Cycle at, Cycle now);
    void setQueued(int laneIdx, int router);
    /** Rare path after a fault event fired in a lane: recount the
     *  lane's queued bits and reschedule wakes from every channel
     *  front (the purge drops flits and pushes reclaim credits). */
    void resyncLane(int laneIdx);
};

/** Per-lane simulation schedule for runBatchedSimulation. */
struct BatchLaneSim
{
    TrafficSource source;
    SimConfig cfg;
};

/**
 * Run one RunSchedule per lane (sim/simulation.hh): each lane walks
 * its own warmup / measure / (optional) drain schedule, and every
 * lane still running advances through one BatchedNetwork::step per
 * cycle. Lane k's SimResult is bitwise identical to
 * runSimulation(laneNetwork, source, cfg).
 */
std::vector<SimResult>
runBatchedSimulation(BatchedNetwork &bn,
                     const std::vector<BatchLaneSim> &lanes);

} // namespace snoc

#endif // SNOC_SIM_BATCH_HH

/**
 * @file
 * Network: wires routers and channels up from a NocTopology, drives
 * the per-cycle pipeline, and accounts statistics.
 *
 * Nodes inject packets via unbounded source queues (open-loop
 * semantics: generation timestamps are kept, so source queueing
 * counts toward packet latency) feeding the routers' 20-flit
 * injection queues. Link latencies are ceil(wireLength / H) with
 * H = 1 (plain) or H ~ 9 (SMART links, Section 5.1).
 *
 * Hot-path contract: packets live in an index-based PacketPool arena
 * owned by the Network (flits carry handles, not refcounts), all
 * queues are pre-reserved ring buffers, and steady-state step()
 * performs zero heap allocations (enforced by tests/sim/
 * hotpath_equivalence_test.cc).
 *
 * step() visits only the routers that can act, found through a
 * WakeCalendar instead of a scan: a router is visited when it holds
 * buffered flits (`queued`) or when a flit or credit lands on one of
 * its ports this very cycle. Routers write the calendar as they push
 * onto a channel, so a visit costs O(set bits), and collectArrivals
 * reads only the flagged ports. Skipping the other routers is exact,
 * not an approximation: for them collect would find nothing arrived,
 * the allocators act only on buffered flits, and the round-robin
 * pointers derive from `now`.
 */

#ifndef SNOC_SIM_NETWORK_HH
#define SNOC_SIM_NETWORK_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/stats.hh"
#include "sim/channel.hh"
#include "sim/fault_plan.hh"
#include "sim/packet_pool.hh"
#include "sim/router.hh"
#include "topo/noc_topology.hh"

namespace snoc {

class ShardedNetwork;

/** Wire / SMART configuration. */
struct LinkConfig
{
    int hopsPerCycle = 1; //!< SMART H; 1 disables SMART

    bool operator==(const LinkConfig &) const = default;
};

/**
 * Called for every delivered packet (trace replay hooks replies).
 * The reference is borrowed: it is valid for the duration of the
 * callback only, after which the pool slot is recycled.
 */
using DeliveryCallback = std::function<void(const Packet &)>;

/**
 * Called for every packet the fault machinery removes without
 * delivering it: offer-time refusals, source-queue purges, and
 * in-flight kills. The closed-loop workload layer uses it to free
 * the window slot a purged request/reply chain would have completed
 * — without it a fault would deadlock the slot forever. Same
 * borrowed-reference contract as DeliveryCallback. Never invoked on
 * fault-free runs.
 */
using DropCallback = std::function<void(const Packet &)>;

/**
 * The Network's visit bookkeeping, in one flat allocation of 64-bit
 * words:
 *
 *  - a wheel of router bitsets indexed by arrival cycle & (slots - 1),
 *    with slots a power of two above the farthest arrival a push can
 *    schedule (link latency + router pipeline), so the current slot is
 *    never written while it is being visited;
 *  - for every (slot, router) a row of `portWords` input-port words
 *    (flits landing on that input) then `portWords` output-port words
 *    (credits landing on that output); several words because a spine
 *    router can have more than 64 network ports;
 *  - the `queued` router bitset (router holds buffered flits), the
 *    current cycle's `visit` router set, and the pending-source node
 *    bitset (node's source queue is non-empty).
 *
 * Routers mark the wheel through markFlit / markCredit as they push
 * (Router::sendFlit, credit returns); Network::step() reads and clears
 * the current slot.
 */
class WakeCalendar
{
  public:
    /** @param horizon farthest arrival offset a push can schedule */
    WakeCalendar(int routers, int portWords, int nodes, int horizon);

    int routerWords() const { return routerWords_; }
    int portWords() const { return portWords_; }
    int nodeWords() const { return nodeWords_; }

    /** A flit lands on `router`'s input port `port` at cycle `at`. */
    void
    markFlit(int router, int port, Cycle at)
    {
        mark(router, port, at, 0);
    }

    /** A credit lands on `router`'s output port `port` at `at`. */
    void
    markCredit(int router, int port, Cycle at)
    {
        mark(router, port, at, portWords_);
    }

    /** Router bitset of the slot cycle `at` maps to. */
    std::uint64_t *
    wheel(Cycle at)
    {
        return bits_.data() + slotOf(at) * rw();
    }

    /** Port row of (slot of `at`, router): input words, then output
     *  words. */
    std::uint64_t *
    ports(Cycle at, int router)
    {
        return bits_.data() + portsAt_ +
               (slotOf(at) * routers_ + static_cast<std::size_t>(router)) *
                   2 * pw();
    }

    std::uint64_t *queued() { return bits_.data() + queuedAt_; }
    std::uint64_t *visit() { return queued() + rw(); }
    std::uint64_t *pending() { return visit() + rw(); }

    /** Clear every bit (before a rebuild). */
    void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

    /** Whether bit `i` of a bitset row is set. */
    static bool
    test(const std::uint64_t *row, int i)
    {
        return (row[i >> 6] >> (i & 63)) & 1;
    }

    static void
    set(std::uint64_t *row, int i)
    {
        row[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

  private:
    std::size_t routers_ = 0;
    int routerWords_ = 0;
    int portWords_ = 0;
    int nodeWords_ = 0;
    Cycle mask_ = 0;           //!< slots - 1
    std::size_t portsAt_ = 0;  //!< offset of the port rows
    std::size_t queuedAt_ = 0; //!< offset of queued, visit, pending
    std::vector<std::uint64_t> bits_;

    std::size_t rw() const { return static_cast<std::size_t>(routerWords_); }
    std::size_t pw() const { return static_cast<std::size_t>(portWords_); }

    std::size_t
    slotOf(Cycle at) const
    {
        return static_cast<std::size_t>(at & mask_);
    }

    void
    mark(int router, int port, Cycle at, int side)
    {
        set(wheel(at), router);
        set(ports(at, router) + side, port);
    }
};

/** A simulated network instance. */
class Network : public NetworkState
{
  public:
    /**
     * @param topo    topology (copied, sharing its path table;
     *                self-contained afterwards)
     * @param router  router microarchitecture
     * @param link    wire configuration
     * @param mode    routing mode
     * @param seed    seed for routing randomness
     * @param faults  fault schedule; an inactive (default) plan keeps
     *                the network bit-for-bit identical to one built
     *                without a plan, an active plan arms fault-aware
     *                routing and the degraded-operation machinery
     */
    Network(const NocTopology &topo, const RouterConfig &router,
            const LinkConfig &link = {},
            RoutingMode mode = RoutingMode::Minimal,
            std::uint64_t seed = 7, const FaultPlan &faults = {});

    /**
     * Shared-structure constructor: the topology is shared read-only
     * instead of copied, so N same-topology instances — TopologyCache
     * users and BatchedNetwork lanes — pay for one copy total.
     * Behavior is bit-identical to the copying constructor. Either
     * way the Network and its table routing scheme route from the
     * topology's fault-free path table; a fault event builds a
     * private live table for both, leaving the topology's untouched.
     */
    Network(std::shared_ptr<const NocTopology> topo,
            const RouterConfig &router, const LinkConfig &link = {},
            RoutingMode mode = RoutingMode::Minimal,
            std::uint64_t seed = 7, const FaultPlan &faults = {});

    const NocTopology &topology() const { return *topo_; }
    Cycle now() const { return now_; }

    /**
     * Queue a packet for injection at its source node. Generation
     * time is `now()` unless createdAt is provided.
     */
    void offerPacket(int srcNode, int dstNode, int sizeFlits,
                     MsgClass msgClass = MsgClass::Generic,
                     std::uint32_t tag = 0);

    /** Advance one cycle. */
    void step();

    /** Set a callback invoked at packet delivery. */
    void setDeliveryCallback(DeliveryCallback cb) { onDeliver_ = cb; }

    /**
     * The currently-installed delivery callback (possibly empty).
     * Layers that need their own hook — the workload sources, the
     * test suite's invariant checker — chain whatever was installed
     * before them instead of clobbering it.
     */
    const DeliveryCallback &deliveryCallback() const
    {
        return onDeliver_;
    }

    /** Set a callback invoked when a fault discards a packet. */
    void setDropCallback(DropCallback cb) { onDrop_ = cb; }

    /** The currently-installed drop callback (for chaining). */
    const DropCallback &dropCallback() const { return onDrop_; }

    /**
     * Mutable counter access for the workload layer (src/workload/):
     * closed-loop sources account their window occupancy, stall
     * cycles and request latencies here so the counters ride the
     * existing measurement-window snapshot/merge machinery in every
     * execution mode. Only touched from the serial phases (source
     * calls and delivery/drop callbacks), never from shard workers.
     */
    SimCounters &workloadCounters() { return *counters_; }

    /**
     * Pre-size the packet arena (and each source queue) for at least
     * `packets` concurrent packets, so even the very first cycles of
     * a run allocate nothing. Optional: the pool grows on demand and
     * stops allocating once the in-flight high-water mark is reached.
     */
    void reservePackets(std::size_t packets);

    /** Flits currently anywhere in the network (drain check). */
    std::uint64_t flitsInFlight() const;

    /** Packets waiting in source queues. */
    std::uint64_t sourceQueueDepth() const;

    /** Routers visited by the last step(): queued routers plus those
     *  with an arrival due (calendar diagnostics). */
    std::size_t lastActiveRouters() const { return lastVisited_; }

    // --- fault injection (see src/sim/fault_injection.cc) ---

    /** True when an active FaultPlan armed the fault machinery. */
    bool faultsArmed() const { return faultsArmed_; }

    /** Fault events not yet fired (diagnostics). */
    std::size_t pendingFaultEvents() const
    {
        return faultEvents_.size() - faultCursor_;
    }

    /**
     * The currently-alive router graph: the topology minus failed
     * links/routers. Identical to topology().routers() until a fault
     * event fires (or when faults are not armed).
     */
    const Graph &liveTopology() const;

    /** Whether a router is currently alive (always true unarmed). */
    bool routerAlive(int router) const;

    /** Packet pool slots currently allocated (in flight + queued). */
    std::size_t packetsAlive() const { return pool_->liveCount(); }

    /**
     * Exhaustive structural audit for the test suite's invariant
     * layer (tests/support/sim_invariants.hh): per-VC credit
     * conservation across every channel, buffered-flit recounts,
     * central-buffer occupancy/reservation consistency, and the wake
     * calendar (queued and pending-source bits exact, every in-flight
     * flit and credit marked at its arrival slot). Returns false and
     * fills `err` on the first violation. Not a hot-path facility —
     * it walks the whole network.
     */
    bool auditInvariants(std::string &err) const;

    // --- measurement ---

    /** Reset measurement accumulators (start of the window). */
    void beginMeasurement();

    /** Latency from generation to tail ejection [cycles]. */
    const Accumulator &packetLatency() const { return latency_; }

    /** Latency from injection (head leaves source queue). */
    const Accumulator &networkLatency() const { return netLatency_; }

    /** Hops per delivered packet. */
    const Accumulator &hopCount() const { return hops_; }

    /** Flits delivered since beginMeasurement(). */
    std::uint64_t flitsDeliveredInWindow() const { return winFlits_; }

    /** Activity counters (whole run). */
    const SimCounters &counters() const { return *counters_; }

    /** Per-link utilization sample. */
    struct LinkUtilization
    {
        int routerA = 0;
        int routerB = 0;
        int wireLength = 0;
        double flitsPerCycle = 0.0;
    };

    /**
     * Flits sent per cycle on every directed link since construction
     * (utilization heat map; sorted by decreasing utilization).
     */
    std::vector<LinkUtilization> linkUtilization() const;

    // --- NetworkState (adaptive routing) ---
    int linkOccupancy(int router, int nextRouter) const override;
    int pathOccupancy(int srcRouter, int dstRouter) const override;

  private:
    // ShardedNetwork (src/sim/shard.hh) runs the same phases on
    // partition-owned router subsets across threads, with barriers
    // between phases; it drives pumpNode/collectArrivals/step/drain
    // and the delivery merge directly over these internals, with the
    // calendar detached.
    friend class ShardedNetwork;

    std::shared_ptr<const NocTopology> topo_;
    RouterConfig routerCfg_;
    LinkConfig linkCfg_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    /** The topology's path table, or the live one after a fault
     *  event (pathOccupancy, reachability checks). */
    std::shared_ptr<const ShortestPaths> paths_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<FlitChannel>> channels_;
    // Router woken by each channel's in-flight flits / credits.
    std::vector<int> chanFlitSink_;
    std::vector<int> chanCreditSink_;
    DeliveryCallback onDeliver_;
    DropCallback onDrop_;

    /** Per-node source queue of not-yet-flitized packets. */
    std::vector<RingBuffer<PacketHandle>> sourceQueues_;
    /** Local slot of each node within its router. */
    std::vector<int> localSlot_;

    Cycle now_ = 0;
    bool stateAttached_ = false;
    std::uint64_t nextPacketId_ = 1;
    // Heap-allocated so routers' pointers stay valid if the Network
    // is moved (factories return Network by value).
    std::unique_ptr<PacketPool> pool_ = std::make_unique<PacketPool>();
    std::unique_ptr<SimCounters> counters_ =
        std::make_unique<SimCounters>();
    std::unique_ptr<WakeCalendar> cal_; //!< built by build()
    bool calendarAttached_ = true; //!< false while sharded
    std::size_t lastVisited_ = 0;
    Accumulator latency_;
    Accumulator netLatency_;
    Accumulator hops_;
    std::uint64_t winFlits_ = 0;

    std::vector<PacketHandle> deliveredScratch_;

    // --- fault state (inert unless faultsArmed_) ---
    bool faultsArmed_ = false;
    std::vector<FaultEvent> faultEvents_; //!< resolved, cycle-sorted
    std::size_t faultCursor_ = 0;         //!< first unfired event
    std::vector<std::uint8_t> linkDead_;  //!< per channel: explicit
                                          //!< LinkDown in force
    std::vector<std::uint8_t> routerLive_;
    std::unique_ptr<Graph> liveGraph_;    //!< topo minus dead elements
    std::unordered_map<const FlitChannel *, std::size_t>
        chanIndexByPtr_; //!< purge: router port -> channel index

    void build(std::uint64_t seed, RoutingMode mode,
               const FaultPlan &faults);
    // Injection counters go through the parameter so sharded callers
    // can direct them into per-shard counters (serial callers pass
    // *counters_).
    int pumpNode(int node, SimCounters &counters);
    void processDelivered();
    int linkLatencyFor(int distance) const;

    /** Point every router at the calendar (or at nothing while a
     *  ShardedNetwork drives them); attaching rebuilds it. */
    void attachCalendar(bool attach);
    /** Recompute the calendar from the network's state: queued and
     *  pending-source bits, and a mark for every in-flight flit and
     *  credit at max(arrival, now). Rare path: after a fault event
     *  fired, and when a ShardedNetwork detaches. */
    void rebuildCalendar();
    bool auditCalendar(std::string &err) const;

    // Fault machinery (src/sim/fault_injection.cc).
    void armFaults(const FaultPlan &faults);
    bool channelAlive(std::size_t chan) const;
    void applyPendingFaults();
    void rebuildLiveGraph();
    void purgeAfterFaults();
    bool offerBlockedByFaults(int srcRouter, int dstRouter);
};

} // namespace snoc

#endif // SNOC_SIM_NETWORK_HH

/**
 * @file
 * The router model: a wormhole virtual-channel router with credit
 * flow control supporting both the paper's router architectures.
 *
 * Edge-buffer router (Section 5.1): multi-flit per-VC input buffers,
 * a 2-cycle pipeline, per-output-VC ownership from head grant to tail.
 *
 * Central-buffer router (Section 4, [Hassan & Yalamanchili]): one-flit
 * per-VC input staging; at a head flit the router first tries the
 * 2-cycle bypass path (free output VC and at least one credit); on
 * conflict it atomically reserves central-buffer space for the whole
 * packet (Section 4.3's condition 1) and streams the packet through
 * the CB, which has a single input and a single output port
 * (Section 4.2) and drains into the output as "part of the output
 * buffer of the corresponding port and VC". The extra CB hops make
 * the buffered path cost ~4 cycles, as in the paper.
 *
 * Port space: [0, numNetPorts) are network ports aligned with the
 * topology adjacency list; [numNetPorts, numNetPorts + localNodes)
 * are per-node local ports (injection in, ejection out).
 *
 * Hot-path contract: all queues are pre-reserved ring buffers sized
 * from RouterConfig, flits reference packets through PacketPool
 * handles, round-robin pointers that used to advance every cycle are
 * derived from `now` (so idle routers can be skipped bit-exactly by
 * the Network's active worklist), and steady-state operation performs
 * zero heap allocations.
 *
 * Occupancy and sweep bookkeeping is incremental, never recomputed:
 *
 *  - linkOccupancyToward() reads a per-neighbor counter updated at
 *    the exact two points credits change (consumed in sendFlit,
 *    returned in collectArrivals), making UGAL's queue probes O(1)
 *    instead of a port x VC scan with per-call depth recomputation;
 *  - a neighbor -> port index built at finalize() replaces the
 *    linear port scans of resolveOutPort();
 *  - per-port active-VC bitmasks (occupied input VCs; owned /
 *    requested / CB-backed output VCs) let routeHeads, the switch
 *    allocator, and the CB stages visit only VCs that can act, which
 *    matters most under UGAL's numVcs = 2 * diameter where almost
 *    every VC is empty at any instant. Mask iteration preserves the
 *    exact round-robin visit order, so arbitration is bit-identical
 *    to the dense sweep (enforced by the hotpath goldens); routers
 *    with more than 64 VCs fall back to the dense sweep.
 *
 * The fault purge rewrites router state wholesale and then calls
 * rebuildSweepState(); Network::auditInvariants() recounts every
 * incremental counter and mask against a from-scratch scan.
 */

#ifndef SNOC_SIM_ROUTER_HH
#define SNOC_SIM_ROUTER_HH

#include <cstdint>
#include <vector>

#include "common/ring_buffer.hh"
#include "sim/channel.hh"
#include "sim/counters.hh"
#include "sim/packet_pool.hh"
#include "sim/router_config.hh"
#include "sim/routing.hh"
#include "sim/types.hh"

namespace snoc {

/** One router instance. */
class Router
{
  public:
    /**
     * @param id        router id (graph vertex)
     * @param cfg       microarchitecture configuration
     * @param routing   shared routing algorithm
     * @param pool      shared packet arena (owned by the Network)
     * @param counters  shared activity counters
     */
    Router(int id, const RouterConfig &cfg, RoutingAlgorithm &routing,
           PacketPool &pool, SimCounters &counters);

    /**
     * Attach a bidirectional network port.
     *
     * @param out        channel carrying flits to the neighbor
     * @param in         channel carrying the neighbor's flits to us
     * @param neighbor   neighbor router id
     * @param wireLength Manhattan wire length in grid hops
     * @return the port index
     */
    int addNetworkPort(FlitChannel *out, FlitChannel *in, int neighbor,
                       int wireLength);

    /** Attach a local node (injection + ejection). Returns port. */
    int addLocalPort(int node);

    /**
     * Finish construction once all ports exist.
     * @param numRouters routers in the network (sizes the
     *        per-neighbor occupancy counters and port index)
     */
    void finalize(int numRouters);

    int id() const { return id_; }
    int numVcs() const { return numVcs_; }

    /** Free flit slots in the injection queue of a local port. */
    int injectionSpace(int localIndex) const;

    /** Enqueue one flit of a packet being injected. @pre space. */
    void injectFlit(int localIndex, Flit flit);

    /** Phase 1: absorb arriving flits and credits. Each channel's
     *  ring front is checked first, so a port with nothing arrived
     *  costs one branch instead of a drain call. */
    void collectArrivals(Cycle now);

    /** Phase 2: route, manage the CB, allocate the switch, send. */
    void step(Cycle now);

    /** Phase 3: drain ejection queues (1 flit/node/cycle); completed
     *  packets are appended to `delivered`. */
    void drainEjection(Cycle now, std::vector<PacketHandle> &delivered);

    /** Downstream buffer occupancy toward a neighbor (for UGAL).
     *  O(1): reads the incrementally-maintained per-neighbor
     *  counter. */
    int
    linkOccupancyToward(int neighbor) const
    {
        return occToward_[static_cast<std::size_t>(neighbor)];
    }

    /** Total flits buffered in this router, maintained incrementally
     *  (drain checks and the Network's active-router worklist). */
    int bufferedFlits() const { return bufferedFlits_; }

    /** Flits sent on the port toward the k-th adjacency entry. */
    std::uint64_t portFlitsSent(int port) const;

    int numNetPorts() const { return numNetPorts_; }

    /** Neighbor of a network port. */
    int portNeighbor(int port) const;

  private:
    // The Network implements the rare-path fault purge and the test
    // suite's invariant audit directly over router internals (see
    // src/sim/fault_injection.cc); the two are coupled by
    // construction anyway (the Network wires every port).
    friend class Network;
    // The batched sweep (src/sim/batch.cc) drives the same phases
    // through an arrival-exact wake calendar and needs the port
    // tables to schedule wakes from channel fronts.
    friend class BatchedNetwork;
    // The sharded loop (src/sim/shard.cc) repoints counters_ at
    // per-shard counters so worker threads never share a counter
    // cache line; everything else it drives is public phase API.
    friend class ShardedNetwork;

    /** Per-input-VC state. */
    struct InputVc
    {
        RingBuffer<Flit> buffer;
        int capacity = 1;
        // Current packet's routing state.
        bool routed = false;
        int outPort = -1;
        int outVc = 0;
        bool viaCb = false;   //!< diverted to the central buffer
        int flitsLeft = 0;    //!< flits of the current packet not yet
                              //!< forwarded out of this input VC
        PacketHandle curPkt = kInvalidPacket; //!< packet the routing
                              //!< state belongs to (fault purge needs
                              //!< it when the buffer has drained ahead
                              //!< of the tail)
    };

    /** An input port: network neighbor or local injection. */
    struct InputPort
    {
        FlitChannel *in = nullptr; //!< null for local ports
        int neighbor = -1;
        int node = -1;             //!< local port's node id
        std::vector<InputVc> vcs;  //!< single pseudo-VC for local
        int rrVc = 0;              //!< round-robin pointer
        std::uint64_t occMask = 0; //!< bit v: vcs[v].buffer non-empty
    };

    /** Ownership marker for an output VC. */
    struct VcOwner
    {
        enum class Kind { None, Input, Cb };
        Kind kind = Kind::None;
        int inputPort = -1;
        int inputVc = -1;
        PacketHandle pkt = kInvalidPacket; //!< packet holding the VC
                                           //!< (fault purge releases
                                           //!< ownership when it dies)
    };

    /** Per-output-VC state. */
    struct OutputVc
    {
        int credits = 0;
        VcOwner owner;
    };

    /** An output port: network neighbor or local ejection. */
    struct OutputPort
    {
        FlitChannel *out = nullptr; //!< null for local ports
        int neighbor = -1;
        int node = -1;
        int wireLength = 0;
        int downstreamDepth = 0; //!< cached inputBufferDepth +
                                 //!< elasticBonus of the link
        std::vector<OutputVc> vcs;
        int rrInput = 0; //!< round-robin over requesters
        int rrVc = 0;
        // Sweep masks: a VC can act this cycle only if one is set.
        std::uint64_t ownedMask = 0; //!< bit v: vcs[v].owner != None
        std::uint64_t reqMask = 0;   //!< bit v: reqCount_(port, v) > 0
        std::uint64_t cbMask = 0;    //!< bit v: cbQueue(port, v)
                                     //!< non-empty
        // Local ejection queue (flits), drained 1/cycle.
        RingBuffer<Flit> ejectionQueue;
        int ejectionCapacity = 0;
        std::uint64_t flitsSent = 0; //!< utilization instrumentation
    };

    /** A central-buffer queue: flits bound for one (port, vc). */
    struct CbQueue
    {
        RingBuffer<Flit> flits;
        // The packet currently being appended (atomicity guard);
        // kInvalidPacket when the last append was a tail flit.
        PacketHandle appender = kInvalidPacket;
    };

    int id_;
    RouterConfig cfg_;
    RoutingAlgorithm *routing_;
    PacketPool *pool_;
    SimCounters *counters_;
    int numVcs_;
    int numNetPorts_ = 0;
    bool masksEnabled_ = true; //!< numVcs_ fits one mask word

    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    std::vector<int> localPorts_; //!< port index per local node slot

    // Per-neighbor occupancy: occupied downstream slots (depth -
    // credits summed over VCs and parallel ports), updated wherever
    // credits are consumed or returned. Indexed by neighbor router
    // id; zero for non-neighbors. Dense-by-router-id is a deliberate
    // space-for-time trade: UGAL probes this on every injection, so
    // the lookup must be a single array read. Cost is O(numRouters)
    // ints per router (~0.5 MB total at today's <= ~340-router
    // topologies); revisit with a compact neighbor-slot layout if
    // multi-thousand-router graphs become a target.
    std::vector<int> occToward_;

    // Neighbor -> ports index (built in finalize): ports toward
    // neighbor v are nbrPorts_[nbrFirst_[v] .. +nbrCount_[v]), in
    // ascending port order, matching the old linear-scan pick.
    std::vector<int> nbrFirst_;
    std::vector<int> nbrCount_;
    std::vector<int> nbrPorts_;

    // Requester refcounts per (output port, VC): input VCs currently
    // routed (bypass path, not via the CB) toward that output VC.
    // reqMask mirrors count > 0.
    std::vector<std::uint16_t> reqCount_;

    // Central buffer state.
    int cbCapacity_ = 0;
    int cbReserved_ = 0;               //!< slots reserved for packets
    int cbOccupied_ = 0;               //!< flits physically present
    std::vector<CbQueue> cbQueues_;    //!< indexed port * numVcs + vc

    // Incremental count of flits buffered anywhere in this router
    // (input VCs + central buffer + ejection queues).
    int bufferedFlits_ = 0;

    // Per-cycle scratch: which input ports / CB already moved a flit.
    std::vector<bool> inputBusy_;
    bool cbOutputBusy_ = false;
    bool cbInputBusy_ = false;

    // Reused arrival-drain scratch (cleared per port per cycle).
    std::vector<Flit> flitScratch_;
    std::vector<int> creditScratch_;

    void routeHeads(Cycle now);
    void cbDivert(Cycle now);
    void cbIntake(Cycle now);
    bool cbIntakeFrom(InputPort &ip, int p, int v, Cycle now);
    void switchAllocate(Cycle now);
    bool tryGrantOutput(int port, Cycle now);
    bool tryGrantOutputVc(int port, int vc, Cycle now);
    void sendFlit(int port, int vc, Flit flit, Cycle now,
                  bool fromCb);
    int resolveOutPort(int nextRouter, int vcForTieBreak) const;
    CbQueue &cbQueue(int port, int vc);

    /** Recompute every sweep mask and requester refcount from
     *  scratch (rare path: the fault purge rewrites queues and
     *  routing state wholesale). occToward_ needs no rebuild — the
     *  purge returns credits over the normal credit wires. */
    void rebuildSweepState();

    // --- incremental mask maintenance (no-ops when masks are
    //     disabled by a > 64-VC configuration) ---

    void
    markVcOccupied(InputPort &ip, int vc)
    {
        if (masksEnabled_)
            ip.occMask |= std::uint64_t{1} << vc;
    }

    void
    markVcDrained(InputPort &ip, int vc)
    {
        if (masksEnabled_ &&
            ip.vcs[static_cast<std::size_t>(vc)].buffer.empty())
            ip.occMask &= ~(std::uint64_t{1} << vc);
    }

    void
    addRequest(int port, int vc)
    {
        if (!masksEnabled_)
            return;
        std::size_t i = static_cast<std::size_t>(port) *
                            static_cast<std::size_t>(numVcs_) +
                        static_cast<std::size_t>(vc);
        if (reqCount_[i]++ == 0)
            outputs_[static_cast<std::size_t>(port)].reqMask |=
                std::uint64_t{1} << vc;
    }

    void
    dropRequest(int port, int vc)
    {
        if (!masksEnabled_)
            return;
        std::size_t i = static_cast<std::size_t>(port) *
                            static_cast<std::size_t>(numVcs_) +
                        static_cast<std::size_t>(vc);
        if (--reqCount_[i] == 0)
            outputs_[static_cast<std::size_t>(port)].reqMask &=
                ~(std::uint64_t{1} << vc);
    }
};

} // namespace snoc

#endif // SNOC_SIM_ROUTER_HH

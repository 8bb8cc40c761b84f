/**
 * @file
 * Activity and delivery counters collected during simulation; the
 * dynamic-power model converts activity counts into energy.
 */

#ifndef SNOC_SIM_COUNTERS_HH
#define SNOC_SIM_COUNTERS_HH

#include <cstdint>
#include <iterator>

namespace snoc {

/** Raw event counts over a run (or measurement window). */
struct SimCounters
{
    std::uint64_t bufferWrites = 0;     //!< flits written to buffers
    std::uint64_t bufferReads = 0;      //!< flits read from buffers
    std::uint64_t cbWrites = 0;         //!< flits entering a CB
    std::uint64_t cbReads = 0;          //!< flits leaving a CB
    std::uint64_t crossbarTraversals = 0;
    std::uint64_t linkFlitHops = 0;     //!< flits x wire length [hops]
    std::uint64_t flitsInjected = 0;
    std::uint64_t flitsDelivered = 0;
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsDelivered = 0;

    // --- fault-injection group (all zero on fault-free runs) ---
    // Conservation contracts (see tests/support/sim_invariants.hh):
    //   flitsInjected == flitsDelivered + flitsDropped + in-flight
    //   packetsInjected == packetsDelivered + packetsDropped
    //                      + packetsUnroutable + in-flight
    // packetsRefused covers source-side discards of packets that were
    // never injected, so it sits outside both balances.
    std::uint64_t faultEvents = 0;       //!< fault/repair events fired
    std::uint64_t flitsDropped = 0;      //!< flits purged by faults
    std::uint64_t packetsDropped = 0;    //!< in-flight packets cut by a
                                         //!< failed link/router
    std::uint64_t packetsUnroutable = 0; //!< in-flight packets whose
                                         //!< destination became
                                         //!< disconnected
    std::uint64_t packetsRefused = 0;    //!< source-side drops: dead
                                         //!< source router or
                                         //!< disconnected pair at
                                         //!< offer/injection time
    std::uint64_t packetsRerouted = 0;   //!< committed detours replanned
                                         //!< around a fault

    // --- closed-loop workload group (src/workload/; all zero for
    // open-loop traffic, so fault-free/open-loop runs stay
    // bit-identical to builds that predate the group) ---
    // Conservation contract (tests/support/sim_invariants.hh):
    //   clRequestsIssued == clRepliesMatched + clSlotsPurged
    //                       + live window slots
    std::uint64_t clRequestsIssued = 0;  //!< request chains started
    std::uint64_t clRepliesMatched = 0;  //!< replies closing a chain
    std::uint64_t clReqLatencySum = 0;   //!< sum of request->reply
                                         //!< latencies [cycles]
    std::uint64_t clWindowOccupancy = 0; //!< sum over node-cycles of
                                         //!< outstanding requests
    std::uint64_t clStallNodeCycles = 0; //!< node-cycles spent with a
                                         //!< full window (no inject)
    std::uint64_t clSlotsPurged = 0;     //!< chains cut by a fault
                                         //!< drop; the waiting slot
                                         //!< was freed, not leaked
    std::uint64_t clPhasesCompleted = 0; //!< collective phases done

    void
    reset()
    {
        *this = SimCounters();
    }

    /** One counter's name (its serialized key) and member. */
    struct Field
    {
        const char *name;
        std::uint64_t SimCounters::*member;
    };

    /** Every counter, in declaration order: the single list that
     *  `+=`, `-`, serialization and the tests iterate. A counter
     *  declared above but missing here fails the size check below. */
    static constexpr Field kFields[] = {
        {"bufferWrites", &SimCounters::bufferWrites},
        {"bufferReads", &SimCounters::bufferReads},
        {"cbWrites", &SimCounters::cbWrites},
        {"cbReads", &SimCounters::cbReads},
        {"crossbarTraversals", &SimCounters::crossbarTraversals},
        {"linkFlitHops", &SimCounters::linkFlitHops},
        {"flitsInjected", &SimCounters::flitsInjected},
        {"flitsDelivered", &SimCounters::flitsDelivered},
        {"packetsInjected", &SimCounters::packetsInjected},
        {"packetsDelivered", &SimCounters::packetsDelivered},
        {"faultEvents", &SimCounters::faultEvents},
        {"flitsDropped", &SimCounters::flitsDropped},
        {"packetsDropped", &SimCounters::packetsDropped},
        {"packetsUnroutable", &SimCounters::packetsUnroutable},
        {"packetsRefused", &SimCounters::packetsRefused},
        {"packetsRerouted", &SimCounters::packetsRerouted},
        {"clRequestsIssued", &SimCounters::clRequestsIssued},
        {"clRepliesMatched", &SimCounters::clRepliesMatched},
        {"clReqLatencySum", &SimCounters::clReqLatencySum},
        {"clWindowOccupancy", &SimCounters::clWindowOccupancy},
        {"clStallNodeCycles", &SimCounters::clStallNodeCycles},
        {"clSlotsPurged", &SimCounters::clSlotsPurged},
        {"clPhasesCompleted", &SimCounters::clPhasesCompleted},
    };

    /** Fold another window in (the sharded loop merges per-shard
     *  counters every cycle; every field is a commutative sum). */
    SimCounters &
    operator+=(const SimCounters &o)
    {
        for (const Field &f : kFields)
            this->*f.member += o.*f.member;
        return *this;
    }

    bool operator==(const SimCounters &) const = default;

    /** Window counters: activity since an earlier snapshot. */
    friend SimCounters
    operator-(const SimCounters &a, const SimCounters &b)
    {
        SimCounters d;
        for (const Field &f : kFields)
            d.*f.member = a.*f.member - b.*f.member;
        return d;
    }
};

static_assert(sizeof(SimCounters) ==
                  std::size(SimCounters::kFields) *
                      sizeof(std::uint64_t),
              "every SimCounters field must be listed in kFields");

} // namespace snoc

#endif // SNOC_SIM_COUNTERS_HH

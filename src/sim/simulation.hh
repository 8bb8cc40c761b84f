/**
 * @file
 * Simulation driver: runs a traffic source against a Network with
 * the paper's warmup / measurement / drain methodology and reports
 * latency and throughput.
 */

#ifndef SNOC_SIM_SIMULATION_HH
#define SNOC_SIM_SIMULATION_HH

#include <functional>

#include "sim/network.hh"

namespace snoc {

/**
 * A traffic source: called once per cycle; offers packets into the
 * network for the cycle. Return false to indicate the source is
 * exhausted (trace end); synthetic sources always return true.
 */
using TrafficSource = std::function<bool(Network &net, Cycle cycle)>;

/** Result of one simulation run. */
struct SimResult
{
    double avgPacketLatency = 0.0;  //!< cycles, generation -> ejection
    double avgNetworkLatency = 0.0; //!< cycles, injection -> ejection
    double p99PacketLatencyBound = 0.0; //!< mean + 3 stddev proxy
    double avgHops = 0.0;
    double throughput = 0.0;        //!< flits/node/cycle delivered
    double offeredLoad = 0.0;       //!< flits/node/cycle offered
    std::uint64_t packetsDelivered = 0;
    bool stable = true;             //!< delivered kept up with offered
    SimCounters counters;           //!< measurement-window activity
    Cycle cyclesRun = 0;

    bool operator==(const SimResult &) const = default;
};

/** Run configuration. */
struct SimConfig
{
    Cycle warmupCycles = 2000;
    Cycle measureCycles = 10000;
    Cycle drainCycleLimit = 50000;  //!< extra cycles to wait for drain
    bool drain = false;             //!< run until in-flight == 0

    bool operator==(const SimConfig &) const = default;
};

/**
 * The warmup -> measure -> drain schedule of one run, written once
 * for every engine. The serial, sharded and batched drivers differ
 * only in how a cycle is stepped:
 *
 *     RunSchedule run(net, source, cfg);
 *     while (run.next())
 *         net.step();   // sn.step(), or bn.step(1 << lane) per lane
 *     SimResult r = run.result();
 *
 * Phases, with `alive` the source's last return value:
 *
 *     Warmup   while phaseCycle < warmupCycles and alive
 *     Measure  while phaseCycle < measureCycles and alive
 *     Drain    (cfg.drain only) while (alive, flits in flight or
 *              source queues non-empty) and phaseCycle < drainCycleLimit
 *     Done
 *
 * Entering Measure calls Network::beginMeasurement and snapshots the
 * counters; leaving it snapshots them again, before any drain cycle,
 * so drain activity never leaks into the window counters.
 */
class RunSchedule
{
  public:
    /** `net` and `source` are held by reference and must outlive
     *  the schedule. */
    RunSchedule(Network &net, const TrafficSource &source,
                const SimConfig &cfg);
    RunSchedule(Network &, TrafficSource &&, const SimConfig &) = delete;

    /**
     * Settle the phase transitions due before the coming cycle and
     * call the source for it (always in warmup and measure, only
     * while alive in drain). Returns true when the caller must step
     * the network exactly once before calling next() again; false
     * once the run is over (and on every later call).
     */
    bool next();

    /** The run's measurement-window result (call once next() has
     *  returned false). */
    SimResult result() const;

  private:
    enum class Phase { Warmup, Measure, Drain, Done };

    /** Run the transitions; true when the current phase wants a
     *  step this cycle. */
    bool advance();

    Network &net_;
    const TrafficSource &source_;
    SimConfig cfg_;
    Phase phase_ = Phase::Warmup;
    bool alive_ = true;
    bool stepping_ = false; //!< the last next() requested a step
    Cycle phaseCycle_ = 0;  //!< completed cycles in the current phase
    Cycle measured_ = 0;
    SimCounters before_;    //!< counters at measure start
    SimCounters windowEnd_; //!< counters at measure end, pre-drain
    std::uint64_t sourceBacklog_ = 0;
};

/** Drive `source` against `net` and measure. */
SimResult runSimulation(Network &net, const TrafficSource &source,
                        const SimConfig &cfg);

/** One point of a load sweep. */
struct LoadPoint
{
    double load = 0.0;  //!< offered flits/node/cycle
    SimResult result;
};

} // namespace snoc

#endif // SNOC_SIM_SIMULATION_HH

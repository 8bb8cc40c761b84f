#include "sim/simulation.hh"

#include <algorithm>

#include "common/log.hh"

namespace snoc {

RunSchedule::RunSchedule(Network &net, const TrafficSource &source,
                         const SimConfig &cfg)
    : net_(net), source_(source), cfg_(cfg)
{
}

bool
RunSchedule::next()
{
    if (stepping_)
        ++phaseCycle_;
    stepping_ = advance();
    // Warmup and measure call the source every cycle (advance()
    // already checked `alive`); drain calls it only while alive, so
    // trace replies generated by deliveries are still offered.
    if (stepping_ && (phase_ != Phase::Drain || alive_))
        alive_ = source_(net_, net_.now());
    return stepping_;
}

bool
RunSchedule::advance()
{
    for (;;) {
        switch (phase_) {
        case Phase::Warmup:
            if (phaseCycle_ < cfg_.warmupCycles && alive_)
                return true;
            net_.beginMeasurement();
            before_ = net_.counters();
            phase_ = Phase::Measure;
            phaseCycle_ = 0;
            break;
        case Phase::Measure:
            if (phaseCycle_ < cfg_.measureCycles && alive_)
                return true;
            measured_ = phaseCycle_;
            // Offered load includes what is still waiting in source
            // queues (overload shows up here).
            sourceBacklog_ = net_.sourceQueueDepth();
            // Snapshot window activity here, before the drain loop:
            // drain cycles keep writing buffers, traversing crossbars
            // and hopping links, but cyclesRun counts only measured
            // cycles, so counting drain events would overstate every
            // per-cycle energy metric.
            windowEnd_ = net_.counters();
            phase_ = cfg_.drain ? Phase::Drain : Phase::Done;
            phaseCycle_ = 0;
            break;
        case Phase::Drain:
            if ((alive_ || net_.flitsInFlight() > 0 ||
                 net_.sourceQueueDepth() > 0) &&
                phaseCycle_ < cfg_.drainCycleLimit)
                return true;
            phase_ = Phase::Done;
            break;
        case Phase::Done:
            return false;
        }
    }
}

SimResult
RunSchedule::result() const
{
    SNOC_ASSERT(phase_ == Phase::Done, "result() before the run ended");
    SimResult r;
    r.cyclesRun = measured_;
    r.avgPacketLatency = net_.packetLatency().mean();
    r.avgNetworkLatency = net_.networkLatency().mean();
    r.p99PacketLatencyBound = net_.packetLatency().mean() +
                              3.0 * net_.packetLatency().stddev();
    r.avgHops = net_.hopCount().mean();
    r.packetsDelivered = net_.packetLatency().count();
    double nodes = static_cast<double>(net_.topology().numNodes());
    double cycles = std::max<double>(1.0, static_cast<double>(measured_));
    r.throughput = static_cast<double>(net_.flitsDeliveredInWindow()) /
                   (nodes * cycles);
    // Window activity only: drives the dynamic-power model.
    r.counters = windowEnd_ - before_;
    std::uint64_t offered = r.counters.flitsInjected;
    r.offeredLoad = static_cast<double>(offered) / (nodes * cycles);
    // An open-loop run is unstable when the source backlog grew to a
    // sizable fraction of the measurement window's traffic.
    r.stable = static_cast<double>(sourceBacklog_) * 6.0 <
               std::max<double>(1.0, static_cast<double>(offered));
    // A closed-loop source never grows backlog — it stalls instead.
    // When the window recorded closed-loop activity, the run is
    // stable while less than half of all node-cycles were spent with
    // a full window.
    const SimCounters &w = r.counters;
    if (w.clRequestsIssued != 0 || w.clStallNodeCycles != 0 ||
        w.clWindowOccupancy != 0)
        r.stable = static_cast<double>(w.clStallNodeCycles) * 2.0 <
                   nodes * cycles;
    return r;
}

SimResult
runSimulation(Network &net, const TrafficSource &source,
              const SimConfig &cfg)
{
    RunSchedule run(net, source, cfg);
    while (run.next())
        net.step();
    return run.result();
}

} // namespace snoc

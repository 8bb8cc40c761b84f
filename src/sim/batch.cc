#include "sim/batch.hh"

#include <bit>

#include "common/log.hh"

namespace snoc {

BatchedNetwork::BatchedNetwork(std::shared_ptr<const NocTopology> topo,
                               const RouterConfig &router,
                               const LinkConfig &link, RoutingMode mode,
                               const std::vector<LaneSpec> &specs)
{
    SNOC_ASSERT(topo != nullptr, "null shared topology");
    SNOC_ASSERT(!specs.empty(), "batch needs at least one lane");
    SNOC_ASSERT(specs.size() <= static_cast<std::size_t>(kMaxLanes),
                "too many lanes for one mask word");

    lanes_.reserve(specs.size());
    for (const LaneSpec &spec : specs)
        lanes_.push_back(std::make_unique<Network>(
            topo, router, link, mode, spec.routingSeed, spec.faults));
}

void
BatchedNetwork::reservePackets(std::size_t packets)
{
    for (auto &n : lanes_)
        n->reservePackets(packets);
}

void
BatchedNetwork::step(std::uint64_t laneMask)
{
    laneMask &= allLanes();
    if (laneMask == 0)
        return;
    // Lanes never interact (all sharing is read-only structure), so
    // each runs its complete cycle before the next starts.
    Cycle now =
        lanes_[static_cast<std::size_t>(std::countr_zero(laneMask))]
            ->now();
    lastVisited_ = 0;
    for (std::uint64_t m = laneMask; m; m &= m - 1) {
        Network &n = *lanes_[static_cast<std::size_t>(
            std::countr_zero(m))];
        SNOC_ASSERT(n.now() == now, "batched lanes out of sync");
        n.step();
        lastVisited_ += n.lastActiveRouters();
    }
}

bool
BatchedNetwork::auditInvariants(std::string &err) const
{
    for (int l = 0; l < numLanes(); ++l) {
        if (!lane(l).auditInvariants(err)) {
            err = "lane " + std::to_string(l) + ": " + err;
            return false;
        }
    }
    return true;
}

// --- batched run driver ----------------------------------------------------

std::vector<SimResult>
runBatchedSimulation(BatchedNetwork &bn,
                     const std::vector<BatchLaneSim> &lanes)
{
    SNOC_ASSERT(static_cast<int>(lanes.size()) == bn.numLanes(),
                "one schedule per lane");
    // Lanes never interact, so each runs its whole schedule before
    // the next starts: one lane's routers, channels and queues stay
    // cache-resident instead of every lane's state streaming through
    // the cache on every cycle.
    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (int l = 0; l < bn.numLanes(); ++l) {
        const BatchLaneSim &lane = lanes[static_cast<std::size_t>(l)];
        RunSchedule run(bn.lane(l), lane.source, lane.cfg);
        while (run.next())
            bn.step(std::uint64_t{1} << l);
        results.push_back(run.result());
    }
    return results;
}

} // namespace snoc

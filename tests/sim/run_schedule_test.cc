/**
 * @file
 * Cross-engine edge schedules: the serial, batched and sharded
 * drivers share one RunSchedule (sim/simulation.hh), so the schedules
 * that end a phase early must give bitwise-identical SimResults on
 * every engine:
 *
 *  - the source is exhausted during warmup (empty window);
 *  - the source is exhausted mid-measure, with drain on;
 *  - the drain phase stops at drainCycleLimit with traffic left.
 *
 * Each schedule runs through runSimulation, a 1-lane
 * runBatchedSimulation and a 2-shard runShardedSimulation, and all
 * three together as lanes of one batch (lanes that finish early
 * freeze while the others keep stepping).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/batch.hh"
#include "sim/shard.hh"
#include "tests/support/sim_results.hh"
#include "topo/table4.hh"

namespace snoc {
namespace {

using testsupport::expectSameResult;

constexpr const char *kTopo = "sn_54";
constexpr const char *kRouter = "EB-Var";

struct EdgeSchedule
{
    std::string name;
    int activeCycles;  //!< source calls that offer before it ends
    int packetsPerCycle;
    SimConfig cfg;
};

/** Offers `packetsPerCycle` random packets for `activeCycles` calls,
 *  then reports itself exhausted. Fresh state per call. */
TrafficSource
budgetSource(const EdgeSchedule &e)
{
    auto rng = std::make_shared<Rng>(0x5c4ed);
    auto left = std::make_shared<int>(e.activeCycles);
    int perCycle = e.packetsPerCycle;
    return [rng, left, perCycle](Network &net, Cycle) -> bool {
        if (*left <= 0)
            return false;
        --*left;
        auto nodes =
            static_cast<std::uint64_t>(net.topology().numNodes());
        for (int k = 0; k < perCycle; ++k) {
            int src = static_cast<int>(rng->nextUint(nodes));
            int dst = static_cast<int>(rng->nextUint(nodes));
            if (src != dst)
                net.offerPacket(src, dst,
                                1 + static_cast<int>(rng->nextUint(6)));
        }
        return *left > 0;
    };
}

std::vector<EdgeSchedule>
edgeSchedules()
{
    std::vector<EdgeSchedule> out;
    EdgeSchedule warmup{"exhausted_in_warmup", 5, 3, {}};
    warmup.cfg.warmupCycles = 50;
    warmup.cfg.measureCycles = 1000;
    warmup.cfg.drain = true;
    out.push_back(warmup);

    EdgeSchedule measure{"exhausted_mid_measure", 300, 3, {}};
    measure.cfg.warmupCycles = 100;
    measure.cfg.measureCycles = 1000;
    measure.cfg.drain = true;
    out.push_back(measure);

    EdgeSchedule limit{"drain_limit_reached", 1 << 30, 40, {}};
    limit.cfg.warmupCycles = 100;
    limit.cfg.measureCycles = 300;
    limit.cfg.drain = true;
    limit.cfg.drainCycleLimit = 25;
    out.push_back(limit);
    return out;
}

std::shared_ptr<const NocTopology>
topology()
{
    return std::make_shared<const NocTopology>(makeNamedTopology(kTopo));
}

SimResult
runSerial(const EdgeSchedule &e, std::uint64_t *leftOver = nullptr)
{
    Network net(topology(), RouterConfig::named(kRouter));
    SimResult r = runSimulation(net, budgetSource(e), e.cfg);
    if (leftOver)
        *leftOver = net.flitsInFlight() + net.sourceQueueDepth();
    return r;
}

std::vector<SimResult>
runBatched(const std::vector<EdgeSchedule> &es)
{
    std::vector<BatchedNetwork::LaneSpec> specs(es.size());
    BatchedNetwork bn(topology(), RouterConfig::named(kRouter),
                      LinkConfig{}, RoutingMode::Minimal, specs);
    std::vector<BatchLaneSim> lanes;
    for (const EdgeSchedule &e : es)
        lanes.push_back({budgetSource(e), e.cfg});
    return runBatchedSimulation(bn, lanes);
}

SimResult
runSharded(const EdgeSchedule &e)
{
    Network net(topology(), RouterConfig::named(kRouter));
    ShardedNetwork sn(net, 2);
    return runShardedSimulation(sn, budgetSource(e), e.cfg);
}

TEST(RunSchedule, SchedulesHitTheirEdge)
{
    std::vector<EdgeSchedule> es = edgeSchedules();
    SimResult warmup = runSerial(es[0]);
    EXPECT_EQ(warmup.cyclesRun, 0u);
    EXPECT_EQ(warmup.counters, SimCounters{});

    std::uint64_t left = 0;
    SimResult measure = runSerial(es[1], &left);
    EXPECT_GT(measure.cyclesRun, 0u);
    EXPECT_LT(measure.cyclesRun, es[1].cfg.measureCycles);
    EXPECT_EQ(left, 0u) << "drain must empty the network";

    SimResult limit = runSerial(es[2], &left);
    EXPECT_EQ(limit.cyclesRun, es[2].cfg.measureCycles);
    EXPECT_GT(left, 0u) << "the drain limit must cut the drain short";
}

TEST(RunSchedule, EnginesAgreeOnEdgeSchedules)
{
    for (const EdgeSchedule &e : edgeSchedules()) {
        SimResult serial = runSerial(e);
        expectSameResult(serial, runBatched({e})[0], e.name + " batched");
        expectSameResult(serial, runSharded(e), e.name + " sharded");
    }
}

TEST(RunSchedule, MixedLanesFinishIndependently)
{
    std::vector<EdgeSchedule> es = edgeSchedules();
    std::vector<SimResult> batched = runBatched(es);
    ASSERT_EQ(batched.size(), es.size());
    for (std::size_t l = 0; l < es.size(); ++l)
        expectSameResult(runSerial(es[l]), batched[l],
                         es[l].name + " lane " + std::to_string(l));
}

} // namespace
} // namespace snoc

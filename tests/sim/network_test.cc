/**
 * @file
 * Simulator correctness tests: delivery, latency sanity, stability,
 * deadlock freedom under adversarial saturation, architecture
 * variants (edge buffers, central buffers, elastic links, SMART), and
 * routers with more network ports than one calendar mask word holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "sim/batch.hh"
#include "sim/network.hh"
#include "sim/shard.hh"
#include "sim/simulation.hh"
#include "tests/support/sim_invariants.hh"
#include "tests/support/sim_results.hh"
#include "topo/table4.hh"
#include "traffic/synthetic.hh"

namespace snoc {
namespace {

using testsupport::SimInvariantChecker;

Network
makeNet(const std::string &topoId, const std::string &routerCfg,
        int hopsPerCycle = 1, RoutingMode mode = RoutingMode::Minimal)
{
    NocTopology topo = makeNamedTopology(topoId);
    RouterConfig rc = RouterConfig::named(routerCfg);
    LinkConfig lc;
    lc.hopsPerCycle = hopsPerCycle;
    return Network(topo, rc, lc, mode);
}

SimResult
runLoad(Network &net, PatternKind pattern, double load,
        Cycle warmup = 1000, Cycle measure = 3000)
{
    auto pat = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(pattern, net.topology()));
    SyntheticConfig sc;
    sc.load = load;
    TrafficSource src = makeSyntheticSource(pat, sc);
    SimConfig cfg;
    cfg.warmupCycles = warmup;
    cfg.measureCycles = measure;
    return runSimulation(net, src, cfg);
}

TEST(Network, SingleParcelTraversesSn200)
{
    Network net = makeNet("sn_subgr_200", "EB-Var");
    SimInvariantChecker checker(net);
    net.offerPacket(0, 199, 6);
    bool delivered = false;
    checker.setDeliveryCallback([&](const Packet &p) {
        delivered = true;
        EXPECT_EQ(p.srcNode, 0);
        EXPECT_EQ(p.dstNode, 199);
        // Diameter 2: at most 2 router-to-router hops, so hops <= 3
        // counting the source router's output stage.
        EXPECT_LE(p.hops, 3);
    });
    for (int c = 0; c < 300 && !delivered; ++c)
        net.step();
    EXPECT_TRUE(delivered);
    checker.checkQuiescent("single parcel");
}

TEST(Network, ZeroLoadLatencyIsNearAnalytic)
{
    // At near-zero load latency approaches the contention-free path
    // cost: per hop ~(pipeline + link) plus serialization.
    Network net = makeNet("sn_subgr_200", "EB-Var");
    SimResult res = runLoad(net, PatternKind::Random, 0.008);
    ASSERT_GT(res.packetsDelivered, 50u);
    EXPECT_GT(res.avgPacketLatency, 8.0);
    EXPECT_LT(res.avgPacketLatency, 45.0);
    EXPECT_TRUE(res.stable);
    // Diameter-2 network: average router hops is below 3.
    EXPECT_LE(res.avgHops, 3.0);
}

class AllTopologiesDeliver
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllTopologiesDeliver, RandomLowLoad)
{
    Network net = makeNet(GetParam(), "EB-Var");
    SimInvariantChecker checker(net);
    SimResult res = runLoad(net, PatternKind::Random, 0.02);
    EXPECT_GT(res.packetsDelivered, 0u) << GetParam();
    EXPECT_TRUE(res.stable) << GetParam();
    // Delivered load tracks offered load at this level.
    EXPECT_NEAR(res.throughput, res.offeredLoad,
                0.4 * res.offeredLoad)
        << GetParam();
    checker.check(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Table4, AllTopologiesDeliver,
                         ::testing::Values("sn_basic_200",
                                           "sn_subgr_200", "sn_gr_200",
                                           "sn_rand_200", "t2d4", "cm4",
                                           "fbf4", "pfbf4", "t2d3",
                                           "cm3", "fbf3", "pfbf3",
                                           "sn_54", "clos_200",
                                           "df_200"));

class AllPatternsDeliver : public ::testing::TestWithParam<PatternKind>
{
};

TEST_P(AllPatternsDeliver, OnSn200)
{
    Network net = makeNet("sn_subgr_200", "EB-Var");
    SimResult res = runLoad(net, GetParam(), 0.02);
    EXPECT_GT(res.packetsDelivered, 0u);
    EXPECT_TRUE(res.stable);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AllPatternsDeliver,
    ::testing::Values(PatternKind::Random, PatternKind::Shuffle,
                      PatternKind::BitReversal,
                      PatternKind::Adversarial1,
                      PatternKind::Adversarial2,
                      PatternKind::Asymmetric));

TEST(Network, DeadlockFreeUnderAdversarialSaturation)
{
    // Saturating ADV1 for a long window: the network must keep
    // delivering (forward progress), the core deadlock-freedom claim
    // of Section 4.3.
    for (const char *cfg : {"EB-Small", "CBR-6", "EL-Links"}) {
        Network net = makeNet("sn_subgr_200", cfg);
        SimResult res =
            runLoad(net, PatternKind::Adversarial1, 0.9, 2000, 6000);
        EXPECT_GT(res.packetsDelivered, 500u) << cfg;
        EXPECT_GT(res.throughput, 0.01) << cfg;
    }
}

TEST(Network, DeadlockFreeBaselines)
{
    for (const char *id : {"t2d4", "cm4", "fbf4", "pfbf4"}) {
        Network net = makeNet(id, "EB-Small");
        SimResult res =
            runLoad(net, PatternKind::Adversarial1, 0.9, 2000, 6000);
        EXPECT_GT(res.packetsDelivered, 300u) << id;
    }
}

TEST(Network, DrainsCompletely)
{
    Network net = makeNet("sn_subgr_200", "CBR-20");
    SimInvariantChecker checker(net);
    auto pat = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    SyntheticConfig sc;
    sc.load = 0.2;
    TrafficSource src = makeSyntheticSource(pat, sc);
    for (int c = 0; c < 2000; ++c) {
        src(net, net.now());
        net.step();
    }
    checker.check("loaded CBR-20");
    // Stop injecting; everything in flight must eventually eject.
    for (int c = 0; c < 20000 && net.flitsInFlight() +
                                     net.sourceQueueDepth() >
                                 0;
         ++c)
        net.step();
    EXPECT_EQ(net.counters().flitsInjected,
              net.counters().flitsDelivered);
    checker.checkQuiescent("after drain");
}

TEST(Network, SmartLinksReduceLatency)
{
    Network plain = makeNet("sn_subgr_200", "EB-Var", 1);
    Network smart = makeNet("sn_subgr_200", "EB-Var", 9);
    SimResult rp = runLoad(plain, PatternKind::Random, 0.05);
    SimResult rs = runLoad(smart, PatternKind::Random, 0.05);
    EXPECT_LT(rs.avgPacketLatency, rp.avgPacketLatency);
}

TEST(Network, CbrBypassMatchesEdgeLatencyAtLowLoad)
{
    // At low load CBR takes the 2-cycle bypass path, so its latency
    // is comparable to the edge-buffer router's.
    Network eb = makeNet("sn_subgr_200", "EB-Var");
    Network cbr = makeNet("sn_subgr_200", "CBR-20");
    SimResult re = runLoad(eb, PatternKind::Random, 0.01);
    SimResult rc = runLoad(cbr, PatternKind::Random, 0.01);
    ASSERT_GT(re.packetsDelivered, 0u);
    ASSERT_GT(rc.packetsDelivered, 0u);
    EXPECT_NEAR(rc.avgPacketLatency, re.avgPacketLatency,
                0.5 * re.avgPacketLatency);
}

TEST(Network, ThroughputSaturatesBelowOfferedOverload)
{
    Network net = makeNet("t2d4", "EB-Small");
    SimResult res = runLoad(net, PatternKind::Random, 0.9, 2000, 4000);
    // A 4-radix torus cannot deliver 0.9 flits/node/cycle random.
    EXPECT_LT(res.throughput, 0.85);
    EXPECT_FALSE(res.stable);
}

TEST(Network, HigherLoadHigherLatency)
{
    Network low = makeNet("sn_subgr_200", "EB-Var");
    Network high = makeNet("sn_subgr_200", "EB-Var");
    SimResult rl = runLoad(low, PatternKind::Random, 0.02);
    SimResult rh = runLoad(high, PatternKind::Random, 0.30);
    EXPECT_GT(rh.avgPacketLatency, rl.avgPacketLatency);
}

TEST(Network, AdaptiveRoutingModesRun)
{
    for (RoutingMode mode :
         {RoutingMode::UgalL, RoutingMode::UgalG}) {
        Network net = makeNet("sn_subgr_200", "EB-Small", 1, mode);
        SimResult res = runLoad(net, PatternKind::Asymmetric, 0.05);
        EXPECT_GT(res.packetsDelivered, 0u);
    }
    Network net = makeNet("fbf4", "EB-Small", 1,
                          RoutingMode::XyAdaptive);
    SimResult res = runLoad(net, PatternKind::Random, 0.05);
    EXPECT_GT(res.packetsDelivered, 0u);
}

TEST(Network, CountersAreConsistent)
{
    Network net = makeNet("sn_subgr_200", "EB-Var");
    SimInvariantChecker checker(net);
    SimResult res = runLoad(net, PatternKind::Random, 0.1);
    checker.check("after measurement");
    const SimCounters &c = res.counters;
    EXPECT_GE(c.flitsInjected, c.flitsDelivered);
    EXPECT_GT(c.crossbarTraversals, c.flitsDelivered);
    EXPECT_GT(c.linkFlitHops, 0u);
    // Window counters: reads of flits written before the window can
    // exceed window writes by at most the network's buffered state.
    double diff = static_cast<double>(c.bufferReads) -
                  static_cast<double>(c.bufferWrites);
    EXPECT_LT(std::abs(diff), 0.01 * static_cast<double>(c.bufferWrites));
}

TEST(Network, MoreThan64VcsIsFatal)
{
    // The router's per-port VC masks are single 64-bit words.
    RouterConfig rc = RouterConfig::named("EB-Var");
    rc.numVcs = 65;
    try {
        Network net(makeNamedTopology("sn_54"), rc);
        FAIL() << "a 65-VC router was built";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("router 0"), std::string::npos) << what;
        EXPECT_NE(what.find("65 VCs"), std::string::npos) << what;
    }
    rc.numVcs = 64;
    EXPECT_NO_THROW(Network(makeNamedTopology("sn_54"), rc));
}

TEST(Network, Clos1296SerialBatchedAndShardedAgree)
{
    // The 13 spines of clos_1296 have 162 network ports each, so the
    // wake calendar's per-router port masks span three words.
    auto topo = std::make_shared<const NocTopology>(
        makeNamedTopology("clos_1296"));
    int maxPorts = 0;
    for (int r = 0; r < topo->numRouters(); ++r)
        maxPorts = std::max(
            maxPorts, static_cast<int>(topo->routers().neighbors(r).size()));
    ASSERT_GT(maxPorts, 128);

    const RouterConfig rc = RouterConfig::named("EB-Var");
    SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 600;
    // RND traffic that audits the network every 100 cycles.
    auto auditedSource = [&topo](
                             std::function<bool(std::string &)> audit) {
        auto pat = std::shared_ptr<TrafficPattern>(
            makeTrafficPattern(PatternKind::Random, *topo));
        SyntheticConfig sc;
        sc.load = 0.1;
        TrafficSource inner = makeSyntheticSource(pat, sc);
        return TrafficSource([inner, audit](Network &net, Cycle now) {
            if (now % 100 == 0) {
                std::string err;
                EXPECT_TRUE(audit(err)) << "cycle " << now << ": " << err;
            }
            return inner(net, now);
        });
    };

    Network serialNet(topo, rc);
    SimResult serial = runSimulation(
        serialNet, auditedSource([&serialNet](std::string &err) {
            return serialNet.auditInvariants(err);
        }),
        cfg);
    EXPECT_GT(serial.packetsDelivered, 0u);

    BatchedNetwork bn(topo, rc, LinkConfig{}, RoutingMode::Minimal,
                      {BatchedNetwork::LaneSpec{}});
    std::vector<BatchLaneSim> lanes = {
        {auditedSource([&bn](std::string &err) {
             return bn.auditInvariants(err);
         }),
         cfg}};
    testsupport::expectSameResult(runBatchedSimulation(bn, lanes)[0],
                                  serial, "1-lane batch");

    Network shardedNet(topo, rc);
    ShardedNetwork sn(shardedNet, 2);
    testsupport::expectSameResult(
        runShardedSimulation(sn, auditedSource([&sn](std::string &err) {
                                 return sn.auditInvariants(err);
                             }),
                             cfg),
        serial, "2 shards");
}

} // namespace
} // namespace snoc

/**
 * @file
 * Fault-injection tests: dynamic link/router failures applied
 * mid-run, degraded-operation semantics (drops, refusals, reroutes,
 * repairs), zero-fault equivalence of armed-but-empty plans, and the
 * invariant layer holding through every perturbation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/resilience.hh"
#include "exp/runner.hh"
#include "sim/network.hh"
#include "tests/support/sim_invariants.hh"
#include "topo/table4.hh"
#include "traffic/synthetic.hh"

namespace snoc {
namespace {

using testsupport::SimInvariantChecker;

std::uint64_t
splitmix(std::uint64_t &s)
{
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Offer `perCycle` deterministic random packets. */
void
offerTraffic(Network &net, std::uint64_t &s, int perCycle)
{
    int nodes = net.topology().numNodes();
    const int sizes[3] = {1, 4, 6};
    for (int k = 0; k < perCycle; ++k) {
        std::uint64_t r = splitmix(s);
        int src = static_cast<int>(r % static_cast<std::uint64_t>(nodes));
        int dst = static_cast<int>((r >> 20) %
                                   static_cast<std::uint64_t>(nodes));
        if (src == dst)
            continue;
        net.offerPacket(src, dst, sizes[(r >> 40) % 3]);
    }
}

/** Drain with a generous bound; returns true when fully drained. */
bool
drain(Network &net, int limit = 30000)
{
    for (int c = 0;
         c < limit && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    return net.flitsInFlight() + net.sourceQueueDepth() == 0;
}

/** Hops of one packet from router a's first node to router b's,
 *  on a fresh fault-free network over `topo`. */
int
deliveredHops(const NocTopology &topo, int a, int b)
{
    Network net(topo, RouterConfig::named("EB-Var"));
    int hops = -1;
    net.setDeliveryCallback([&hops](const Packet &p) { hops = p.hops; });
    net.offerPacket(topo.firstNodeOfRouter(a), topo.firstNodeOfRouter(b),
                    1);
    EXPECT_TRUE(drain(net));
    return hops;
}

/** Delivery-stream fingerprint (id, endpoints, timestamps, hops). */
struct Stream
{
    std::vector<std::uint64_t> records;

    void
    attach(SimInvariantChecker &checker)
    {
        checker.setDeliveryCallback([this](const Packet &p) {
            records.push_back(p.id);
            records.push_back(
                (static_cast<std::uint64_t>(p.srcNode) << 32) |
                static_cast<std::uint64_t>(p.dstNode));
            records.push_back(p.ejectedAt);
            records.push_back(static_cast<std::uint64_t>(p.hops));
        });
    }
};

TEST(FaultInjection, ArmedEmptyPlanMatchesUnarmedRun)
{
    // Arming the machinery with no scheduled event must not disturb
    // the simulation on table-routed topologies: same deliveries,
    // same timestamps, same counters.
    auto run = [](const FaultPlan &plan) {
        Network net(makeNamedTopology("sn_54"),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::Minimal, 7, plan);
        SimInvariantChecker checker(net);
        Stream stream;
        stream.attach(checker);
        std::uint64_t s = 777;
        for (int c = 0; c < 600; ++c) {
            offerTraffic(net, s, 2);
            net.step();
        }
        EXPECT_TRUE(drain(net));
        checker.checkQuiescent("armed-empty");
        return stream.records;
    };

    FaultPlan armedEmpty;
    armedEmpty.armed = true;
    EXPECT_TRUE(armedEmpty.active());
    FaultPlan unarmed;
    EXPECT_FALSE(unarmed.active());

    EXPECT_EQ(run(unarmed), run(armedEmpty));
}

TEST(FaultInjection, LinkFailureDropsCutPacketsAndKeepsDelivering)
{
    FaultPlan plan = FaultPlan::randomLinkFailures(0.10, 400, 5);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 123;
    for (int c = 0; c < 400; ++c) {
        offerTraffic(net, s, 3);
        net.step();
    }
    std::uint64_t deliveredBefore = net.counters().packetsDelivered;
    for (int c = 0; c < 400; ++c) {
        offerTraffic(net, s, 3);
        net.step();
        if (c == 0)
            checker.check("cycle after the failures struck");
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("after link failures");

    const SimCounters &c = net.counters();
    EXPECT_GT(c.faultEvents, 0u);
    EXPECT_GT(c.flitsDropped, 0u) << "no in-flight flit was cut";
    EXPECT_GT(c.packetsDropped, 0u);
    // The degraded network keeps delivering (sn_54 survives 10%).
    EXPECT_GT(c.packetsDelivered, deliveredBefore + 100);
    // sn_54 is a strong expander: 10% of links never disconnects it.
    EXPECT_EQ(c.packetsUnroutable, 0u);
    EXPECT_EQ(c.packetsRefused, 0u);
    EXPECT_LT(net.liveTopology().numEdges(),
              net.topology().routers().numEdges());
}

TEST(FaultInjection, RouterFailureIsolatesItsNodes)
{
    FaultPlan plan;
    plan.routerDown(3, 300);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 99;
    for (int c = 0; c < 900; ++c) {
        offerTraffic(net, s, 3);
        net.step();
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("after router failure");

    EXPECT_FALSE(net.routerAlive(3));
    EXPECT_TRUE(net.routerAlive(0));
    const SimCounters &c = net.counters();
    // Traffic to/from the dead router's nodes is refused at the
    // source; packets already heading there died as cut or
    // unroutable.
    EXPECT_GT(c.packetsRefused, 0u);
    EXPECT_GT(c.packetsDropped + c.packetsUnroutable, 0u);
    EXPECT_GT(c.packetsDelivered, 0u);

    // Offers touching the dead router are refused without a trace.
    std::uint64_t refusedBefore = net.counters().packetsRefused;
    int first = net.topology().firstNodeOfRouter(3);
    net.offerPacket(first, (first + 7) % net.topology().numNodes(),
                    2);
    EXPECT_EQ(net.counters().packetsRefused, refusedBefore + 1);
}

TEST(FaultInjection, RepairRestoresService)
{
    // Kill one specific link, then repair it; after the repair the
    // network must again deliver between the formerly-severed pair.
    NocTopology topo = makeNamedTopology("sn_54");
    int a = 0;
    int b = topo.routers().neighbors(0).front();
    FaultPlan plan;
    plan.linkDown(a, b, 200).linkUp(a, b, 800);

    Network net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 31;
    for (int c = 0; c < 1200; ++c) {
        offerTraffic(net, s, 2);
        net.step();
        if (c == 500) {
            EXPECT_LT(net.liveTopology().numEdges(),
                      topo.routers().numEdges());
            checker.check("while the link is down");
            // The fault gave `net` a private live table; the
            // topology's shared one is untouched, so a fault-free
            // network on it still takes the direct a--b link (one
            // link hop plus the ejection stage).
            EXPECT_EQ(topo.paths()->distance(a, b), 1);
            EXPECT_EQ(deliveredHops(topo, a, b), 2);
        }
    }
    EXPECT_EQ(net.liveTopology().numEdges(),
              topo.routers().numEdges());
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("after repair");
    EXPECT_EQ(net.counters().faultEvents, 2u);
}

TEST(FaultInjection, CentralBufferRouterSurvivesFaults)
{
    // The CB reservation/occupancy accounting must stay exact when
    // packets die mid-divert; the audit inside check() verifies it.
    FaultPlan plan = FaultPlan::randomLinkFailures(0.15, 300, 11);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("CBR-6"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 2024;
    for (int c = 0; c < 800; ++c) {
        offerTraffic(net, s, 4);
        net.step();
        if (c % 100 == 0)
            checker.check("CBR cycle " + std::to_string(c));
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("CBR after faults");
    EXPECT_GT(net.counters().flitsDropped, 0u);
}

TEST(FaultInjection, UgalReroutesAroundFailures)
{
    FaultPlan plan = FaultPlan::randomLinkFailures(0.10, 300, 3);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::UgalL, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 555;
    for (int c = 0; c < 900; ++c) {
        offerTraffic(net, s, 3);
        net.step();
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("UGAL-L after faults");
    EXPECT_GT(net.counters().packetsDelivered, 500u);
}

TEST(FaultInjection, GridTopologiesFallBackToTableRouting)
{
    // Algebraic grid schemes cannot route around holes; armed runs
    // switch to BFS-table minimal routing and keep working.
    for (const char *id : {"t2d4", "cm4", "fbf4", "pfbf4"}) {
        FaultPlan plan = FaultPlan::randomLinkFailures(0.08, 300, 9);
        Network net(makeNamedTopology(id),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::Minimal, 7, plan);
        SimInvariantChecker checker(net);
        std::uint64_t s = 404;
        for (int c = 0; c < 700; ++c) {
            offerTraffic(net, s, 2);
            net.step();
        }
        EXPECT_TRUE(drain(net)) << id;
        checker.checkQuiescent(id);
        EXPECT_GT(net.counters().packetsDelivered, 200u) << id;
        EXPECT_GT(net.counters().faultEvents, 0u) << id;
    }
}

TEST(FaultInjection, DegradationIsMonotonicInFailureFraction)
{
    // More dead links must not *increase* delivered throughput.
    auto delivered = [](double fraction) {
        FaultPlan plan =
            FaultPlan::randomLinkFailures(fraction, 300, 17);
        Network net(makeNamedTopology("sn_54"),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::Minimal, 7, plan);
        std::uint64_t s = 808;
        for (int c = 0; c < 1000; ++c) {
            offerTraffic(net, s, 4);
            net.step();
        }
        return net.counters().flitsDelivered;
    };
    std::uint64_t base = delivered(0.0);
    std::uint64_t degraded = delivered(0.25);
    EXPECT_LE(degraded, base + base / 20)
        << "25% link failures should not beat the intact network";
}

TEST(FaultInjection, ScenarioCarriesFaultPlanThroughTheEngine)
{
    Scenario s;
    s.topology = "sn_54";
    s.traffic = TrafficSpec::synthetic(PatternKind::Random);
    s.load = 0.1;
    s.sim.warmupCycles = 300;
    s.sim.measureCycles = 900;
    s.faults = FaultPlan::randomLinkFailures(0.10, 300, 21);

    SimResult r = ExperimentRunner::runScenario(s);
    EXPECT_GT(r.counters.faultEvents, 0u);
    EXPECT_GT(r.packetsDelivered, 0u);

    // Engine determinism extends to fault runs.
    SimResult r2 = ExperimentRunner::runScenario(s);
    EXPECT_EQ(r.throughput, r2.throughput);
    EXPECT_EQ(r.counters.flitsDropped, r2.counters.flitsDropped);
    EXPECT_EQ(r.packetsDelivered, r2.packetsDelivered);
}

TEST(FaultInjection, ResiliencePlanSpansTheGrid)
{
    Scenario base;
    base.topology = "sn_54";
    base.traffic = TrafficSpec::synthetic(PatternKind::Random);
    base.sim.warmupCycles = 250;

    ResilienceSpec spec;
    spec.failureFractions = {0.0, 0.10};
    spec.loads = {0.05, 0.20};
    ExperimentPlan plan = makeResiliencePlan(base, spec);

    ASSERT_EQ(plan.size(), 4u);
    for (const Job &j : plan.jobs) {
        EXPECT_EQ(j.kind, Job::Kind::Single);
        EXPECT_TRUE(j.scenario.faults.active());
        EXPECT_EQ(j.scenario.faults.randomFailAt, 250u);
        EXPECT_FALSE(j.scenario.label.empty());
    }
    EXPECT_DOUBLE_EQ(plan.jobs[0].scenario.faults.randomLinkFraction,
                     0.0);
    EXPECT_DOUBLE_EQ(plan.jobs[2].scenario.faults.randomLinkFraction,
                     0.10);
    EXPECT_DOUBLE_EQ(plan.jobs[1].scenario.load, 0.20);
    // Distinct fractions draw from distinct seeds.
    EXPECT_NE(plan.jobs[0].scenario.faults.faultSeed,
              plan.jobs[2].scenario.faults.faultSeed);
}

TEST(FaultInjection, PlanResolutionIsDeterministic)
{
    NocTopology topo = makeNamedTopology("sn_54");
    FaultPlan plan = FaultPlan::randomLinkFailures(0.2, 100, 42);
    auto a = plan.resolve(topo.routers());
    auto b = plan.resolve(topo.routers());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].a, b[i].a);
        EXPECT_EQ(a[i].b, b[i].b);
        EXPECT_EQ(a[i].at, 100u);
        EXPECT_TRUE(topo.routers().hasEdge(a[i].a, a[i].b));
    }
}

} // namespace
} // namespace snoc

/**
 * @file
 * Simulation driver tests: measurement-window semantics, load sweep
 * saturation cutoff, and saturation-throughput estimation.
 */

#include <gtest/gtest.h>

#include "exp/strategies.hh"
#include "sim/simulation.hh"
#include "topo/table4.hh"
#include "traffic/synthetic.hh"

namespace snoc {
namespace {

Network
mkNet()
{
    return Network(makeNamedTopology("sn_subgr_200"),
                   RouterConfig::named("EB-Var"));
}

TrafficSource
mkSource(Network &net, double load)
{
    auto pat = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    SyntheticConfig sc;
    sc.load = load;
    return makeSyntheticSource(pat, sc);
}

/** Evaluate each load on a fresh network and a fresh source. */
template <class MakeNet, class MakeSource>
PointEvaluator
freshRuns(MakeNet makeNet, MakeSource makeSource, SimConfig cfg)
{
    return [=](double load) {
        Network net = makeNet();
        return runSimulation(net, makeSource(load), cfg);
    };
}

TEST(Simulation, MeasuresOnlyWindow)
{
    Network net = mkNet();
    SimConfig cfg;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 1500;
    SimResult r = runSimulation(net, mkSource(net, 0.1), cfg);
    EXPECT_EQ(r.cyclesRun, 1500u);
    // Window counters exclude warmup: delivered flits in the window
    // are bounded by window injection capacity.
    EXPECT_LT(r.counters.flitsDelivered,
              200ULL * 1500ULL); // < 1 flit/node/cycle
    EXPECT_GT(r.counters.flitsDelivered, 0u);
    EXPECT_NEAR(r.offeredLoad, 0.1, 0.02);
}

TEST(Simulation, SweepStopsAtSaturation)
{
    auto makeNet = []() { return mkNet(); };
    auto makeSource = [](double load) {
        return [load](Network &net, Cycle) -> bool {
            static thread_local std::shared_ptr<TrafficPattern> pat;
            static thread_local std::shared_ptr<Rng> rng;
            if (!pat) {
                pat = std::shared_ptr<TrafficPattern>(
                    makeTrafficPattern(PatternKind::Random,
                                       net.topology()));
                rng = std::make_shared<Rng>(3);
            }
            for (int s = 0; s < net.topology().numNodes(); ++s) {
                if (rng->nextBool(load / 6.0)) {
                    net.offerPacket(s, pat->destination(s, *rng), 6);
                }
            }
            return true;
        };
    };
    SimConfig cfg;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 800;
    std::vector<double> loads = {0.01, 0.05, 0.2, 0.9, 0.95, 1.0};
    auto pts = runLoadSweep(freshRuns(makeNet, makeSource, cfg), loads,
                            true, 6.0);
    // The sweep must cut off before running every overload point.
    EXPECT_GE(pts.size(), 2u);
    EXPECT_LT(pts.size(), loads.size());
}

TEST(Simulation, SaturationThroughputIsPositiveAndBounded)
{
    auto makeNet = []() { return mkNet(); };
    auto makeSource = [](double load) {
        Network *bound = nullptr;
        (void)bound;
        auto pat = std::make_shared<Rng>(0);
        (void)pat;
        return TrafficSource(
            [load, rng = std::make_shared<Rng>(7),
             p = std::shared_ptr<TrafficPattern>()](
                Network &net, Cycle) mutable -> bool {
                if (!p) {
                    p = std::shared_ptr<TrafficPattern>(
                        makeTrafficPattern(PatternKind::Random,
                                           net.topology()));
                }
                for (int s = 0; s < net.topology().numNodes(); ++s) {
                    if (rng->nextBool(load / 6.0))
                        net.offerPacket(s, p->destination(s, *rng), 6);
                }
                return true;
            });
    };
    SimConfig cfg;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 800;
    double sat =
        findSaturation(freshRuns(makeNet, makeSource, cfg))
            .bestThroughput;
    EXPECT_GT(sat, 0.05);
    EXPECT_LE(sat, 1.2);
}

TEST(Simulation, SaturationAlwaysStableNetworkNeedsOneProbe)
{
    // A network that is stable even at the hiLoad bound: the search
    // must accept the first probe and report its throughput, not
    // bisect into a bracket that does not exist. A near-zero trickle
    // source is stable regardless of the requested load.
    auto makeNet = []() {
        return Network(makeNamedTopology("t2d4"),
                       RouterConfig::named("EB-Var"));
    };
    int evaluations = 0;
    auto makeSource = [&evaluations](double) {
        ++evaluations;
        return TrafficSource([](Network &net, Cycle cycle) -> bool {
            if (cycle % 97 == 0)
                net.offerPacket(0, net.topology().numNodes() - 1, 2);
            return true;
        });
    };
    SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 600;
    double sat =
        findSaturation(freshRuns(makeNet, makeSource, cfg))
            .bestThroughput;
    EXPECT_EQ(evaluations, 1) << "stable hiLoad probe must end the "
                                 "search immediately";
    EXPECT_GT(sat, 0.0);
    EXPECT_LT(sat, 0.05); // trickle traffic: tiny delivered rate
}

TEST(Simulation, SaturationUnstableAtFloorReportsFloorProbes)
{
    // A network that is already unstable at the loLoad floor: the
    // search must stop after probing hi then lo (no bisection on an
    // empty bracket) and still report the best delivered throughput
    // it observed rather than garbage bounds.
    auto makeNet = []() {
        return Network(makeNamedTopology("t2d4"),
                       RouterConfig::named("EB-Small"));
    };
    int evaluations = 0;
    auto makeSource = [&evaluations](double) {
        ++evaluations;
        // Flood regardless of the requested load: every node offers
        // a 6-flit packet every cycle (offered ~6 flits/node/cycle),
        // far beyond what a radix-4 torus can carry.
        return TrafficSource(
            [rng = std::make_shared<Rng>(11),
             p = std::shared_ptr<TrafficPattern>()](
                Network &net, Cycle) mutable -> bool {
                if (!p)
                    p = std::shared_ptr<TrafficPattern>(
                        makeTrafficPattern(PatternKind::Random,
                                           net.topology()));
                for (int s = 0; s < net.topology().numNodes(); ++s)
                    net.offerPacket(s, p->destination(s, *rng), 6);
                return true;
            });
    };
    SimConfig cfg;
    cfg.warmupCycles = 150;
    cfg.measureCycles = 400;
    double sat =
        findSaturation(freshRuns(makeNet, makeSource, cfg))
            .bestThroughput;
    EXPECT_EQ(evaluations, 2) << "hi then lo, both unstable — the "
                                 "bracket is empty";
    // Delivered throughput under flood is whatever the network
    // sustains; it must be positive and below injection bandwidth.
    EXPECT_GT(sat, 0.0);
    EXPECT_LT(sat, 1.0);
}

TEST(Simulation, DrainDoesNotLeakIntoWindowCounters)
{
    // Regression: the window counters and offered load were
    // snapshotted after the drain loop, so drain-phase buffer
    // writes, crossbar traversals, link hops and injections leaked
    // into the "window" while cyclesRun counted only measured
    // cycles — overstating every per-cycle energy metric.
    auto run = [](bool drain) {
        Network net = mkNet();
        SimConfig cfg;
        cfg.warmupCycles = 300;
        cfg.measureCycles = 900;
        cfg.drain = drain;
        return runSimulation(net, mkSource(net, 0.1), cfg);
    };
    SimResult off = run(false);
    SimResult on = run(true);
    EXPECT_EQ(on.cyclesRun, off.cyclesRun);
    EXPECT_EQ(on.counters, off.counters)
        << "drain-phase activity must not count toward the window";
    EXPECT_EQ(on.offeredLoad, off.offeredLoad);
    EXPECT_GT(on.counters.flitsDelivered, 0u);
}

TEST(Simulation, SourceExhaustedDuringWarmupYieldsEmptyWindow)
{
    // A trace can end before measurement begins; the result must
    // report a zero-length window with zero activity, not whatever
    // the drain phase happened to do.
    Network net = mkNet();
    int budget = 5;
    TrafficSource src = [&budget](Network &n, Cycle) -> bool {
        if (budget <= 0)
            return false;
        --budget;
        n.offerPacket(0, 100, 2);
        return budget > 0;
    };
    SimConfig cfg;
    cfg.warmupCycles = 50;
    cfg.measureCycles = 1000;
    cfg.drain = true;
    SimResult r = runSimulation(net, src, cfg);
    EXPECT_EQ(r.cyclesRun, 0u);
    EXPECT_EQ(r.counters, SimCounters{});
    EXPECT_EQ(r.offeredLoad, 0.0);
}

TEST(Simulation, ExhaustedSourceStopsEarly)
{
    Network net = mkNet();
    int budget = 50;
    TrafficSource src = [&budget](Network &n, Cycle) -> bool {
        if (budget <= 0)
            return false;
        --budget;
        n.offerPacket(0, 100, 2);
        return budget > 0;
    };
    SimConfig cfg;
    cfg.warmupCycles = 10;
    cfg.measureCycles = 100000; // would take forever if not cut short
    cfg.drain = true;
    SimResult r = runSimulation(net, src, cfg);
    EXPECT_LT(r.cyclesRun, 100000u);
    EXPECT_EQ(net.flitsInFlight(), 0u);
}

} // namespace
} // namespace snoc

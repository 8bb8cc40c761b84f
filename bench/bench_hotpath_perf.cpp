/**
 * @file
 * Hot-path throughput benchmark: raw cycle-loop speed of the
 * flit-level simulator, recorded as the repo's perf trajectory.
 *
 * For each topology x routing mode x load it warms a network up
 * under random Bernoulli traffic, then times a fixed window of
 * Network::step() calls and reports simulated cycles/sec,
 * flit-hops/sec (link work actually performed), delivered
 * flits/sec, and the mean active-router fraction (the share of
 * routers a step visits: routers holding buffered flits plus those
 * the wake calendar has an arrival due for; the sharded rows count
 * their per-shard worklists instead). Only the step()
 * calls are timed: the Bernoulli source draw is one inlined RNG step
 * per node per cycle in every mode (BM_SyntheticSourceDraw: about
 * 4 ns per node on a 4-vCPU Xeon), so including it would flood the
 * simulator-core signal exactly in the sparse regime the sweep
 * optimizations target.
 *
 * Each unbatched reference row is followed by a batched
 * co-simulation grid (src/sim/batch.hh) at N = 1/4/8 lanes: N
 * same-topology scenarios (per-lane traffic and routing seeds) on
 * one BatchedNetwork, run one lane after another as
 * runBatchedSimulation runs them. A lane steps through
 * Network::step() itself, so these rows differ from the unbatched
 * one only by the shared set-up and the lanes' cache footprint.
 * Batched rows report *aggregate* lane-cycles/sec plus the per-lane
 * rate, and speedup_vs_unbatched =
 * aggregate / the matching unbatched row — i.e. the wall-clock win
 * over running the same N scenarios as unbatched Networks.
 *
 * A final space-sharded grid (src/sim/shard.hh) steps ONE large
 * topology (sn_subgr_1296, the biggest committed instance) with
 * 1/2/4 worker threads; those rows carry shards > 1 and
 * speedup_vs_unbatched = sharded / the 1-shard reference. Sharding
 * splits a single simulation across cores (latency), batching packs
 * many simulations onto one core (throughput) — the two grids answer
 * different questions and the `shards` column keeps them apart.
 * Shard scaling is core-count-bound: on a single-core host the
 * barrier overhead makes shards > 1 a slowdown, which the artifact
 * records honestly.
 *
 * Results stream to stdout like every bench and are also written to
 * BENCH_hotpath.json (see SNOC_BENCH_OUT), giving successive commits
 * comparable perf points. SNOC_BENCH_FAST=1 shrinks the windows for
 * CI smoke runs; throughput numbers are then noisy but the artifact
 * shape is identical.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/batch.hh"
#include "sim/shard.hh"
#include "sim/simulation.hh"
#include "topo/topology_cache.hh"
#include "workload/closed_loop.hh"

namespace {

using namespace snoc;
using namespace snoc::bench;

const char *
modeName(RoutingMode mode)
{
    switch (mode) {
      case RoutingMode::Minimal: return "minimal";
      case RoutingMode::MinAdaptive: return "min-adaptive";
      case RoutingMode::UgalL: return "ugal-l";
      case RoutingMode::UgalG: return "ugal-g";
      case RoutingMode::XyAdaptive: return "xy-adaptive";
    }
    return "?";
}

std::string
fmt(double v, const char *spec = "%.3g")
{
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

struct PerfPoint
{
    double cyclesPerSec = 0.0; //!< aggregate lane-cycles per second
    double perLaneCyclesPerSec = 0.0;
    double flitHopsPerSec = 0.0;
    double flitsPerSec = 0.0;
    double activeFraction = 0.0;
    double nsPerCycleRouter = 0.0; //!< wall ns per stepped router
    Cycle cycles = 0;
};

PerfPoint
measure(const std::string &topoId, RoutingMode mode, double load)
{
    Network net(topo(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode, /*seed=*/7);
    net.reservePackets(1u << 14);
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    SyntheticConfig sc;
    sc.load = load;
    TrafficSource src = makeSyntheticSource(pattern, sc);

    PerfPoint p;
    Cycle warmup = fastMode() ? 300 : 2000;
    p.cycles = fastMode() ? 1500 : 20000;

    for (Cycle c = 0; c < warmup; ++c) {
        src(net, net.now());
        net.step();
    }

    SimCounters before = net.counters();
    std::uint64_t activeSum = 0;
    double wall = 0.0;
    for (Cycle c = 0; c < p.cycles; ++c) {
        src(net, net.now());
        auto t0 = std::chrono::steady_clock::now();
        net.step();
        auto t1 = std::chrono::steady_clock::now();
        wall += std::chrono::duration<double>(t1 - t0).count();
        activeSum += net.lastActiveRouters();
    }
    wall = wall > 0.0 ? wall : 1e-9;
    SimCounters delta = net.counters() - before;

    p.cyclesPerSec = static_cast<double>(p.cycles) / wall;
    p.perLaneCyclesPerSec = p.cyclesPerSec;
    p.flitHopsPerSec = static_cast<double>(delta.linkFlitHops) / wall;
    p.flitsPerSec = static_cast<double>(delta.flitsDelivered) / wall;
    p.activeFraction =
        static_cast<double>(activeSum) /
        (static_cast<double>(p.cycles) *
         static_cast<double>(net.topology().numRouters()));
    // Wall time per router the step visited: the per-router sweep
    // cost, independent of idle-skip savings.
    p.nsPerCycleRouter =
        wall * 1e9 / std::max<double>(1.0,
                                      static_cast<double>(activeSum));
    return p;
}

/**
 * N same-topology lanes on one BatchedNetwork. Lanes get distinct
 * traffic and routing seeds (the campaign case: same structure,
 * different scenario state), so the per-lane work matches the
 * unbatched reference above. Each lane runs its warmup and timed
 * window under its own one-bit mask before the next lane starts —
 * runBatchedSimulation's order — and only the step() calls are
 * timed.
 */
PerfPoint
measureBatched(const std::string &topoId, RoutingMode mode,
               double load, int lanes)
{
    auto topoPtr = TopologyCache::instance().getShared(topoId);
    std::vector<BatchedNetwork::LaneSpec> specs(
        static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l)
        specs[static_cast<std::size_t>(l)].routingSeed =
            7 + static_cast<std::uint64_t>(l);
    BatchedNetwork bn(topoPtr, RouterConfig::named("EB-Var"),
                      LinkConfig{}, mode, specs);
    bn.reservePackets(1u << 14);

    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, bn.lane(0).topology()));
    std::vector<TrafficSource> srcs;
    for (int l = 0; l < lanes; ++l) {
        SyntheticConfig sc;
        sc.load = load;
        sc.seed += static_cast<std::uint64_t>(l);
        srcs.push_back(makeSyntheticSource(pattern, sc));
    }

    PerfPoint p;
    Cycle warmup = fastMode() ? 300 : 2000;
    p.cycles = fastMode() ? 1500 : 20000;

    std::uint64_t visitSum = 0, hops = 0, delivered = 0;
    double wall = 0.0;
    for (int l = 0; l < lanes; ++l) {
        Network &net = bn.lane(l);
        TrafficSource &src = srcs[static_cast<std::size_t>(l)];
        const std::uint64_t mask = std::uint64_t{1} << l;
        for (Cycle c = 0; c < warmup; ++c) {
            src(net, net.now());
            bn.step(mask);
        }
        SimCounters before = net.counters();
        for (Cycle c = 0; c < p.cycles; ++c) {
            src(net, net.now());
            auto t0 = std::chrono::steady_clock::now();
            bn.step(mask);
            auto t1 = std::chrono::steady_clock::now();
            wall += std::chrono::duration<double>(t1 - t0).count();
            visitSum += bn.lastVisited();
        }
        SimCounters delta = net.counters() - before;
        hops += delta.linkFlitHops;
        delivered += delta.flitsDelivered;
    }
    wall = wall > 0.0 ? wall : 1e-9;

    double laneCycles =
        static_cast<double>(p.cycles) * static_cast<double>(lanes);
    p.cyclesPerSec = laneCycles / wall;
    p.perLaneCyclesPerSec = static_cast<double>(p.cycles) / wall;
    p.flitHopsPerSec = static_cast<double>(hops) / wall;
    p.flitsPerSec = static_cast<double>(delivered) / wall;
    p.activeFraction =
        static_cast<double>(visitSum) /
        (laneCycles *
         static_cast<double>(bn.lane(0).topology().numRouters()));
    p.nsPerCycleRouter =
        wall * 1e9 / std::max<double>(1.0,
                                      static_cast<double>(visitSum));
    return p;
}

/**
 * One network stepped by `shards` worker threads through the
 * space-sharded cycle loop. Bitwise identical to measure() on the
 * same scenario (sim/shard.hh's contract), so the delta against the
 * 1-shard row is pure parallel-stepping overhead/speedup. Uses a
 * shorter window than the single-network grid: the topology is ~6x
 * larger than sn_subgr_200 and the point is scaling shape, not
 * absolute rate.
 */
PerfPoint
measureSharded(const std::string &topoId, RoutingMode mode,
               double load, int shards)
{
    Network net(topo(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode, /*seed=*/7);
    net.reservePackets(1u << 14);
    ShardedNetwork sn(net, shards);
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    SyntheticConfig sc;
    sc.load = load;
    TrafficSource src = makeSyntheticSource(pattern, sc);

    PerfPoint p;
    Cycle warmup = fastMode() ? 150 : 1000;
    p.cycles = fastMode() ? 600 : 5000;

    for (Cycle c = 0; c < warmup; ++c) {
        src(net, net.now());
        sn.step();
    }

    SimCounters before = net.counters();
    std::uint64_t activeSum = 0;
    double wall = 0.0;
    for (Cycle c = 0; c < p.cycles; ++c) {
        src(net, net.now());
        auto t0 = std::chrono::steady_clock::now();
        sn.step();
        auto t1 = std::chrono::steady_clock::now();
        wall += std::chrono::duration<double>(t1 - t0).count();
        activeSum += sn.lastActiveRouters();
    }
    wall = wall > 0.0 ? wall : 1e-9;
    SimCounters delta = net.counters() - before;

    p.cyclesPerSec = static_cast<double>(p.cycles) / wall;
    p.perLaneCyclesPerSec = p.cyclesPerSec;
    p.flitHopsPerSec = static_cast<double>(delta.linkFlitHops) / wall;
    p.flitsPerSec = static_cast<double>(delta.flitsDelivered) / wall;
    p.activeFraction =
        static_cast<double>(activeSum) /
        (static_cast<double>(p.cycles) *
         static_cast<double>(net.topology().numRouters()));
    p.nsPerCycleRouter =
        wall * 1e9 / std::max<double>(1.0,
                                      static_cast<double>(activeSum));
    return p;
}

/**
 * Closed-loop hot path: the same timed step() window, but driven by
 * the request/reply workload layer (src/workload/closed_loop.hh)
 * instead of an open-loop Bernoulli source. The delivery-callback
 * chain, window bookkeeping, and reply injection all live on the
 * step() path, so these rows track the reactive-traffic cost the
 * synthetic grid cannot see. Keyed by window depth: w=1 is
 * dependency-chain latency-bound (most routers idle), deep windows
 * approach the saturated open-loop regime.
 */
PerfPoint
measureClosedLoop(const std::string &topoId, RoutingMode mode,
                  int window)
{
    Network net(topo(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode, /*seed=*/7);
    net.reservePackets(1u << 14);
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    ClosedLoopSpec spec;
    spec.window = window;
    spec.memoryDelay = 20;
    ClosedLoopSource cls = makeClosedLoopSource(pattern, spec, 42);

    PerfPoint p;
    Cycle warmup = fastMode() ? 300 : 2000;
    p.cycles = fastMode() ? 1500 : 20000;

    for (Cycle c = 0; c < warmup; ++c) {
        cls.source(net, net.now());
        net.step();
    }

    SimCounters before = net.counters();
    std::uint64_t activeSum = 0;
    double wall = 0.0;
    for (Cycle c = 0; c < p.cycles; ++c) {
        cls.source(net, net.now());
        auto t0 = std::chrono::steady_clock::now();
        net.step();
        auto t1 = std::chrono::steady_clock::now();
        wall += std::chrono::duration<double>(t1 - t0).count();
        activeSum += net.lastActiveRouters();
    }
    wall = wall > 0.0 ? wall : 1e-9;
    SimCounters delta = net.counters() - before;

    p.cyclesPerSec = static_cast<double>(p.cycles) / wall;
    p.perLaneCyclesPerSec = p.cyclesPerSec;
    p.flitHopsPerSec = static_cast<double>(delta.linkFlitHops) / wall;
    p.flitsPerSec = static_cast<double>(delta.flitsDelivered) / wall;
    p.activeFraction =
        static_cast<double>(activeSum) /
        (static_cast<double>(p.cycles) *
         static_cast<double>(net.topology().numRouters()));
    p.nsPerCycleRouter =
        wall * 1e9 / std::max<double>(1.0,
                                      static_cast<double>(activeSum));
    return p;
}

} // namespace

int
main()
{
    const char *topologies[] = {"sn_subgr_200", "cm4", "t2d4"};
    const RoutingMode modes[] = {RoutingMode::Minimal,
                                 RoutingMode::UgalL,
                                 RoutingMode::UgalG};
    // Three regimes: 0.10 saturates the sweep (nearly every router
    // is active, so batching is bounded by raw per-router cost),
    // 0.01 is moderately sparse, and 0.001 is the near-idle regime —
    // latency points at the bottom of every load sweep — where the
    // wake calendar keeps a step at O(words + visited routers)
    // instead of a scan of every router and channel.
    const double loads[] = {0.10, 0.01, 0.001};

    const int laneGrid[] = {1, 4, 8};

    PerfReport report("hotpath");
    report.out().beginTable(
        "hot-path cycle-loop throughput (random traffic, EB-Var; "
        "batched rows report aggregate lane-cycles/sec)",
        {"topology", "routing", "load", "mode", "lanes", "shards",
         "window", "cycles", "cycles_per_sec",
         "per_lane_cycles_per_sec", "flit_hops_per_sec",
         "flits_delivered_per_sec", "active_router_fraction",
         "ns_per_cycle_router", "speedup_vs_unbatched"});
    // `window` is "-" everywhere except the closed-loop grid, whose
    // rows are keyed by (topology, routing, window, mode) and carry
    // no load knob ("-" in the load column).
    auto addRow = [&](const char *t, RoutingMode m,
                      const std::string &load, const char *kind,
                      int lanes, int shards, const std::string &window,
                      const PerfPoint &p, double speedup) {
        report.out().addRow(
            {t, modeName(m), load, kind, std::to_string(lanes),
             std::to_string(shards), window,
             std::to_string(static_cast<std::uint64_t>(p.cycles)),
             fmt(p.cyclesPerSec, "%.0f"),
             fmt(p.perLaneCyclesPerSec, "%.0f"),
             fmt(p.flitHopsPerSec, "%.0f"),
             fmt(p.flitsPerSec, "%.0f"),
             fmt(p.activeFraction, "%.3f"),
             fmt(p.nsPerCycleRouter, "%.1f"),
             fmt(speedup, "%.2f")});
    };
    for (const char *t : topologies) {
        for (RoutingMode m : modes) {
            for (double load : loads) {
                PerfPoint ref = measure(t, m, load);
                addRow(t, m, fmt(load, "%.3g"), "unbatched", 1, 1,
                       "-", ref, 1.0);
                for (int lanes : laneGrid) {
                    PerfPoint p = measureBatched(t, m, load, lanes);
                    addRow(t, m, fmt(load, "%.3g"), "batched", lanes,
                           1, "-", p,
                           p.cyclesPerSec / ref.cyclesPerSec);
                }
            }
        }
    }

    // Space-sharded scaling grid: one big topology, 1/2/4 worker
    // threads over the same cycle loop. The 1-shard row is the
    // speedup denominator (it pays the partition/ownership plumbing
    // but no barriers or extra threads).
    const int shardGrid[] = {1, 2, 4};
    for (RoutingMode m : {RoutingMode::Minimal, RoutingMode::UgalL}) {
        double load = 0.10;
        PerfPoint ref;
        for (int shards : shardGrid) {
            PerfPoint p =
                measureSharded("sn_subgr_1296", m, load, shards);
            if (shards == 1)
                ref = p;
            addRow("sn_subgr_1296", m, fmt(load, "%.3g"), "sharded",
                   1, shards, "-", p,
                   p.cyclesPerSec / ref.cyclesPerSec);
        }
    }

    // Closed-loop grid: reactive request/reply traffic across window
    // depths. No speedup denominator applies (there is no matching
    // unbatched open-loop row), so the column holds 1.0.
    const int windowGrid[] = {1, 4, 16};
    for (const char *t : {"sn_subgr_200", "t2d4"}) {
        for (RoutingMode m : {RoutingMode::Minimal,
                              RoutingMode::UgalL}) {
            for (int window : windowGrid) {
                PerfPoint p = measureClosedLoop(t, m, window);
                addRow(t, m, "-", "closed-loop", 1, 1,
                       std::to_string(window), p, 1.0);
            }
        }
    }
    report.out().endTable();
    std::cout << "\nperf artifact: " << report.path() << "\n";
    return 0;
}

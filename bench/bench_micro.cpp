/**
 * @file
 * Google-benchmark microbenchmarks for the library's own hot paths:
 * MMS graph construction, layout analysis, routing table builds, and
 * raw simulator cycle throughput. These guard the harness's runtime,
 * not the paper's results.
 */

#include <benchmark/benchmark.h>

#include "core/slimnoc.hh"
#include "sim/network.hh"
#include "topo/table4.hh"
#include "traffic/synthetic.hh"

using namespace snoc;

namespace {

void
BM_MmsGraphConstruction(benchmark::State &state)
{
    int q = static_cast<int>(state.range(0));
    for (auto _ : state) {
        MmsGraph m(SnParams::fromQ(q));
        benchmark::DoNotOptimize(m.graph().numEdges());
    }
}
BENCHMARK(BM_MmsGraphConstruction)->Arg(5)->Arg(9)->Arg(13);

void
BM_SlimNocWithLayoutAnalysis(benchmark::State &state)
{
    int q = static_cast<int>(state.range(0));
    for (auto _ : state) {
        SlimNoc sn(SnParams::fromQ(q), SnLayout::Subgroup);
        benchmark::DoNotOptimize(
            sn.placementModel().averageWireLength());
    }
}
BENCHMARK(BM_SlimNocWithLayoutAnalysis)->Arg(5)->Arg(9);

void
BM_NetworkBuild(benchmark::State &state)
{
    NocTopology topo = makeNamedTopology("sn_subgr_200");
    RouterConfig rc = RouterConfig::named("EB-Var");
    for (auto _ : state) {
        Network net(topo, rc);
        benchmark::DoNotOptimize(net.topology().numNodes());
    }
}
BENCHMARK(BM_NetworkBuild);

/**
 * A warmed-up network under load, shared by the occupancy probes so
 * the counters they read reflect real traffic, not an idle network.
 */
Network &
loadedNetwork()
{
    static NocTopology topology = makeNamedTopology("sn_subgr_200");
    static Network net = [] {
        Network n(topology, RouterConfig::named("EB-Var"), LinkConfig{},
                  RoutingMode::UgalL, /*seed=*/7);
        auto pat = std::shared_ptr<TrafficPattern>(
            makeTrafficPattern(PatternKind::Random, topology));
        SyntheticConfig sc;
        sc.load = 0.1;
        TrafficSource src = makeSyntheticSource(pat, sc);
        for (int c = 0; c < 500; ++c) {
            src(n, n.now());
            n.step();
        }
        return n;
    }();
    return net;
}

void
BM_LinkOccupancy(benchmark::State &state)
{
    Network &net = loadedNetwork();
    const Graph &g = net.topology().routers();
    int router = 0;
    for (auto _ : state) {
        // Walk the adjacency so successive probes hit different
        // (router, neighbor) pairs, like UGAL's injection probes do.
        int next = g.neighbors(router).front();
        benchmark::DoNotOptimize(net.linkOccupancy(router, next));
        router = (router + 1) % g.numVertices();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkOccupancy);

void
BM_PathOccupancy(benchmark::State &state)
{
    Network &net = loadedNetwork();
    int n = net.topology().numRouters();
    int src = 0;
    for (auto _ : state) {
        int dst = (src + n / 2) % n;
        benchmark::DoNotOptimize(net.pathOccupancy(src, dst));
        src = (src + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathOccupancy);

void
BM_ShortestPathsDistance(benchmark::State &state)
{
    NocTopology topo = makeNamedTopology("sn_subgr_200");
    ShortestPaths paths(topo.routers());
    int n = paths.numVertices();
    int src = 0;
    for (auto _ : state) {
        // UGAL's triple probe shape: src->dst, src->inter, inter->dst.
        int dst = (src + n / 2) % n;
        int inter = (src + n / 3 + 1) % n;
        int d = paths.distance(src, dst) + paths.distance(src, inter) +
                paths.distance(inter, dst);
        benchmark::DoNotOptimize(d);
        src = (src + 1) % n;
    }
    state.SetItemsProcessed(3 * state.iterations());
}
BENCHMARK(BM_ShortestPathsDistance);

void
BM_ShortestPathsNextHop(benchmark::State &state)
{
    NocTopology topo = makeNamedTopology("sn_subgr_200");
    ShortestPaths paths(topo.routers());
    int n = paths.numVertices();
    int src = 0;
    for (auto _ : state) {
        int dst = (src + n / 2) % n;
        benchmark::DoNotOptimize(paths.nextHop(src, dst));
        src = (src + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShortestPathsNextHop);

void
BM_SimulationCycles(benchmark::State &state)
{
    NocTopology topo = makeNamedTopology("sn_subgr_200");
    RouterConfig rc = RouterConfig::named("EB-Var");
    Network net(topo, rc);
    auto pat = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, topo));
    SyntheticConfig sc;
    sc.load = 0.1;
    TrafficSource src = makeSyntheticSource(pat, sc);
    for (auto _ : state) {
        src(net, net.now());
        net.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulationCycles);

/**
 * The Bernoulli source alone: one call draws once per node, so an
 * item is a node-cycle. At load 0.01 almost every draw misses, which
 * makes this the per-node draw cost that dominates sparse sweeps.
 * Offered packets are drained outside the timed region.
 */
void
BM_SyntheticSourceDraw(benchmark::State &state)
{
    NocTopology topo = makeNamedTopology("sn_subgr_200");
    Network net(topo, RouterConfig::named("EB-Var"));
    auto pat = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, topo));
    SyntheticConfig sc;
    sc.load = 0.01;
    TrafficSource src = makeSyntheticSource(pat, sc);
    std::int64_t calls = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(src(net, net.now()));
        if (++calls % 1024 == 0) {
            state.PauseTiming();
            while (net.packetsAlive() > 0)
                net.step();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations() * topo.numNodes());
}
BENCHMARK(BM_SyntheticSourceDraw);

} // namespace

BENCHMARK_MAIN();

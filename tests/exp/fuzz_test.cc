/**
 * @file
 * Seeded scenario fuzzing: randomized (topology x routing x router
 * config x load x fault plan) runs, cross-checked two ways —
 *
 *  1. serial-vs-parallel ExperimentRunner execution must be bitwise
 *     identical (the engine's core determinism guarantee, now under
 *     mid-run fault injection too), and so must the batched-lane and
 *     space-sharded (simShards 2/4) execution modes;
 *  2. a direct run of every sampled scenario must satisfy the full
 *     invariant layer (flit/packet conservation, credit accounting,
 *     exactly-once delivery) at mid-run checkpoints and after drain.
 *
 * Every iteration logs its seed; on failure, re-run the binary with
 * SNOC_FUZZ_SEED=<seed> SNOC_FUZZ_ITERS=1 to replay exactly that
 * scenario. SNOC_FUZZ_ITERS scales the sweep (CI keeps it small).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/rng.hh"
#include "exp/journal.hh"
#include "exp/runner.hh"
#include "exp/serialize.hh"
#include "tests/support/sim_invariants.hh"
#include "tests/support/sim_results.hh"
#include "topo/topology_cache.hh"
#include "traffic/synthetic.hh"

namespace snoc {
namespace {

using testsupport::expectSameResult;
using testsupport::SimInvariantChecker;

/** Sample one random scenario (with a fault plan) from `rng`. */
Scenario
sampleScenario(Rng &rng)
{
    static const char *topologies[] = {"sn_54", "cm4", "t2d4",
                                       "pfbf4"};
    static const char *routerCfgs[] = {"EB-Var", "EB-Small", "CBR-6"};
    static const RoutingMode modes[] = {
        RoutingMode::Minimal, RoutingMode::MinAdaptive,
        RoutingMode::UgalL, RoutingMode::UgalG};
    static const PatternKind patterns[] = {PatternKind::Random,
                                           PatternKind::Shuffle,
                                           PatternKind::Adversarial1};

    Scenario s;
    s.topology = topologies[rng.nextUint(4)];
    s.routerConfig = routerCfgs[rng.nextUint(3)];
    s.routing = modes[rng.nextUint(4)];
    // Traffic axis: mostly open-loop synthetic, with closed-loop
    // request/reply windows and collective schedules in the mix.
    // Closed-loop samples always quiesce (finite stopAfterRequests /
    // rounds) so the invariant pass can drain them to empty.
    switch (rng.nextUint(4)) {
      case 0: {
        ClosedLoopSpec cl;
        cl.window = 1 + static_cast<int>(rng.nextUint(8));
        cl.issueProb = 0.2 + 0.8 * rng.nextDouble();
        cl.forwardFraction = rng.nextUint(2) ? 0.3 : 0.0;
        cl.memoryDelay = 5 + rng.nextUint(40);
        cl.stopAfterRequests = 100 + rng.nextUint(400);
        s.traffic = TrafficSpec::closedLoopOn(
            patterns[rng.nextUint(3)], cl);
        break;
      }
      case 1: {
        CollectiveSpec coll;
        static const CollectiveKind kinds[] = {
            CollectiveKind::Broadcast, CollectiveKind::Barrier,
            CollectiveKind::AllToAll};
        coll.kind = kinds[rng.nextUint(3)];
        coll.root = static_cast<int>(rng.nextUint(8));
        coll.rounds = 1 + static_cast<int>(rng.nextUint(3));
        if (coll.kind == CollectiveKind::AllToAll)
            coll.phases = 1 + static_cast<int>(rng.nextUint(6));
        coll.gapCycles = rng.nextUint(30);
        s.traffic = TrafficSpec::collectiveOf(coll);
        break;
      }
      default:
        s.traffic = TrafficSpec::synthetic(patterns[rng.nextUint(3)]);
        break;
    }
    s.load = 0.03 + 0.3 * rng.nextDouble();
    s.seed = rng.next();
    s.routingSeed = rng.next();
    s.sim.warmupCycles = 150 + rng.nextUint(150);
    s.sim.measureCycles = 400 + rng.nextUint(300);

    // Fault plan: usually random link failures striking somewhere in
    // the run; sometimes a router failure, sometimes a repair, and
    // sometimes (1 in 4) no faults at all to keep the fault-free
    // path in the fuzzed population.
    if (rng.nextUint(4) != 0) {
        Cycle horizon = s.sim.warmupCycles + s.sim.measureCycles;
        Cycle failAt = 50 + rng.nextUint(horizon - 50);
        s.faults = FaultPlan::randomLinkFailures(
            0.03 + 0.2 * rng.nextDouble(), failAt, rng.next());
        const NocTopology &topo =
            TopologyCache::instance().get(s.topology);
        if (rng.nextUint(3) == 0) {
            int victim = static_cast<int>(
                rng.nextUint(static_cast<std::uint64_t>(
                    topo.numRouters())));
            s.faults.routerDown(victim,
                                failAt + rng.nextUint(200));
        }
        if (rng.nextUint(3) == 0) {
            int a = static_cast<int>(rng.nextUint(
                static_cast<std::uint64_t>(topo.numRouters())));
            int b = topo.routers().neighbors(a).front();
            Cycle down = 50 + rng.nextUint(horizon / 2);
            s.faults.linkDown(a, b, down)
                .linkUp(a, b, down + 100 + rng.nextUint(horizon / 2));
        }
    }
    return s;
}

std::string
describeFully(const Scenario &s)
{
    std::ostringstream oss;
    oss << s.describe() << " routing=" << static_cast<int>(s.routing)
        << " warmup=" << s.sim.warmupCycles
        << " measure=" << s.sim.measureCycles
        << " faultFrac=" << s.faults.randomLinkFraction
        << " failAt=" << s.faults.randomFailAt
        << " events=" << s.faults.events.size();
    return oss.str();
}

TEST(ScenarioFuzz, SerialParallelEquivalenceAndInvariants)
{
    const std::uint64_t baseSeed =
        envU64(kEnvFuzzSeed, 0xf00dd00dULL);
    const std::uint64_t iters = envU64(kEnvFuzzIters, 6);

    std::vector<Scenario> scenarios;
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < iters; ++i) {
        std::uint64_t seed = baseSeed + i;
        Rng rng(seed);
        scenarios.push_back(sampleScenario(rng));
        seeds.push_back(seed);
    }

    // 0. JSON round-trip property: every sampled scenario (random
    //    seeds, loads, windows, fault plans) survives
    //    parse(serialize(s)) exactly.
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE("replay with SNOC_FUZZ_SEED=" +
                     std::to_string(seeds[i]) +
                     " SNOC_FUZZ_ITERS=1 | " +
                     describeFully(scenarios[i]));
        EXPECT_TRUE(parseScenario(serializeScenario(
                        scenarios[i])) == scenarios[i]);
    }

    // 1. Engine determinism: the whole batch, 1 worker vs 4, with
    //    batched co-simulation disabled (the pure sequential
    //    reference), then the batched planner against that reference
    //    — random scenario mixes exercise group/chunk composition
    //    (shared topologies land in shared BatchedNetworks, workload
    //    and saturation jobs fall back).
    ExperimentPlan plan;
    for (const Scenario &s : scenarios)
        plan.add(s);
    RunnerOptions serialOpts;
    serialOpts.threads = 1;
    serialOpts.batchLanes = 0;
    RunnerOptions parallelOpts;
    parallelOpts.threads = 4;
    parallelOpts.batchLanes = 0;
    RunnerOptions batchedOpts;
    batchedOpts.threads = 2;
    batchedOpts.batchLanes = 4;
    // Shard-count axis: the same plan stepped by the space-sharded
    // cycle loop (sim/shard.hh) at 2 and 4 shards — every fuzzed
    // topology x routing x fault plan must be bitwise identical to
    // the serial loop (workload scenarios fall back to serial inside
    // the runner, so they cross-check trivially).
    RunnerOptions sharded2Opts;
    sharded2Opts.threads = 1;
    sharded2Opts.batchLanes = 0;
    sharded2Opts.simShards = 2;
    RunnerOptions sharded4Opts;
    sharded4Opts.threads = 2;
    sharded4Opts.batchLanes = 0;
    sharded4Opts.simShards = 4;
    std::vector<JobResult> serial =
        ExperimentRunner(serialOpts).run(plan);
    std::vector<JobResult> parallel =
        ExperimentRunner(parallelOpts).run(plan);
    std::vector<JobResult> batched =
        ExperimentRunner(batchedOpts).run(plan);
    std::vector<JobResult> sharded2 =
        ExperimentRunner(sharded2Opts).run(plan);
    std::vector<JobResult> sharded4 =
        ExperimentRunner(sharded4Opts).run(plan);
    ASSERT_EQ(serial.size(), scenarios.size());
    ASSERT_EQ(parallel.size(), scenarios.size());
    ASSERT_EQ(batched.size(), scenarios.size());
    ASSERT_EQ(sharded2.size(), scenarios.size());
    ASSERT_EQ(sharded4.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE("replay with SNOC_FUZZ_SEED=" +
                     std::to_string(seeds[i]) +
                     " SNOC_FUZZ_ITERS=1 | " +
                     describeFully(scenarios[i]));
        expectSameResult(serial[i].points[0].sim,
                         parallel[i].points[0].sim);
        expectSameResult(serial[i].points[0].sim,
                         batched[i].points[0].sim);
        expectSameResult(serial[i].points[0].sim,
                         sharded2[i].points[0].sim);
        expectSameResult(serial[i].points[0].sim,
                         sharded4[i].points[0].sim);
    }

    // 2. Invariant cleanliness of every sampled scenario.
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        SCOPED_TRACE("replay with SNOC_FUZZ_SEED=" +
                     std::to_string(seeds[i]) +
                     " SNOC_FUZZ_ITERS=1 | " + describeFully(s));

        const NocTopology &topo =
            TopologyCache::instance().get(s.topology);
        Network net(topo, RouterConfig::named(s.routerConfig),
                    s.link, s.routing, s.routingSeed, s.faults);
        SimInvariantChecker checker(net);
        // Build the source directly (not via the engine) so the
        // closed-loop/collective state stays visible for the window
        // and token conservation audits.
        TrafficSource source;
        std::shared_ptr<ClosedLoopState> clState;
        std::shared_ptr<CollectiveState> collState;
        switch (s.traffic.kind) {
          case TrafficSpec::Kind::ClosedLoop: {
            auto pattern = std::shared_ptr<TrafficPattern>(
                makeTrafficPattern(s.traffic.pattern, topo));
            ClosedLoopSource cls = makeClosedLoopSource(
                pattern, s.traffic.closedLoop, s.seed);
            source = std::move(cls.source);
            clState = std::move(cls.state);
            break;
          }
          case TrafficSpec::Kind::Collective: {
            CollectiveSource cs =
                makeCollectiveSource(s.traffic.collective);
            source = std::move(cs.source);
            collState = std::move(cs.state);
            break;
          }
          default: {
            auto pattern = std::shared_ptr<TrafficPattern>(
                makeTrafficPattern(s.traffic.pattern, topo));
            SyntheticConfig sc;
            sc.load = s.load;
            sc.packetSizeFlits = s.traffic.packetSizeFlits;
            sc.seed = s.seed;
            source = makeSyntheticSource(pattern, sc);
            break;
          }
        }

        auto auditWorkload = [&](const std::string &when) {
            if (clState)
                testsupport::checkClosedLoopWindows(net, *clState,
                                                    when);
            if (collState)
                testsupport::checkCollectiveTokens(net, *collState,
                                                   when);
        };

        Cycle total = s.sim.warmupCycles + s.sim.measureCycles;
        bool alive = true;
        for (Cycle c = 0; c < total; ++c) {
            if (alive)
                alive = source(net, net.now());
            net.step();
        }
        checker.check("mid-run");
        auditWorkload("mid-run");
        // Closed-loop drains keep pumping the source: parked chain
        // continuations only enter the network through source calls,
        // and the fuzzed specs are finite, so the source eventually
        // reports exhaustion and the network empties. Open-loop
        // sources never exhaust and must NOT be pumped here.
        bool sourceDriven = clState != nullptr || collState != nullptr;
        for (int c = 0; c < 60000 &&
                        ((sourceDriven && alive) ||
                         net.flitsInFlight() + net.sourceQueueDepth() >
                             0);
             ++c) {
            if (sourceDriven && alive)
                alive = source(net, net.now());
            net.step();
        }
        checker.checkQuiescent("after drain");
        auditWorkload("after drain");
        if (clState) {
            EXPECT_EQ(clState->liveSlots(), 0u)
                << "drain left live window slots";
            EXPECT_EQ(clState->pendingMessages(), 0u)
                << "drain left parked chain messages";
        }
        if (collState) {
            EXPECT_EQ(collState->openTokens(), 0u)
                << "drain left open collective tokens";
        }
    }
}

/**
 * Crash-recovery axis: the same fuzzed plans, interrupted at random
 * kill points. A "crash" is modeled exactly the way the CLI sees
 * one — a journal holding an arbitrary subset of completed jobs
 * (workers finish out of order, so the subset need not be a prefix),
 * sometimes with a torn tail from dying mid-append. Resuming from
 * the replayed journal must reproduce the uninterrupted run bitwise,
 * for every sampled scenario mix and every kill point.
 */
TEST(ScenarioFuzz, ResumeFromRandomKillPointsIsBitwiseIdentical)
{
    const std::uint64_t baseSeed =
        envU64(kEnvFuzzSeed, 0xf00dd00dULL);
    const std::uint64_t iters = envU64(kEnvFuzzIters, 6);
    Rng rng(baseSeed ^ 0x6b696c6cULL); // kill-point stream

    std::vector<Scenario> scenarios;
    for (std::uint64_t i = 0; i < iters; ++i) {
        Rng sampler(baseSeed + i);
        scenarios.push_back(sampleScenario(sampler));
    }
    ExperimentPlan plan;
    plan.name = "fuzz-kill-points";
    for (const Scenario &s : scenarios)
        plan.add(s);
    const std::string hash = planHash(plan);

    RunnerOptions serialOpts;
    serialOpts.threads = 1;
    serialOpts.batchLanes = 0;
    std::vector<JobResult> reference =
        ExperimentRunner(serialOpts).run(plan);

    const std::string path =
        ::testing::TempDir() + "/snoc_fuzz_kill.jsonl";
    const int rounds = 4;
    for (int round = 0; round < rounds; ++round) {
        // Journal a random subset of completed jobs, in a random
        // completion order.
        std::vector<std::size_t> done;
        for (std::size_t i = 0; i < reference.size(); ++i)
            if (rng.nextUint(2))
                done.push_back(i);
        for (std::size_t i = done.size(); i > 1; --i)
            std::swap(done[i - 1], done[rng.nextUint(i)]);

        std::remove(path.c_str());
        {
            ResultJournal journal(path, hash);
            for (std::size_t idx : done)
                journal.append(idx, reference[idx]);
        }
        SCOPED_TRACE("round " + std::to_string(round) + ": " +
                     std::to_string(done.size()) + "/" +
                     std::to_string(reference.size()) +
                     " jobs journaled before the kill");

        // Half the rounds also die mid-append: shear a random number
        // of bytes off the tail, which may destroy the last entry —
        // that job simply re-runs.
        if (!done.empty() && rng.nextUint(2)) {
            std::string text;
            {
                std::ifstream in(path, std::ios::binary);
                text.assign(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
            }
            std::size_t cut = 1 + rng.nextUint(60);
            if (cut < text.size()) {
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                out << text.substr(0, text.size() - cut);
            }
        }

        std::map<std::size_t, JobResult> completed =
            ResultJournal::replay(path, hash);
        RunnerOptions resumeOpts = serialOpts;
        resumeOpts.completed = &completed;
        std::vector<JobResult> resumed =
            ExperimentRunner(resumeOpts).run(plan);

        ASSERT_EQ(resumed.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            expectSameResult(reference[i].points[0].sim,
                             resumed[i].points[0].sim);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace snoc

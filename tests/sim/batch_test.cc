/**
 * @file
 * Batched co-simulation equivalence.
 *
 * The determinism contract of BatchedNetwork (src/sim/batch.hh) is
 * that every lane is *bitwise identical* to the same scenario stepped
 * through an unbatched Network: same delivered-packet stream (ids,
 * timestamps, hop counts, in delivery order) and same SimCounters.
 * The tests here enforce it three ways:
 *
 *  - lane 0 of a mixed batch reproduces the pre-refactor hotpath
 *    goldens (the same constants tests/sim/hotpath_equivalence_test.cc
 *    pins), so batching chains back to the original implementation;
 *  - every lane of every tested batch equals a standalone Network fed
 *    the identical schedule — including lanes with per-lane fault
 *    plans, whose purges must not leak into their neighbors;
 *  - a lane's fingerprint is invariant under permutation of the lane
 *    order, and a seeded fuzz sweep (SNOC_FUZZ_SEED /
 *    SNOC_FUZZ_ITERS) cross-checks random batches against serial
 *    replays.
 *
 * Every case runs in both step orders — lockstep (every live lane in
 * each step(), the check that interleaved lanes stay isolated) and
 * lane-serial (runBatchedSimulation's order: one lane's whole
 * schedule under a one-bit mask, then the next, so lanes sit at
 * different local times) — with the batch bookkeeping audited
 * mid-run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hh"
#include "sim/batch.hh"
#include "tests/support/sim_results.hh"
#include "topo/table4.hh"

namespace snoc {
namespace {

// --- deterministic traffic + fingerprint (matches the hotpath
//     equivalence test so its goldens carry over) -----------------------------

std::uint64_t
splitmix(std::uint64_t &s)
{
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

struct Fingerprint
{
    std::uint64_t deliveryHash = 1469598103934665603ULL; // FNV basis
    std::uint64_t packets = 0;
    SimCounters counters;
    bool drained = false;
};

void
hashDelivery(Fingerprint &fp, const Packet &p)
{
    fnv(fp.deliveryHash, p.id);
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.srcNode));
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.dstNode));
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.sizeFlits));
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.hops));
    fnv(fp.deliveryHash, p.createdAt);
    fnv(fp.deliveryHash, p.injectedAt);
    fnv(fp.deliveryHash, p.ejectedAt);
    ++fp.packets;
}

/** The hotpath goldens' schedule seed; lane > 0 perturbs it so every
 *  lane of a batch carries distinct traffic. */
std::uint64_t
scheduleSeed(const std::string &topoId, RoutingMode mode, int lane)
{
    std::uint64_t s =
        0xabcdef12 ^ (mode == RoutingMode::UgalL ? 77 : 0);
    for (const char ch : topoId)
        s = s * 131 + static_cast<std::uint64_t>(ch);
    return s + static_cast<std::uint64_t>(lane) * 0x9e3779b9ULL;
}

/** Offer the golden schedule's two packets for one cycle. */
void
offerCycle(Network &net, std::uint64_t &s)
{
    int nodes = net.topology().numNodes();
    const int sizes[3] = {1, 4, 6};
    for (int k = 0; k < 2; ++k) {
        std::uint64_t r = splitmix(s);
        int src =
            static_cast<int>(r % static_cast<std::uint64_t>(nodes));
        int dst = static_cast<int>((r >> 20) %
                                   static_cast<std::uint64_t>(nodes));
        if (src == dst)
            continue;
        net.offerPacket(src, dst, sizes[(r >> 40) % 3]);
    }
}

void
finishFingerprint(Fingerprint &fp, const Network &net)
{
    fp.drained =
        net.flitsInFlight() == 0 && net.sourceQueueDepth() == 0;
    fp.counters = net.counters();
}

constexpr int kOfferCycles = 1200;
constexpr int kDrainLimit = 30000;

/** The unbatched reference: the hotpath test's exact loop. */
Fingerprint
runStandalone(const std::string &topoId, const std::string &routerCfg,
              RoutingMode mode, std::uint64_t seed,
              std::uint64_t routingSeed = 7,
              const FaultPlan &faults = {})
{
    Network net(makeNamedTopology(topoId),
                RouterConfig::named(routerCfg), LinkConfig{}, mode,
                routingSeed, faults);
    Fingerprint fp;
    net.setDeliveryCallback(
        [&fp](const Packet &p) { hashDelivery(fp, p); });
    std::uint64_t s = seed;
    for (int c = 0; c < kOfferCycles; ++c) {
        offerCycle(net, s);
        net.step();
    }
    for (int c = 0;
         c < kDrainLimit &&
         net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    finishFingerprint(fp, net);
    return fp;
}

/** How runBatch advances its lanes through BatchedNetwork::step. */
enum class StepOrder
{
    Lockstep,   //!< every live lane in each step()
    LaneSerial, //!< lane 0's whole schedule, then lane 1's, ...
};

const StepOrder kStepOrders[] = {StepOrder::Lockstep,
                                 StepOrder::LaneSerial};

const char *
orderName(StepOrder order)
{
    return order == StepOrder::Lockstep ? "lockstep" : "lane-serial";
}

constexpr int kAuditEvery = 100;

/** Run a batch where lane l follows schedule seeds[l] (runStandalone's
 *  offer + drain schedule) in the given step order, auditing the
 *  batch bookkeeping every `auditEvery` steps. */
std::vector<Fingerprint>
runBatch(const std::string &topoId, const std::string &routerCfg,
         RoutingMode mode,
         const std::vector<BatchedNetwork::LaneSpec> &specs,
         const std::vector<std::uint64_t> &seeds, StepOrder order,
         int auditEvery = kAuditEvery)
{
    auto topo =
        std::make_shared<const NocTopology>(makeNamedTopology(topoId));
    BatchedNetwork bn(topo, RouterConfig::named(routerCfg),
                      LinkConfig{}, mode, specs);
    int n = bn.numLanes();
    std::vector<Fingerprint> fps(static_cast<std::size_t>(n));
    for (int l = 0; l < n; ++l)
        bn.lane(l).setDeliveryCallback(
            [&fps, l](const Packet &p) {
                hashDelivery(fps[static_cast<std::size_t>(l)], p);
            });
    std::vector<std::uint64_t> streams = seeds;
    int steps = 0;
    auto step = [&](std::uint64_t mask) {
        bn.step(mask);
        if (++steps % auditEvery != 0)
            return;
        std::string err;
        ASSERT_TRUE(bn.auditInvariants(err))
            << orderName(order) << " step " << steps << ": " << err;
    };
    // The offer + drain schedule, over the lanes in `lanes` together;
    // a lane leaves the mask once drained.
    auto runLanes = [&](std::uint64_t lanes) {
        for (int c = 0; c < kOfferCycles; ++c) {
            for (int l = 0; l < n; ++l)
                if ((lanes >> l) & 1)
                    offerCycle(bn.lane(l),
                               streams[static_cast<std::size_t>(l)]);
            step(lanes);
        }
        for (int c = 0; c < kDrainLimit; ++c) {
            std::uint64_t mask = 0;
            for (int l = 0; l < n; ++l)
                if (((lanes >> l) & 1) &&
                    bn.lane(l).flitsInFlight() +
                            bn.lane(l).sourceQueueDepth() >
                        0)
                    mask |= std::uint64_t{1} << l;
            if (mask == 0)
                break;
            step(mask);
        }
    };
    if (order == StepOrder::Lockstep)
        runLanes(bn.allLanes());
    else
        for (int l = 0; l < n; ++l)
            runLanes(std::uint64_t{1} << l);
    std::string err;
    EXPECT_TRUE(bn.auditInvariants(err)) << err;
    for (int l = 0; l < n; ++l)
        finishFingerprint(fps[static_cast<std::size_t>(l)],
                          bn.lane(l));
    return fps;
}

void
expectEqual(const Fingerprint &a, const Fingerprint &b,
            const std::string &what)
{
    EXPECT_EQ(a.deliveryHash, b.deliveryHash) << what;
    EXPECT_EQ(a.packets, b.packets) << what;
    EXPECT_EQ(a.drained, b.drained) << what;
    testsupport::expectSameCounters(a.counters, b.counters, what);
}

// --- lane 0 vs the pre-refactor goldens -------------------------------------

struct Golden
{
    const char *topoId;
    const char *routerCfg;
    RoutingMode mode;
    std::uint64_t deliveryHash;
    std::uint64_t packets;
};

// Hash/count constants identical to
// tests/sim/hotpath_equivalence_test.cc (captured from the
// pre-refactor implementation at seed commit d4521ab).
const Golden kGoldens[] = {
    {"sn_54", "EB-Var", RoutingMode::Minimal, 2639430157430525923ULL,
     2359},
    {"sn_54", "EB-Var", RoutingMode::UgalL, 6892119119667836727ULL,
     2346},
    {"cm4", "EB-Var", RoutingMode::Minimal, 15130970296130405403ULL,
     2382},
    {"cm4", "EB-Var", RoutingMode::UgalL, 10544351002339066447ULL,
     2393},
    {"sn_54", "CBR-6", RoutingMode::Minimal, 12281713939419675306ULL,
     2359},
    {"cm4", "CBR-6", RoutingMode::Minimal, 15521535991371378789ULL,
     2382},
};

class BatchGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(BatchGolden, Lane0MatchesUnbatchedGolden)
{
    const Golden &g = GetParam();
    // Four lanes, distinct schedules; lane 0 runs the golden's exact
    // schedule while the other three stress cross-lane isolation.
    std::vector<BatchedNetwork::LaneSpec> specs(4);
    std::vector<std::uint64_t> seeds;
    for (int l = 0; l < 4; ++l)
        seeds.push_back(scheduleSeed(g.topoId, g.mode, l));
    std::vector<Fingerprint> ref;
    for (int l = 1; l < 4; ++l)
        ref.push_back(runStandalone(g.topoId, g.routerCfg, g.mode,
                                    seeds[static_cast<std::size_t>(l)]));
    for (StepOrder order : kStepOrders) {
        SCOPED_TRACE(orderName(order));
        std::vector<Fingerprint> fps =
            runBatch(g.topoId, g.routerCfg, g.mode, specs, seeds, order);
        EXPECT_TRUE(fps[0].drained) << g.topoId;
        EXPECT_EQ(fps[0].deliveryHash, g.deliveryHash) << g.topoId;
        EXPECT_EQ(fps[0].packets, g.packets) << g.topoId;
        // The other lanes must each equal their standalone replay.
        for (int l = 1; l < 4; ++l)
            expectEqual(fps[static_cast<std::size_t>(l)],
                        ref[static_cast<std::size_t>(l - 1)],
                        std::string(g.topoId) + " lane " +
                            std::to_string(l));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, BatchGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string name = info.param.topoId;
        name += '_';
        for (const char *c = info.param.routerCfg; *c; ++c)
            if (std::isalnum(static_cast<unsigned char>(*c)))
                name += *c;
        name += info.param.mode == RoutingMode::UgalL ? "_UgalL"
                                                      : "_Minimal";
        return name;
    });

// --- lane-order permutation invariance --------------------------------------

TEST(BatchPermutation, LaneOrderDoesNotChangeAnyLane)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::UgalL;
    // Three distinct scenarios: different schedules AND different
    // routing seeds (UGAL tie-break randomness differs per lane).
    std::vector<std::uint64_t> routingSeeds = {7, 11, 13};
    std::vector<std::uint64_t> seeds;
    for (int l = 0; l < 3; ++l)
        seeds.push_back(scheduleSeed(topoId, mode, l));

    auto runOrder = [&](const std::vector<int> &order,
                        StepOrder stepOrder) {
        std::vector<BatchedNetwork::LaneSpec> specs(order.size());
        std::vector<std::uint64_t> s;
        for (std::size_t i = 0; i < order.size(); ++i) {
            specs[i].routingSeed =
                routingSeeds[static_cast<std::size_t>(order[i])];
            s.push_back(seeds[static_cast<std::size_t>(order[i])]);
        }
        return runBatch(topoId, "EB-Var", mode, specs, s, stepOrder);
    };

    for (StepOrder order : kStepOrders) {
        SCOPED_TRACE(orderName(order));
        std::vector<Fingerprint> fwd = runOrder({0, 1, 2}, order);
        std::vector<Fingerprint> perm = runOrder({2, 0, 1}, order);
        expectEqual(fwd[0], perm[1], "scenario 0 moved lane");
        expectEqual(fwd[1], perm[2], "scenario 1 moved lane");
        expectEqual(fwd[2], perm[0], "scenario 2 moved lane");
    }
}

// --- per-lane fault plans ----------------------------------------------------

TEST(BatchFaults, PerLanePlansPurgeCoherently)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::Minimal;
    std::vector<BatchedNetwork::LaneSpec> specs(4);
    // Lane 0 fault-free; the others fail different elements at
    // different cycles, including a repair.
    specs[1].faults = FaultPlan{}.linkDown(0, 1, 300);
    specs[1].faults.armed = true;
    specs[2].faults = FaultPlan::randomLinkFailures(0.05, 400, 99);
    specs[3].faults =
        FaultPlan{}.routerDown(3, 500).routerUp(3, 900);
    specs[3].faults.armed = true;

    std::vector<std::uint64_t> seeds;
    for (int l = 0; l < 4; ++l)
        seeds.push_back(scheduleSeed(topoId, mode, l));

    std::vector<Fingerprint> ref;
    for (int l = 0; l < 4; ++l)
        ref.push_back(
            runStandalone(topoId, "EB-Var", mode,
                          seeds[static_cast<std::size_t>(l)], 7,
                          specs[static_cast<std::size_t>(l)].faults));
    for (StepOrder order : kStepOrders) {
        SCOPED_TRACE(orderName(order));
        std::vector<Fingerprint> fps =
            runBatch(topoId, "EB-Var", mode, specs, seeds, order);
        // The fault-free lane runs the golden schedule: it must still
        // hit the golden hash — its neighbors' purges may not leak
        // into it.
        EXPECT_EQ(fps[0].deliveryHash, kGoldens[0].deliveryHash);
        EXPECT_EQ(fps[0].packets, kGoldens[0].packets);
        for (int l = 0; l < 4; ++l)
            expectEqual(fps[static_cast<std::size_t>(l)],
                        ref[static_cast<std::size_t>(l)],
                        "faulted lane " + std::to_string(l));
    }
}

// --- seeded fuzz: random batches vs serial replays ---------------------------

TEST(BatchFuzz, RandomBatchesMatchSerialReplays)
{
    const std::uint64_t baseSeed = envU64(kEnvFuzzSeed, 0xb47c4ed5ULL);
    const std::uint64_t iters = envU64(kEnvFuzzIters, 3);

    const char *topos[] = {"sn_54", "cm4"};
    const char *cfgs[] = {"EB-Var", "CBR-6"};

    for (std::uint64_t it = 0; it < iters; ++it) {
        std::uint64_t s = baseSeed + it * 0x9e3779b97f4a7c15ULL;
        std::uint64_t r = splitmix(s);
        const std::string topoId = topos[r & 1];
        const std::string routerCfg = cfgs[(r >> 8) & 1];
        RoutingMode mode = ((r >> 16) & 1) ? RoutingMode::UgalL
                                           : RoutingMode::Minimal;
        int lanes = 2 + static_cast<int>((r >> 24) % 4);
        SCOPED_TRACE("replay with SNOC_FUZZ_SEED=" +
                     std::to_string(baseSeed + it * 0x9e3779b97f4a7c15ULL) +
                     " SNOC_FUZZ_ITERS=1 | " + topoId + "/" +
                     routerCfg + " lanes=" + std::to_string(lanes));

        std::vector<BatchedNetwork::LaneSpec> specs(
            static_cast<std::size_t>(lanes));
        std::vector<std::uint64_t> seeds;
        for (int l = 0; l < lanes; ++l) {
            std::uint64_t rl = splitmix(s);
            specs[static_cast<std::size_t>(l)].routingSeed =
                1 + (rl & 0xff);
            if ((rl >> 8 & 3) == 0)
                specs[static_cast<std::size_t>(l)].faults =
                    FaultPlan::randomLinkFailures(
                        0.02 + 0.04 * ((rl >> 10 & 3) / 3.0),
                        200 + (rl >> 16 & 511), rl >> 32);
            seeds.push_back(splitmix(s));
        }
        std::vector<Fingerprint> ref;
        for (int l = 0; l < lanes; ++l)
            ref.push_back(runStandalone(
                topoId, routerCfg, mode,
                seeds[static_cast<std::size_t>(l)],
                specs[static_cast<std::size_t>(l)].routingSeed,
                specs[static_cast<std::size_t>(l)].faults));
        for (StepOrder order : kStepOrders) {
            SCOPED_TRACE(orderName(order));
            std::vector<Fingerprint> fps =
                runBatch(topoId, routerCfg, mode, specs, seeds, order,
                         /*auditEvery=*/250);
            for (int l = 0; l < lanes; ++l)
                expectEqual(fps[static_cast<std::size_t>(l)],
                            ref[static_cast<std::size_t>(l)],
                            "fuzz lane " + std::to_string(l));
        }
    }
}

} // namespace
} // namespace snoc

/**
 * @file
 * Space-sharded cycle-loop equivalence.
 *
 * The determinism contract of ShardedNetwork (src/sim/shard.hh) is
 * that stepping one network with N shard threads is *bitwise
 * identical* to the serial Network::step(): same delivered-packet
 * stream (ids, timestamps, hop counts, in delivery order), same
 * SimCounters, for every shard count. Enforced four ways:
 *
 *  - 2- and 4-shard runs reproduce the pre-refactor hotpath goldens
 *    (the same constants tests/sim/hotpath_equivalence_test.cc pins),
 *    chaining the sharded loop back to the original implementation;
 *  - fingerprints are invariant across shard counts 1/2/3/4 and under
 *    extreme clamping (more shards than routers);
 *  - fault plans (link kill, random failures, router kill + repair)
 *    purge and reroute coherently under sharding, with the shard-aware
 *    auditInvariants recounting boundary in-flight flits mid-run;
 *  - the audit itself runs while traffic is crossing shard boundaries,
 *    proving mailbox (channel) flits are counted exactly once;
 *  - a network stepped serially, then sharded, then serially again
 *    (the Network rebuilds its wake calendar when the shards let go)
 *    matches the all-serial run.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/shard.hh"
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

/** The hotpath goldens' schedule seed. */
std::uint64_t
scheduleSeed(const std::string &topoId, RoutingMode mode)
{
    std::uint64_t s =
        0xabcdef12 ^ (mode == RoutingMode::UgalL ? 77 : 0);
    for (const char ch : topoId)
        s = s * 131 + static_cast<std::uint64_t>(ch);
    return s;
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

/** The serial reference: the hotpath test's exact loop. */
Fingerprint
runSerial(const std::string &topoId, const std::string &routerCfg,
          RoutingMode mode, std::uint64_t seed,
          std::uint64_t routingSeed = 7, const FaultPlan &faults = {})
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

/** Same run stepped by a ShardedNetwork; audits the shard
 *  bookkeeping every `auditEvery` cycles when nonzero. */
Fingerprint
runSharded(const std::string &topoId, const std::string &routerCfg,
           RoutingMode mode, int shards, std::uint64_t seed,
           std::uint64_t routingSeed = 7, const FaultPlan &faults = {},
           int auditEvery = 0)
{
    Network net(makeNamedTopology(topoId),
                RouterConfig::named(routerCfg), LinkConfig{}, mode,
                routingSeed, faults);
    Fingerprint fp;
    net.setDeliveryCallback(
        [&fp](const Packet &p) { hashDelivery(fp, p); });
    ShardedNetwork sn(net, shards);
    auto audit = [&](int cycle) {
        if (auditEvery == 0 || cycle % auditEvery != 0)
            return;
        std::string err;
        ASSERT_TRUE(sn.auditInvariants(err))
            << "cycle " << cycle << ": " << err;
    };
    std::uint64_t s = seed;
    int cycle = 0;
    for (int c = 0; c < kOfferCycles; ++c, ++cycle) {
        offerCycle(net, s);
        sn.step();
        audit(cycle);
    }
    for (int c = 0;
         c < kDrainLimit &&
         net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c, ++cycle) {
        sn.step();
        audit(cycle);
    }
    std::string err;
    EXPECT_TRUE(sn.auditInvariants(err)) << err;
    finishFingerprint(fp, net);
    return fp;
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

// --- sharded runs vs the pre-refactor goldens -------------------------------

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

class ShardGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(ShardGolden, ShardedRunsMatchGoldenAndSerial)
{
    const Golden &g = GetParam();
    std::uint64_t seed = scheduleSeed(g.topoId, g.mode);
    Fingerprint serial =
        runSerial(g.topoId, g.routerCfg, g.mode, seed);
    // The serial reference itself must still be on the golden chain.
    ASSERT_EQ(serial.deliveryHash, g.deliveryHash) << g.topoId;
    ASSERT_EQ(serial.packets, g.packets) << g.topoId;
    ASSERT_TRUE(serial.drained) << g.topoId;
    for (int shards : {2, 4}) {
        Fingerprint fp = runSharded(g.topoId, g.routerCfg, g.mode,
                                    shards, seed);
        expectEqual(fp, serial,
                    std::string(g.topoId) + " shards=" +
                        std::to_string(shards));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, ShardGolden, ::testing::ValuesIn(kGoldens),
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

// --- shard-count invariance --------------------------------------------------

TEST(ShardCount, FingerprintInvariantAcrossShardCounts)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::UgalL;
    std::uint64_t seed = scheduleSeed(topoId, mode);
    Fingerprint ref = runSerial(topoId, "EB-Var", mode, seed);
    // 1 shard must behave exactly like no sharding at all, 3 cuts
    // the 6 SN subgroup blocks unevenly across shards, and 18 gives
    // every router its own shard.
    for (int shards : {1, 2, 3, 4, 18}) {
        Fingerprint fp =
            runSharded(topoId, "EB-Var", mode, shards, seed);
        expectEqual(fp, ref, "shards=" + std::to_string(shards));
    }
}

TEST(ShardCount, ClampsToRouterCount)
{
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"));
    ShardedNetwork sn(net, 1000);
    EXPECT_EQ(sn.numShards(), net.topology().numRouters());
    std::string err;
    EXPECT_TRUE(sn.auditInvariants(err)) << err;
}

// --- fault coherence under sharding -----------------------------------------

TEST(ShardFaults, PurgeAndRerouteMatchSerial)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::Minimal;
    std::uint64_t seed = scheduleSeed(topoId, mode);

    std::vector<FaultPlan> plans(3);
    plans[0] = FaultPlan{}.linkDown(0, 1, 300);
    plans[0].armed = true;
    plans[1] = FaultPlan::randomLinkFailures(0.05, 400, 99);
    plans[2] = FaultPlan{}.routerDown(3, 500).routerUp(3, 900);
    plans[2].armed = true;

    for (std::size_t p = 0; p < plans.size(); ++p) {
        Fingerprint serial =
            runSerial(topoId, "EB-Var", mode, seed, 7, plans[p]);
        for (int shards : {2, 4}) {
            Fingerprint fp =
                runSharded(topoId, "EB-Var", mode, shards, seed, 7,
                           plans[p], /*auditEvery=*/100);
            expectEqual(fp, serial,
                        "plan " + std::to_string(p) + " shards=" +
                            std::to_string(shards));
        }
    }
}

// --- boundary accounting while traffic is in flight -------------------------

TEST(ShardAudit, BoundaryFlitsCountedExactlyOnceMidRun)
{
    const std::string topoId = "cm4";
    Network net(makeNamedTopology(topoId),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal);
    ShardedNetwork sn(net, 4);
    // A 4-way cut of the 4x4 concentrated mesh must actually cut
    // links — otherwise this audits nothing.
    ASSERT_GT(sn.partition().boundaryEdges, 0);

    std::uint64_t s = scheduleSeed(topoId, RoutingMode::Minimal);
    bool sawBoundaryTraffic = false;
    for (int c = 0; c < 400; ++c) {
        offerCycle(net, s);
        sn.step();
        std::string err;
        ASSERT_TRUE(sn.auditInvariants(err))
            << "cycle " << c << ": " << err;
        if (net.flitsInFlight() > 0)
            sawBoundaryTraffic = true;
    }
    EXPECT_TRUE(sawBoundaryTraffic);
    EXPECT_GT(net.counters().packetsDelivered, 0u);
    // The sharded worklist must add up: never more than the router
    // count, and nonzero while traffic is in flight.
    EXPECT_LE(sn.lastActiveRouters(),
              static_cast<std::size_t>(net.topology().numRouters()));
}

// --- calendar rebuild when a ShardedNetwork detaches -------------------------

TEST(ShardDetach, SerialRunResumesAfterShardedStretch)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::UgalL;
    std::uint64_t seed = scheduleSeed(topoId, mode);
    Fingerprint ref = runSerial(topoId, "EB-Var", mode, seed);

    Network net(makeNamedTopology(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode);
    Fingerprint fp;
    net.setDeliveryCallback(
        [&fp](const Packet &p) { hashDelivery(fp, p); });
    std::uint64_t s = seed;
    int c = 0;
    for (; c < 300; ++c) {
        offerCycle(net, s);
        net.step();
    }
    {
        ShardedNetwork sn(net, 3);
        for (; c < 600; ++c) {
            offerCycle(net, s);
            sn.step();
        }
        // Detach with traffic in flight, so the rebuilt calendar has
        // flits and credits to wake.
        ASSERT_GT(net.flitsInFlight(), 0u);
    }
    std::string err;
    ASSERT_TRUE(net.auditInvariants(err)) << err;
    for (; c < kOfferCycles; ++c) {
        offerCycle(net, s);
        net.step();
    }
    for (int d = 0;
         d < kDrainLimit &&
         net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++d)
        net.step();
    finishFingerprint(fp, net);
    expectEqual(fp, ref, "serial -> 3 shards -> serial");
}

} // namespace
} // namespace snoc

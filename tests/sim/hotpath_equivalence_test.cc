/**
 * @file
 * Hot-path equivalence + allocation guard.
 *
 * The allocation-free rebuild of the cycle loop (packet pool, ring
 * buffers, wake calendar) must be *bitwise identical* to the
 * original shared_ptr/deque implementation: same delivered-packet
 * stream (ids, timestamps, hop counts, in delivery order) and same
 * SimCounters. The goldens below were captured from the pre-refactor
 * implementation (seed commit d4521ab) with the deterministic traffic
 * schedule generated in this file; any behavioral drift in the hot
 * path shows up as a fingerprint mismatch.
 *
 * A second set of tests asserts the steady-state zero-allocation
 * property itself, via the counting operator new/delete installed in
 * this binary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cctype>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/network.hh"
#include "topo/table4.hh"

// --- counting global allocator ---------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace snoc {
namespace {

// --- deterministic traffic + fingerprint ------------------------------------

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

/** Works with both the shared_ptr and the borrowed-reference
 *  delivery-callback signatures, so the goldens carry across the
 *  refactor unchanged. */
inline const Packet &
asPacket(const Packet &p)
{
    return p;
}

template <typename T>
const Packet &
asPacket(const T &p)
{
    return *p;
}

struct Fingerprint
{
    std::uint64_t deliveryHash = 1469598103934665603ULL; // FNV basis
    std::uint64_t packets = 0;
    SimCounters counters;
    bool drained = false;
};

Fingerprint
runFingerprint(const std::string &topoId, const std::string &routerCfg,
               RoutingMode mode)
{
    Network net(makeNamedTopology(topoId), RouterConfig::named(routerCfg),
                LinkConfig{}, mode, /*seed=*/7);
    Fingerprint fp;
    net.setDeliveryCallback([&fp](const auto &d) {
        const Packet &p = asPacket(d);
        fnv(fp.deliveryHash, p.id);
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.srcNode));
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.dstNode));
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.sizeFlits));
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.hops));
        fnv(fp.deliveryHash, p.createdAt);
        fnv(fp.deliveryHash, p.injectedAt);
        fnv(fp.deliveryHash, p.ejectedAt);
        ++fp.packets;
    });

    int nodes = net.topology().numNodes();
    std::uint64_t s = 0xabcdef12 ^ (mode == RoutingMode::UgalL ? 77 : 0);
    for (const char ch : topoId)
        s = s * 131 + static_cast<std::uint64_t>(ch);

    const int sizes[3] = {1, 4, 6};
    for (int c = 0; c < 1200; ++c) {
        for (int k = 0; k < 2; ++k) {
            std::uint64_t r = splitmix(s);
            int src = static_cast<int>(r % static_cast<std::uint64_t>(nodes));
            int dst = static_cast<int>((r >> 20) %
                                       static_cast<std::uint64_t>(nodes));
            if (src == dst)
                continue;
            net.offerPacket(src, dst, sizes[(r >> 40) % 3]);
        }
        net.step();
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0; ++c)
        net.step();
    fp.drained = net.flitsInFlight() == 0 && net.sourceQueueDepth() == 0;
    fp.counters = net.counters();
    return fp;
}

struct Golden
{
    const char *topoId;
    const char *routerCfg;
    RoutingMode mode;
    std::uint64_t deliveryHash;
    std::uint64_t packets;
    // bufferWrites, bufferReads, cbWrites, cbReads, crossbarTraversals,
    // linkFlitHops, flitsInjected, flitsDelivered, packetsInjected,
    // packetsDelivered
    std::uint64_t counters[10];
};

// Captured from the pre-refactor implementation (see file comment).
const Golden kGoldens[] = {
    {"sn_54", "EB-Var", RoutingMode::Minimal, 2639430157430525923ULL, 2359,
     {23082, 23082, 0, 0, 23082, 33522, 8694, 8694, 2359, 2359}},
    {"sn_54", "EB-Var", RoutingMode::UgalL, 6892119119667836727ULL, 2346,
     {24991, 24991, 0, 0, 24991, 37755, 8496, 8496, 2346, 2346}},
    {"cm4", "EB-Var", RoutingMode::Minimal, 15130970296130405403ULL, 2382,
     {51670, 51670, 0, 0, 51670, 42909, 8761, 8761, 2382, 2382}},
    {"cm4", "EB-Var", RoutingMode::UgalL, 10544351002339066447ULL, 2393,
     {57557, 57557, 0, 0, 57557, 48892, 8665, 8665, 2393, 2393}},
    {"sn_54", "CBR-6", RoutingMode::Minimal, 12281713939419675306ULL, 2359,
     {23082, 23082, 1257, 1257, 23082, 33522, 8694, 8694, 2359, 2359}},
    {"cm4", "CBR-6", RoutingMode::Minimal, 15521535991371378789ULL, 2382,
     {51670, 51670, 3020, 3020, 51670, 42909, 8761, 8761, 2382, 2382}},
};

class HotpathEquivalence
    : public ::testing::TestWithParam<Golden>
{
};

TEST_P(HotpathEquivalence, MatchesGoldenCapture)
{
    const Golden &g = GetParam();
    Fingerprint fp = runFingerprint(g.topoId, g.routerCfg, g.mode);
    EXPECT_TRUE(fp.drained) << g.topoId;
    EXPECT_EQ(fp.deliveryHash, g.deliveryHash) << g.topoId;
    EXPECT_EQ(fp.packets, g.packets) << g.topoId;
    const SimCounters &c = fp.counters;
    EXPECT_EQ(c.bufferWrites, g.counters[0]) << g.topoId;
    EXPECT_EQ(c.bufferReads, g.counters[1]) << g.topoId;
    EXPECT_EQ(c.cbWrites, g.counters[2]) << g.topoId;
    EXPECT_EQ(c.cbReads, g.counters[3]) << g.topoId;
    EXPECT_EQ(c.crossbarTraversals, g.counters[4]) << g.topoId;
    EXPECT_EQ(c.linkFlitHops, g.counters[5]) << g.topoId;
    EXPECT_EQ(c.flitsInjected, g.counters[6]) << g.topoId;
    EXPECT_EQ(c.flitsDelivered, g.counters[7]) << g.topoId;
    EXPECT_EQ(c.packetsInjected, g.counters[8]) << g.topoId;
    EXPECT_EQ(c.packetsDelivered, g.counters[9]) << g.topoId;
}

// --- steady-state allocation guard ------------------------------------------

/** Offer `perCycle` random packets from a deterministic stream. */
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

class HotpathAllocation
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(HotpathAllocation, SteadyStateStepIsAllocationFree)
{
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named(GetParam()), LinkConfig{},
                RoutingMode::Minimal, /*seed=*/7);
    net.reservePackets(4096);
    std::uint64_t s = 424242;

    // Warm up: queues, scratch vectors, and the packet arena reach
    // their steady capacities.
    for (int c = 0; c < 500; ++c) {
        offerTraffic(net, s, 2);
        net.step();
    }

    // Loaded steady state: inject + step must not touch the heap.
    std::uint64_t before = g_allocCount.load();
    for (int c = 0; c < 1000; ++c) {
        offerTraffic(net, s, 2);
        net.step();
    }
    EXPECT_EQ(g_allocCount.load() - before, 0u)
        << "loaded steady-state step() allocated";

    // Drain phase: stepping with in-flight traffic only is also
    // allocation-free.
    before = g_allocCount.load();
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    EXPECT_EQ(g_allocCount.load() - before, 0u)
        << "drain-phase step() allocated";
    EXPECT_EQ(net.flitsInFlight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Archs, HotpathAllocation,
                         ::testing::Values("EB-Var", "CBR-6"));

INSTANTIATE_TEST_SUITE_P(
    Goldens, HotpathEquivalence, ::testing::ValuesIn(kGoldens),
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

} // namespace
} // namespace snoc

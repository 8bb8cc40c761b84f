/**
 * @file
 * RNG tests: the recorded stream, determinism, range correctness, and
 * rough uniformity (the experiments' reproducibility rests on these).
 */

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hh"

namespace snoc {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// Recorded stream values. Every golden in the repo depends on this
// exact stream, so any rewrite of the draw must keep them.
constexpr std::uint64_t kDefaultSeedStream[] = {
    0x5530c1deb89725efULL, 0xa9faa1c0e3770917ULL, 0xeba5395d5d10a6f0ULL,
    0x33a8dbb7a385d6cbULL, 0xef3b4c17646a9954ULL, 0x338137c3981f661dULL,
    0xbe5eb01e9c6a22b7ULL, 0xf4ce70d2a8000053ULL,
};
constexpr std::uint64_t kSeed1Stream[] = {
    0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
    0x642e1c7bc266a3a7ULL, 0xb27a48e29a233673ULL, 0x24c123126ffda722ULL,
    0x123004ef8df510e6ULL, 0x61954dcc47b1e89dULL,
};

TEST(Rng, StreamMatchesRecordedValues)
{
    Rng def;
    Rng one(1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(def.next(), kDefaultSeedStream[i]) << i;
        EXPECT_EQ(one.next(), kSeed1Stream[i]) << i;
    }
}

TEST(Rng, NextDoubleMatchesRecordedValues)
{
    constexpr double kDefault[] = {
        0x1.54c3077ae25c8p-2, 0x1.53f54381c6ee1p-1, 0x1.d74a72baba214p-1,
        0x1.9d46ddbd1c2e8p-3, 0x1.de76982ec8d53p-1, 0x1.9c09be1cc0fbp-3,
        0x1.7cbd603d38d44p-1, 0x1.e99ce1a55p-1,
    };
    constexpr double kOne[] = {
        0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1,
        0x1.90b871ef099a8p-2, 0x1.64f491c534466p-1, 0x1.260918937fedp-3,
        0x1.23004ef8df51p-4,  0x1.865537311ec7ap-2,
    };
    Rng def;
    Rng one(1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(def.nextDouble(), kDefault[i]) << i;
        EXPECT_EQ(one.nextDouble(), kOne[i]) << i;
        // nextDouble is the top 53 bits of one next().
        EXPECT_EQ(kDefault[i],
                  static_cast<double>(kDefaultSeedStream[i] >> 11) *
                      0x1.0p-53);
    }
}

TEST(Rng, NextBoolMatchesRecordedValues)
{
    constexpr bool kHalf[] = {true,  false, false, true,
                              false, true,  false, false};
    for (double p : {0.0, 1e-3, 0.5, 1.0}) {
        Rng rng;
        for (int i = 0; i < 8; ++i) {
            bool expect = p == 1.0 || (p == 0.5 && kHalf[i]);
            EXPECT_EQ(rng.nextBool(p), expect) << p << " " << i;
        }
        // Every trial consumes exactly one next(), whatever p is.
        Rng ref;
        for (int i = 0; i < 8; ++i)
            ref.next();
        EXPECT_EQ(rng.next(), ref.next()) << p;
    }
    // The first success at p = 1e-3 comes at draw 321 (seed default)
    // and 1597 (seed 1).
    for (auto [seed, first] : {std::pair<std::uint64_t, int>{
                                   0x5eed5eed5eed5eedULL, 321},
                               std::pair<std::uint64_t, int>{1, 1597}}) {
        Rng rng(seed);
        int i = 0;
        while (!rng.nextBool(1e-3))
            ++i;
        EXPECT_EQ(i, first) << seed;
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextUintInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 2000; ++i)
            EXPECT_LT(rng.nextUint(bound), bound);
    }
}

TEST(Rng, NextUintRoughlyUniform)
{
    Rng rng(11);
    const std::uint64_t bound = 10;
    std::vector<int> counts(bound, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextUint(bound)];
    for (std::uint64_t v = 0; v < bound; ++v) {
        double expected = draws / static_cast<double>(bound);
        EXPECT_NEAR(counts[v], expected, 0.1 * expected) << v;
    }
}

TEST(Rng, NextIntInclusiveRange)
{
    Rng rng(13);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.nextInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(17);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        if (rng.nextBool(0.3))
            ++hits;
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(23);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[static_cast<std::size_t>(i)] = i;
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, GeometricMeanApproximatesExpectation)
{
    Rng rng(29);
    double p = 0.4;
    double sum = 0.0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    EXPECT_NEAR(sum / draws, 1.0 / p, 0.1 / p);
    EXPECT_EQ(rng.nextGeometric(1.0), 1u);
}

} // namespace
} // namespace snoc

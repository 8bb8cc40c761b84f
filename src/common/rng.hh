/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (random layouts, synthetic
 * traffic, trace generation) draw from Rng so that every experiment is
 * reproducible from a single 64-bit seed. The generator is
 * xoshiro256**, seeded through SplitMix64, both public-domain
 * algorithms by Blackman and Vigna.
 */

#ifndef SNOC_COMMON_RNG_HH
#define SNOC_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace snoc {

/** xoshiro256** generator with convenience sampling helpers. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Raw 64 random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Satisfy UniformRandomBitGenerator so <random> adapters work. */
    std::uint64_t operator()() { return next(); }
    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextUint(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1): the top 53 bits of one next(). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p (one next()). */
    bool nextBool(double p) { return nextDouble() < p; }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextUint(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Sample from a geometric-ish burst length >= 1 with mean 1/p. */
    std::uint64_t nextGeometric(double p);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace snoc

#endif // SNOC_COMMON_RNG_HH

#include "common/rng.hh"

#include <cmath>

#include "common/log.hh"

namespace snoc {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &w : state_)
        w = splitMix64(s);
}

std::uint64_t
Rng::nextUint(std::uint64_t bound)
{
    SNOC_ASSERT(bound > 0, "nextUint bound must be positive");
    // Modulo with rejection, as in OpenBSD's arc4random_uniform: drop
    // draws below 2^64 mod bound so the accepted range is a whole
    // multiple of bound and the modulo carries no bias.
    std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInt(std::int64_t lo, std::int64_t hi)
{
    SNOC_ASSERT(lo <= hi, "nextInt range is empty");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextUint(span));
}

std::uint64_t
Rng::nextGeometric(double p)
{
    if (p >= 1.0)
        return 1;
    if (p <= 0.0)
        return 1;
    double u = nextDouble();
    double len = std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
    if (len < 1.0)
        len = 1.0;
    return static_cast<std::uint64_t>(len);
}

} // namespace snoc

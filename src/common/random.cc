/**
 * @file
 * Implementation of the deterministic random number generator.
 */

#include "common/random.hh"

#include <cmath>

#include "common/hash.hh"
#include "common/logging.hh"

namespace tdp {

uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
hashString(const std::string &s)
{
    // FNV-1a over the bytes, then one SplitMix64 finalization round to
    // spread low-entropy inputs across all 64 bits.
    uint64_t h = fnv1a64(s.data(), s.size());
    return splitMix64(h);
}

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

Rng::Rng(uint64_t parent_seed, const std::string &stream_name)
    : Rng(parent_seed ^ hashString(stream_name))
{
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("uniformInt: lo (%lld) > hi (%lld)",
              static_cast<long long>(lo), static_cast<long long>(hi));
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return lo + static_cast<int64_t>(draw % span);
}

double
Rng::gaussianPair()
{
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        panic("exponential: rate must be positive, got %g", rate);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

uint64_t
Rng::poisson(double mean)
{
    if (mean < 0.0)
        panic("poisson: mean must be non-negative, got %g", mean);
    if (mean == 0.0)
        return 0;
    if (mean > 64.0) {
        // Normal approximation with continuity correction; adequate for
        // the large event counts that occur per simulation quantum.
        const double draw = gaussian(mean, std::sqrt(mean));
        return draw <= 0.0 ? 0 : static_cast<uint64_t>(draw + 0.5);
    }
    const double limit = std::exp(-mean);
    uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
        ++count;
        product *= uniform();
    }
    return count;
}

} // namespace tdp

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (sensor noise, seek
 * distances, sampling jitter, ...) draws from Rng instances seeded from
 * an experiment-level master seed, so every run is reproducible
 * bit-for-bit. The generator is xoshiro256++ seeded via SplitMix64,
 * which is fast, has a 2^256-1 period and passes BigCrush.
 */

#ifndef TDP_COMMON_RANDOM_HH
#define TDP_COMMON_RANDOM_HH

#include <cstdint>
#include <string>

namespace tdp {

/** SplitMix64 step; used for seeding and cheap hashing. */
uint64_t splitMix64(uint64_t &state);

/** Stable 64-bit hash of a string (FNV-1a finalized by SplitMix64). */
uint64_t hashString(const std::string &s);

/**
 * xoshiro256++ pseudo-random generator with convenience distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Construct a stream derived from a parent seed and a stream name.
     * Distinct names give statistically independent streams, so
     * components can be added/removed without perturbing each other's
     * draws.
     */
    Rng(uint64_t parent_seed, const std::string &stream_name);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller with a cached spare. */
    double
    gaussian()
    {
        if (hasSpare_) {
            hasSpare_ = false;
            return spare_;
        }
        return gaussianPair();
    }

    /** Normal with the given mean and standard deviation. */
    double
    gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Bernoulli trial with probability p of true. */
    bool bernoulli(double p);

    /**
     * Poisson-distributed count with the given mean. Uses Knuth's
     * algorithm for small means and a normal approximation above 64,
     * which is ample for per-quantum event counts.
     */
    uint64_t poisson(double mean);

  private:
    /** Draw a fresh Box-Muller pair: return one, cache the other. */
    double gaussianPair();

    uint64_t s_[4];
    double spare_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace tdp

#endif // TDP_COMMON_RANDOM_HH

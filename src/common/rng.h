/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (workload synthesis, fold
 * shuffling, learner initialization) draw from Rng so that every
 * experiment is reproducible from a single seed. The generator is
 * xoshiro256**, which is fast, has a 256-bit state and passes BigCrush.
 *
 * Rng instances are plain mutable state — there are no globals and no
 * internal locking — so an instance must never be shared across pool
 * tasks. Parallel loops draw everything they need before dispatch or
 * give each task its own seed-derived instance (see common/parallel.h).
 */

#ifndef MTPERF_COMMON_RNG_H_
#define MTPERF_COMMON_RNG_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mtperf {

/**
 * A seedable xoshiro256** generator with the distribution helpers the
 * library needs. Satisfies the UniformRandomBitGenerator concept so it
 * can also be handed to <random> and <algorithm> facilities.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Reseed the generator, discarding all previous state. */
    void seed(std::uint64_t seed);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    std::uint64_t operator()() { return next(); }
    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p);

    /** Standard normal via Box-Muller (cached second variate). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential with rate @p lambda. @pre lambda > 0. */
    double exponential(double lambda);

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(static_cast<std::uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    /** uniformInt's Lemire rejection loop, entered when the low word
     *  of the first product @p m falls below @p n. */
    std::uint64_t uniformIntRejecting(std::uint64_t n, __uint128_t m);

    /** The panic behind uniformInt's n > 0 check, off the hot path. */
    [[noreturn, gnu::cold]] static void uniformIntOfZero();

    std::uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

// The draws the workload generator makes per simulated instruction are
// defined here so they inline into it.

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0) [[unlikely]]
        uniformIntOfZero();
    // Lemire's nearly-divisionless bounded draw with rejection.
    const __uint128_t m = static_cast<__uint128_t>(next()) * n;
    if (static_cast<std::uint64_t>(m) < n) [[unlikely]]
        return uniformIntRejecting(n, m);
    return static_cast<std::uint64_t>(m >> 64);
}

inline bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

/**
 * A Zipf(n, s) sampler: integers in [0, n) with exponent s, drawn by
 * rejection-inversion (Hormann & Derflinger), which is O(1) per draw
 * where inversion over a CDF would not be. The transcendental
 * constants are precomputed, so callers that sample the same
 * distribution repeatedly (the workload generator draws millions of
 * addresses per section from fixed footprints) keep one per footprint
 * and re-target it with setParams().
 *
 * The acceptance bound H(k + 0.5) - h(k) of the first kBoundTable
 * ranks is tabulated too. It depends on (s, k) only, so setParams()
 * keeps the table while s is unchanged and only extends it when n
 * grows. The squeeze test k - x <= H(1.5) - 1 never passes, since
 * H(1.5) - 1 < -0.5 < k - x for every s > 0, so without the table
 * every draw would pay the four libm calls of the exact bound.
 */
class ZipfSampler
{
  public:
    /** Trivial sampler over a single value (always returns 0). */
    ZipfSampler() = default;

    /** Precompute constants for Zipf over [0, n) with exponent s. */
    ZipfSampler(std::uint64_t n, double s);

    /**
     * Re-target to Zipf over [0, n) with exponent s. Draws are the
     * same as from a freshly constructed ZipfSampler(n, s).
     */
    void setParams(std::uint64_t n, double s);

    /** Draw one value in [0, n), consuming uniforms from @p rng. */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t n() const { return n_; }
    double s() const { return s_; }

  private:
    /** Ranks whose acceptance bound is tabulated. */
    static constexpr std::uint64_t kBoundTable = 4096;

    std::uint64_t n_ = 1;
    double s_ = 0.0;
    double hX1_ = 0.0;  //!< h_integral(1.5) - 1
    double d_ = 0.0;    //!< h_integral(0.5)
    double span_ = 0.0; //!< h_integral(n + 0.5) - d
    /** bound_[k - 1]: acceptance bound of rank k, for s_. Empty until
     *  the constants above are computed for s_. */
    std::vector<double> bound_;
};

/**
 * A geometric sampler: the number of failures before the first
 * success, success probability p in (0, 1], by inversion. log1p(-p)
 * is computed once at construction; the workload generator builds one
 * per phase and draws from it on most instructions.
 */
class GeometricSampler
{
  public:
    /** p = 1: always returns 0 without consuming a draw. */
    GeometricSampler() = default;

    /** @pre p in (0, 1]. */
    explicit GeometricSampler(double p);

    /** Draw one value, consuming uniforms from @p rng unless p = 1. */
    std::uint64_t
    sample(Rng &rng) const
    {
        if (p_ >= 1.0)
            return 0;
        double u;
        do {
            u = rng.uniform();
        } while (u <= 0.0);
        return static_cast<std::uint64_t>(std::log(u) / log1mP_);
    }

  private:
    double p_ = 1.0;
    double log1mP_ = 0.0; //!< log1p(-p)
};

} // namespace mtperf

#endif // MTPERF_COMMON_RNG_H_

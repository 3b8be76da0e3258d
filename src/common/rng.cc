#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mtperf {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s_)
        word = splitmix64(sm);
    hasCachedNormal_ = false;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformIntRejecting(std::uint64_t n, __uint128_t m)
{
    const std::uint64_t threshold = -n % n;
    while (static_cast<std::uint64_t>(m) < threshold)
        m = static_cast<__uint128_t>(next()) * n;
    return static_cast<std::uint64_t>(m >> 64);
}

void
Rng::uniformIntOfZero()
{
    mtperf_panic("uniformInt(0) is undefined");
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double lambda)
{
    mtperf_assert(lambda > 0.0, "exponential rate must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

GeometricSampler::GeometricSampler(double p) : p_(p)
{
    mtperf_assert(p > 0.0 && p <= 1.0, "geometric p out of range");
    log1mP_ = std::log1p(-p);
}

namespace {

// Rejection-inversion sampling (Hormann & Derflinger 1996). The
// helper H is the antiderivative of x^-s generalized to s == 1.
double
zipfHIntegral(double e, double x)
{
    const double log_x = std::log(x);
    if (std::abs(1.0 - e) < 1e-12)
        return log_x;
    return std::expm1((1.0 - e) * log_x) / (1.0 - e);
}

double
zipfH(double e, double x)
{
    return std::exp(-e * std::log(x));
}

double
zipfHIntegralInverse(double e, double x)
{
    if (std::abs(1.0 - e) < 1e-12)
        return std::exp(x);
    double t = x * (1.0 - e);
    if (t < -1.0)
        t = -1.0;
    return std::exp(std::log1p(t) / (1.0 - e));
}

/**
 * u >= this accepts rank @p k. Out of line, so the table fill and the
 * k > kBoundTable fallback run the same instructions and agree to the
 * bit.
 */
[[gnu::noinline]] double
zipfAcceptBound(double e, double k)
{
    return zipfHIntegral(e, k + 0.5) - zipfH(e, k);
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
{
    setParams(n, s);
}

void
ZipfSampler::setParams(std::uint64_t n, double s)
{
    mtperf_assert(n > 0, "zipf over empty support");
    n_ = n;
    if (std::bit_cast<std::uint64_t>(s) !=
        std::bit_cast<std::uint64_t>(s_)) {
        s_ = s;
        bound_.clear();
    }
    if (n == 1)
        return; // sample() draws nothing
    if (bound_.empty()) {
        hX1_ = zipfHIntegral(s_, 1.5) - 1.0;
        d_ = zipfHIntegral(s_, 0.5);
    }
    const std::uint64_t rows = std::min(n, kBoundTable);
    for (std::uint64_t k = bound_.size() + 1; k <= rows; ++k)
        bound_.push_back(zipfAcceptBound(s_, static_cast<double>(k)));
    span_ = zipfHIntegral(s_, static_cast<double>(n_) + 0.5) - d_;
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    if (n_ == 1)
        return 0;

    for (;;) {
        const double u = d_ + span_ * rng.uniform();
        const double x = zipfHIntegralInverse(s_, u);
        double k = std::floor(x + 0.5);
        if (k < 1.0)
            k = 1.0;
        else if (k > static_cast<double>(n_))
            k = static_cast<double>(n_);
        const auto rank = static_cast<std::uint64_t>(k);
        if (k - x <= hX1_ ||
            u >= (rank <= bound_.size() ? bound_[rank - 1]
                                        : zipfAcceptBound(s_, k))) {
            return rank - 1;
        }
    }
}

} // namespace mtperf

/**
 * @file
 * Tests for the bagged M5' ensemble.
 */

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/eval/metrics.h"
#include "ml/tree/bagged_m5.h"

namespace mtperf {
namespace {

Dataset
noisyPiecewise(std::size_t n, std::uint64_t seed)
{
    Dataset ds(Schema(std::vector<std::string>{"x0", "x1", "x2"}, "y"));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        const double x2 = rng.uniform();
        const double y = (x0 <= 0.5 ? 1.0 + 2.0 * x1 : 8.0 - 3.0 * x1) +
                         rng.normal(0.0, 0.6);
        ds.addRow(std::vector<double>{x0, x1, x2}, y);
    }
    return ds;
}

BaggedM5Options
smallEnsemble()
{
    BaggedM5Options o;
    o.treeOptions.minInstances = 40;
    o.bags = 8;
    return o;
}

TEST(BaggedM5, TrainsRequestedNumberOfTrees)
{
    BaggedM5 ensemble(smallEnsemble());
    ensemble.fit(noisyPiecewise(800, 1));
    EXPECT_EQ(ensemble.numTrees(), 8u);
    EXPECT_GE(ensemble.tree(0).numLeaves(), 1u);
}

TEST(BaggedM5, AtLeastAsAccurateAsSingleTreeOnNoisyData)
{
    const Dataset train = noisyPiecewise(1200, 2);
    const Dataset test = noisyPiecewise(400, 3);

    M5Prime single(smallEnsemble().treeOptions);
    single.fit(train);
    BaggedM5 ensemble(smallEnsemble());
    ensemble.fit(train);

    const auto single_m =
        computeMetrics(test.targets(), single.predictAll(test));
    const auto bagged_m =
        computeMetrics(test.targets(), ensemble.predictAll(test));
    EXPECT_LE(bagged_m.rmse, single_m.rmse * 1.05);
    EXPECT_GT(bagged_m.correlation, 0.9);
}

TEST(BaggedM5, PredictionIsMemberAverage)
{
    BaggedM5 ensemble(smallEnsemble());
    const Dataset ds = noisyPiecewise(600, 4);
    ensemble.fit(ds);
    const std::vector<double> row{0.3, 0.6, 0.5};
    double acc = 0.0;
    for (std::size_t t = 0; t < ensemble.numTrees(); ++t)
        acc += ensemble.tree(t).predict(row);
    EXPECT_DOUBLE_EQ(ensemble.predict(row),
                     acc / double(ensemble.numTrees()));
}

TEST(BaggedM5, DeterministicForSeed)
{
    const Dataset ds = noisyPiecewise(600, 5);
    BaggedM5 a(smallEnsemble()), b(smallEnsemble());
    a.fit(ds);
    b.fit(ds);
    EXPECT_DOUBLE_EQ(a.predict(std::vector<double>{0.2, 0.2, 0.2}),
                     b.predict(std::vector<double>{0.2, 0.2, 0.2}));

    BaggedM5Options other = smallEnsemble();
    other.seed = 99;
    BaggedM5 c(other);
    c.fit(ds);
    EXPECT_NE(a.predict(std::vector<double>{0.2, 0.2, 0.2}),
              c.predict(std::vector<double>{0.2, 0.2, 0.2}));
}

TEST(BaggedM5, SplitFrequencyFindsTheRealVariable)
{
    // Shallow trees (high leaf floor) keep only load-bearing splits,
    // so the frequency signal separates the real regime variable from
    // the pure-noise input.
    BaggedM5Options o = smallEnsemble();
    o.treeOptions.minInstances = 300;
    BaggedM5 ensemble(o);
    ensemble.fit(noisyPiecewise(1500, 6));
    const auto frequency = ensemble.splitFrequency();
    ASSERT_EQ(frequency.size(), 3u);
    // x0 carries the regime change; x2 is pure noise.
    EXPECT_EQ(frequency[0], ensemble.numTrees());
    EXPECT_LT(frequency[2], ensemble.numTrees());
}

TEST(BaggedM5, InvalidOptionsAndInputsThrow)
{
    BaggedM5Options zero;
    zero.bags = 0;
    EXPECT_THROW(BaggedM5{zero}, FatalError);

    // Tree options are checked when the ensemble is built, not when
    // its first bag is fit, and the message names the ensemble.
    const auto expectRejected = [](const BaggedM5Options &options) {
        try {
            BaggedM5 ensemble(options);
            ADD_FAILURE() << "invalid tree options were accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("BaggedM5"),
                      std::string::npos)
                << e.what();
        }
    };
    BaggedM5Options inf_k;
    inf_k.treeOptions.smoothingK =
        std::numeric_limits<double>::infinity();
    expectRejected(inf_k);
    BaggedM5Options nan_sd;
    nan_sd.treeOptions.sdFraction = std::nan("");
    expectRejected(nan_sd);
    BaggedM5Options no_min;
    no_min.treeOptions.minInstances = 0;
    expectRejected(no_min);

    Dataset empty(Schema(std::vector<std::string>{"x"}, "y"));
    BaggedM5 ensemble;
    EXPECT_THROW(ensemble.fit(empty), FatalError);
}

} // namespace
} // namespace mtperf

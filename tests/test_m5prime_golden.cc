/**
 * @file
 * Golden pins of the tree learners' output bytes: a fixed dataset's
 * saved M5' model and its 10-fold out-of-fold predictions, for
 * m5prime, bagged-m5, m5rules and the CART baseline (pruned and
 * unpruned), and a larger dataset's saved M5' model and in-sample
 * cart and m5rules predictions, at one and four threads. Any change to
 * these CRCs moves every model and prediction downstream and must be a
 * deliberate re-baseline.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/parallel.h"
#include "ml/eval/cross_validation.h"
#include "ml/registry.h"
#include "golden_datasets.h"
#include "ml/tree/m5prime.h"
#include "obs/metrics.h"

namespace mtperf {
namespace {

std::uint32_t
predictionsCrc(const std::vector<double> &predictions)
{
    return crc32(predictions.data(),
                 predictions.size() * sizeof(double));
}

class M5GoldenTest : public testing::TestWithParam<std::size_t>
{
  protected:
    void SetUp() override { setGlobalThreadCount(GetParam()); }
    void TearDown() override { setGlobalThreadCount(0); }
};

TEST_P(M5GoldenTest, SavedModelBytesArePinned)
{
    M5Options options;
    options.minInstances = 30;
    M5Prime tree(options);
    tree.fit(goldenDataset());
    std::ostringstream os;
    tree.save(os);
    EXPECT_EQ(tree.numLeaves(), 5u);
    EXPECT_EQ(crc32(os.str()), 0x190d272eu);
}

TEST_P(M5GoldenTest, M5PrimeOutOfFoldPredictionsArePinned)
{
    const auto cv =
        crossValidate("m5prime:min-instances=30", goldenDataset(), 10, 7);
    EXPECT_EQ(predictionsCrc(cv.predictions), 0x81869316u);
}

TEST_P(M5GoldenTest, BaggedM5OutOfFoldPredictionsArePinned)
{
    const auto cv = crossValidate("bagged-m5:min-instances=30,bags=4",
                                  goldenDataset(), 10, 7);
    EXPECT_EQ(predictionsCrc(cv.predictions), 0x5b37fe88u);
}

TEST_P(M5GoldenTest, M5RulesOutOfFoldPredictionsArePinned)
{
    const auto cv =
        crossValidate("m5rules:min-instances=30", goldenDataset(), 10, 7);
    EXPECT_EQ(predictionsCrc(cv.predictions), 0xd23f0eb5u);
}

TEST_P(M5GoldenTest, CartOutOfFoldPredictionsArePinned)
{
    const auto cv = crossValidate("cart", goldenDataset(), 10, 7);
    EXPECT_EQ(predictionsCrc(cv.predictions), 0x5822e184u);
}

TEST_P(M5GoldenTest, UnprunedCartOutOfFoldPredictionsArePinned)
{
    const auto cv = crossValidate("cart:prune=off", goldenDataset(), 10, 7);
    EXPECT_EQ(predictionsCrc(cv.predictions), 0xa01b0949u);
}

INSTANTIATE_TEST_SUITE_P(Threads, M5GoldenTest, testing::Values(1u, 4u));

/**
 * The same pins on largeGoldenDataset(), a fit large enough that its
 * presort, split searches, partitions and node models run on the pool
 * at four threads. The learners are fit on the whole dataset, outside
 * any pool task, so nothing forces them inline. Each test also checks
 * that the fanned-out search ran on four threads and not on one.
 */
class M5LargeGoldenTest : public M5GoldenTest
{
  protected:
    void
    SetUp() override
    {
        M5GoldenTest::SetUp();
        parallelNodesBefore_ = parallelNodes().value();
    }

    void
    TearDown() override
    {
        const std::uint64_t fanned_out =
            parallelNodes().value() - parallelNodesBefore_;
        if (GetParam() == 1)
            EXPECT_EQ(fanned_out, 0u);
        else
            EXPECT_GE(fanned_out, 4u);
        M5GoldenTest::TearDown();
    }

    /** CRC of @p spec's in-sample predictions on the large dataset. */
    static std::uint32_t
    inSampleCrc(const std::string &spec)
    {
        const Dataset ds = largeGoldenDataset();
        auto learner = RegressorFactory::create(spec);
        learner->fit(ds);
        return predictionsCrc(learner->predictAll(ds));
    }

  private:
    static obs::Counter &
    parallelNodes()
    {
        return obs::counter("tree.parallel_nodes");
    }

    std::uint64_t parallelNodesBefore_ = 0;
};

TEST_P(M5LargeGoldenTest, SavedModelBytesArePinned)
{
    M5Options options;
    options.minInstances = 100;
    M5Prime tree(options);
    tree.fit(largeGoldenDataset());
    std::ostringstream os;
    tree.save(os);
    EXPECT_EQ(tree.numLeaves(), 16u);
    EXPECT_EQ(crc32(os.str()), 0xb9a4c22cu);
}

TEST_P(M5LargeGoldenTest, CartInSamplePredictionsArePinned)
{
    EXPECT_EQ(inSampleCrc("cart"), 0x8843af3au);
}

TEST_P(M5LargeGoldenTest, M5RulesInSamplePredictionsArePinned)
{
    EXPECT_EQ(inSampleCrc("m5rules:min-instances=30"), 0x78dcc192u);
}

INSTANTIATE_TEST_SUITE_P(Threads, M5LargeGoldenTest,
                         testing::Values(1u, 4u));

} // namespace
} // namespace mtperf

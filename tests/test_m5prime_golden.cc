/**
 * @file
 * Golden pins of the tree learners' output bytes: a fixed dataset's
 * saved M5' model and its 10-fold out-of-fold predictions, for
 * m5prime, bagged-m5, m5rules and the CART baseline (pruned and
 * unpruned), at one and four threads. Any change to these CRCs moves
 * every model and prediction downstream and must be a deliberate
 * re-baseline.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/eval/cross_validation.h"
#include "ml/tree/m5prime.h"

namespace mtperf {
namespace {

/**
 * Counter-like rows with the two degeneracies of the suite CSV.
 * "l2m_dup" copies "l2m" in every row, as DtlbLdReM copies DtlbLdM, so
 * every split on "l2m" ties with one on its copy. "fp" is an event most
 * rows never fire: on the side of an "fp" split that holds those rows
 * the column is all zero, so every fit there that regresses on it
 * meets a singular Gram system and takes the ridge branch.
 */
Dataset
goldenDataset()
{
    Dataset ds(Schema(
        std::vector<std::string>{"l2m", "l2m_dup", "itlb", "fp", "noise"},
        "CPI"));
    Rng rng(2007);
    for (std::size_t i = 0; i < 900; ++i) {
        const double l2m = rng.uniform(0.0, 0.02);
        const double itlb = rng.uniform(0.0, 0.004);
        const double fp = rng.chance(0.4) ? rng.uniform(0.1, 0.3) : 0.0;
        const double noise = rng.normal();
        const double knee = l2m > 0.008 ? 90.0 * (l2m - 0.008) : 0.0;
        const double cpi = 0.55 + 30.0 * l2m + knee + 140.0 * itlb +
                           2.5 * fp + rng.normal(0.0, 0.05);
        ds.addRow(std::vector<double>{l2m, l2m, itlb, fp, noise}, cpi);
    }
    return ds;
}

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

} // namespace
} // namespace mtperf

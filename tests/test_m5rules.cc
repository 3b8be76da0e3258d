/**
 * @file
 * Tests for the M5Rules decision-list learner.
 */

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/eval/metrics.h"
#include "ml/tree/m5rules.h"

namespace mtperf {
namespace {

Dataset
piecewiseDataset(std::size_t n, double noise, std::uint64_t seed = 41)
{
    Dataset ds(Schema(std::vector<std::string>{"x0", "x1"}, "y"));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        const double y = x0 <= 0.5 ? 1.0 + 2.0 * x1 : 10.0 - 3.0 * x1;
        ds.addRow(std::vector<double>{x0, x1},
                  y + rng.normal(0.0, noise));
    }
    return ds;
}

M5RulesOptions
smallOptions()
{
    M5RulesOptions o;
    o.treeOptions.minInstances = 30;
    return o;
}

TEST(M5Rules, AccuracyComparableToTree)
{
    const Dataset train = piecewiseDataset(1500, 0.1, 1);
    const Dataset test = piecewiseDataset(400, 0.1, 2);
    M5Rules rules(smallOptions());
    rules.fit(train);
    const auto m = computeMetrics(test.targets(),
                                  rules.predictAll(test));
    EXPECT_GT(m.correlation, 0.99);
    EXPECT_LT(m.rae, 0.1);
}

TEST(M5Rules, EveryTrainingRowIsCovered)
{
    const Dataset ds = piecewiseDataset(1000, 0.2);
    M5Rules rules(smallOptions());
    rules.fit(ds);
    ASSERT_FALSE(rules.rules().empty());
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const std::size_t rule = rules.ruleIndexFor(ds.row(r));
        EXPECT_LT(rule, rules.rules().size());
        EXPECT_TRUE(rules.rules()[rule].matches(ds.row(r)));
    }
}

TEST(M5Rules, LastRuleIsDefault)
{
    const Dataset ds = piecewiseDataset(1000, 0.2);
    M5Rules rules(smallOptions());
    rules.fit(ds);
    EXPECT_TRUE(rules.rules().back().conditions.empty());
}

TEST(M5Rules, CoverageCountsSumToTrainingSize)
{
    const Dataset ds = piecewiseDataset(1200, 0.2);
    M5Rules rules(smallOptions());
    rules.fit(ds);
    std::size_t covered = 0;
    for (const auto &rule : rules.rules())
        covered += rule.covered;
    EXPECT_EQ(covered, ds.size());
}

TEST(M5Rules, OrderedApplication)
{
    // A row matching rule 1's conditions must be predicted by rule 1
    // even if later rules would also match (the default always does).
    const Dataset ds = piecewiseDataset(1000, 0.1);
    M5Rules rules(smallOptions());
    rules.fit(ds);
    if (rules.rules().size() < 2)
        GTEST_SKIP() << "dataset collapsed to one rule";
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const std::size_t first = rules.ruleIndexFor(ds.row(r));
        for (std::size_t j = 0; j < first; ++j)
            EXPECT_FALSE(rules.rules()[j].matches(ds.row(r)));
    }
}

TEST(M5Rules, MaxRulesTruncatesList)
{
    const Dataset ds = piecewiseDataset(2000, 0.3);
    M5RulesOptions o = smallOptions();
    o.treeOptions.minInstances = 20;
    o.maxRules = 2;
    M5Rules rules(o);
    rules.fit(ds);
    EXPECT_LE(rules.rules().size(), 2u);
    // Still predicts for everything.
    EXPECT_NO_THROW(rules.predict(std::vector<double>{0.9, 0.9}));
}

TEST(M5Rules, ToStringListsRulesInOrder)
{
    const Dataset ds = piecewiseDataset(1000, 0.1);
    M5Rules rules(smallOptions());
    rules.fit(ds);
    const std::string text = rules.toString();
    EXPECT_NE(text.find("Rule 1:"), std::string::npos);
    EXPECT_NE(text.find("OTHERWISE"), std::string::npos);
    if (rules.rules().size() > 1) {
        EXPECT_NE(text.find("IF "), std::string::npos);
    }
}

TEST(M5Rules, RuleMatchesSemantics)
{
    M5Rule rule;
    rule.conditions.push_back({0, 0.5, /*goesRight=*/true});
    rule.conditions.push_back({1, 0.2, /*goesRight=*/false});
    EXPECT_TRUE(rule.matches(std::vector<double>{0.6, 0.1}));
    EXPECT_FALSE(rule.matches(std::vector<double>{0.4, 0.1}));
    EXPECT_FALSE(rule.matches(std::vector<double>{0.6, 0.3}));
}

TEST(M5Rules, SmallDatasetBecomesSingleDefaultRule)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
        const double x = rng.uniform();
        ds.addRow(std::vector<double>{x}, 4.0 * x);
    }
    M5Rules rules(smallOptions()); // minInstances 30 > 30/2
    rules.fit(ds);
    EXPECT_EQ(rules.rules().size(), 1u);
    EXPECT_NEAR(rules.predict(std::vector<double>{0.5}), 2.0, 0.2);
}

TEST(M5Rules, InvalidOptionsThrow)
{
    // Checked when the learner is built: a fit whose rows all fall to
    // the default rule never builds the tree that would reject them.
    const auto expectRejected = [](const M5RulesOptions &options) {
        try {
            M5Rules rules(options);
            ADD_FAILURE() << "invalid tree options were accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("M5Rules"),
                      std::string::npos)
                << e.what();
        }
    };
    M5RulesOptions inf_k;
    inf_k.treeOptions.smoothingK = std::numeric_limits<double>::infinity();
    inf_k.treeOptions.minInstances = 1000;
    expectRejected(inf_k);
    M5RulesOptions nan_sd;
    nan_sd.treeOptions.sdFraction = std::nan("");
    expectRejected(nan_sd);
    M5RulesOptions negative_k;
    negative_k.treeOptions.smoothingK = -1.0;
    expectRejected(negative_k);
    M5RulesOptions no_min;
    no_min.treeOptions.minInstances = 0;
    expectRejected(no_min);
}

TEST(M5Rules, EmptyTrainingThrows)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    M5Rules rules;
    EXPECT_THROW(rules.fit(ds), FatalError);
}

} // namespace
} // namespace mtperf

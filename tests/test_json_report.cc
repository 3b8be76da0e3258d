/**
 * @file
 * Tests for the JSON export of trees and analyses.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "perf/json_report.h"

namespace mtperf::perf {
namespace {

Dataset
twoClassDataset(std::size_t n)
{
    Dataset ds(Schema(std::vector<std::string>{"L2M", "BrMisPr"}, "CPI"));
    Rng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
        const bool hot = rng.chance(0.5);
        const double l2m =
            hot ? rng.uniform(0.08, 0.2) : rng.uniform(0.0, 0.02);
        const double brmis = rng.uniform(0.0, 0.03);
        ds.addRow(std::vector<double>{l2m, brmis},
                  hot ? 1.0 + 60.0 * l2m : 0.5 + 10.0 * brmis,
                  hot ? "mem/x" : "cpu/y");
    }
    return ds;
}

M5Prime
fitted(const Dataset &ds)
{
    M5Options options;
    options.minInstances = 40;
    M5Prime tree(options);
    tree.fit(ds);
    return tree;
}

/**
 * A tiny structural validator: checks balanced braces/brackets and
 * legal comma placement outside strings. Not a full parser, but it
 * catches the classic generator bugs (missing/extra commas,
 * unterminated strings).
 */
void
expectStructurallyValidJson(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    char prev = 0;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            prev = c;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            ++depth;
            break;
          case '}':
          case ']':
            ASSERT_GT(depth, 0) << "unbalanced close";
            --depth;
            ASSERT_NE(prev, ',') << "comma before close";
            break;
          case ',':
            ASSERT_NE(prev, '{') << "comma after open";
            ASSERT_NE(prev, '[') << "comma after open";
            ASSERT_NE(prev, ',') << "double comma";
            break;
          default:
            break;
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            prev = c;
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON";
    EXPECT_FALSE(in_string) << "unterminated string";
}

TEST(JsonReport, EscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonReport, TreeJsonIsStructurallyValid)
{
    const Dataset ds = twoClassDataset(2000);
    const M5Prime tree = fitted(ds);
    const std::string json = treeToJson(tree);
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"target\":\"CPI\""), std::string::npos);
    EXPECT_NE(json.find("\"LM1\""), std::string::npos);
    EXPECT_NE(json.find("\"numLeaves\""), std::string::npos);
    EXPECT_NE(json.find("\"coefficient\""), std::string::npos);
}

TEST(JsonReport, TreeJsonListsEveryLeaf)
{
    const Dataset ds = twoClassDataset(2000);
    const M5Prime tree = fitted(ds);
    const std::string json = treeToJson(tree);
    for (std::size_t leaf = 1; leaf <= tree.numLeaves(); ++leaf) {
        EXPECT_NE(json.find("\"LM" + std::to_string(leaf) + "\""),
                  std::string::npos);
    }
}

TEST(JsonReport, AnalysisJsonIncludesWorkloads)
{
    const Dataset ds = twoClassDataset(2000);
    const M5Prime tree = fitted(ds);
    const std::string json = analysisToJson(tree, ds);
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"classes\""), std::string::npos);
    EXPECT_NE(json.find("\"mem\""), std::string::npos);
    EXPECT_NE(json.find("\"cpu\""), std::string::npos);
    EXPECT_NE(json.find("\"tree\""), std::string::npos);
}

TEST(JsonReport, AnalysisJsonRejectsSchemaMismatch)
{
    const Dataset ds = twoClassDataset(500);
    const M5Prime tree = fitted(ds);
    Dataset wrong(Schema(std::vector<std::string>{"other"}, "CPI"));
    wrong.addRow(std::vector<double>{1.0}, 1.0);
    EXPECT_THROW(analysisToJson(tree, wrong), FatalError);
}

} // namespace
} // namespace mtperf::perf

/**
 * @file
 * Property tests for the shared SDR split search: the presorted
 * incremental implementation must agree bitwise with the brute-force
 * reference at every node of a simulated tree descent, including on
 * duplicate keys, constant columns, signed zeros and exact SDR ties;
 * and the radix presort must give exactly the columns the comparator
 * sort it replaced gave.
 */

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "ml/tree/m5prime.h"
#include "ml/tree/split_search.h"
#include "obs/metrics.h"

namespace mtperf {
namespace {

/**
 * A dataset engineered to stress the search: low-cardinality columns
 * (many duplicate keys), one constant column, and one binary column.
 */
Dataset
awkwardDataset(std::uint64_t seed, std::size_t rows, std::size_t attrs)
{
    std::vector<std::string> names;
    for (std::size_t a = 0; a < attrs; ++a)
        names.push_back("a" + std::to_string(a));
    Dataset ds(Schema(names, "y"));
    Rng rng(seed);
    std::vector<double> row(attrs);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t a = 0; a < attrs; ++a) {
            if (a == 0)
                row[a] = 42.0; // constant column: never splittable
            else if (a == 1)
                row[a] = rng.chance(0.5) ? 0.0 : 1.0;
            else
                // Few distinct values => lots of duplicate keys and
                // ties between boundaries.
                row[a] = static_cast<double>(rng.uniformInt(
                    std::uint64_t(5)));
        }
        ds.addRow(row, rng.uniform() + row[1] + 0.5 * row[attrs - 1]);
    }
    return ds;
}

/**
 * Like awkwardDataset(), but over negative values and both zeros: a
 * column of -0.0/+0.0 only, a low-cardinality column mixing signs and
 * zeros, and one of signed reals.
 */
Dataset
signedDataset(std::uint64_t seed, std::size_t rows)
{
    const std::vector<double> pool{-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 3.0};
    Dataset ds(Schema(
        std::vector<std::string>{"zeros", "mixed", "reals", "pool"}, "y"));
    Rng rng(seed);
    for (std::size_t r = 0; r < rows; ++r) {
        const double zero = rng.chance(0.5) ? -0.0 : 0.0;
        const double mixed = pool[rng.uniformInt(pool.size())];
        const double real = 4.0 * rng.uniform() - 2.0;
        const double picked = pool[rng.uniformInt(pool.size())];
        const std::vector<double> row{zero, mixed, real, picked};
        ds.addRow(row, rng.uniform() + std::abs(mixed) - 0.5 * picked +
                           (std::signbit(zero) ? 0.25 : 0.0));
    }
    return ds;
}

/**
 * Walk a simulated tree: at every node compare the presorted search
 * against the brute-force reference over the same row set, then
 * recurse on the winning split, partitioning both representations;
 * the presorted row-id ranges must hold exactly the value-tested rows.
 */
void
compareRecursively(const Dataset &ds, PresortedColumns &cols,
                   std::vector<std::size_t> rows, std::size_t lo,
                   std::size_t hi, std::size_t min_instances,
                   std::size_t depth, int *nodes_checked)
{
    ++*nodes_checked;
    const SplitChoice fast =
        cols.bestSplit(ds, lo, hi, min_instances);
    const SplitChoice slow =
        bruteForceBestSplit(ds, rows, min_instances);

    ASSERT_EQ(fast.valid, slow.valid)
        << "validity diverged at depth " << depth;
    if (!fast.valid)
        return;
    // Bitwise agreement: same attribute, same threshold double, same
    // SDR double.
    ASSERT_EQ(fast.attr, slow.attr) << "attr diverged at depth " << depth;
    ASSERT_EQ(fast.value, slow.value)
        << "threshold diverged at depth " << depth;
    ASSERT_EQ(fast.sdr, slow.sdr) << "sdr diverged at depth " << depth;

    if (depth >= 4)
        return;

    std::vector<std::size_t> left, right;
    for (std::size_t r : rows) {
        if (ds.value(r, fast.attr) <= fast.value)
            left.push_back(r);
        else
            right.push_back(r);
    }
    const std::size_t mid =
        cols.partition(ds, lo, hi, fast.attr, fast.value);
    ASSERT_EQ(mid - lo, left.size());
    const auto left_ids = cols.rows(lo, mid);
    const auto right_ids = cols.rows(mid, hi);
    ASSERT_TRUE(std::equal(left_ids.begin(), left_ids.end(), left.begin(),
                           left.end()))
        << "left rows diverged at depth " << depth;
    ASSERT_TRUE(std::equal(right_ids.begin(), right_ids.end(),
                           right.begin(), right.end()))
        << "right rows diverged at depth " << depth;

    compareRecursively(ds, cols, std::move(left), lo, mid,
                       min_instances, depth + 1, nodes_checked);
    compareRecursively(ds, cols, std::move(right), mid, hi,
                       min_instances, depth + 1, nodes_checked);
}

TEST(SplitSearch, PresortedMatchesBruteForceDownTheTree)
{
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
        for (const Dataset &ds :
             {awkwardDataset(seed, 400, 6), signedDataset(seed, 400)}) {
            PresortedColumns cols;
            cols.build(ds);
            std::vector<std::size_t> rows(ds.size());
            std::iota(rows.begin(), rows.end(), 0);
            int nodes_checked = 0;
            compareRecursively(ds, cols, std::move(rows), 0, ds.size(), 5,
                               0, &nodes_checked);
            // The descent must actually have exercised several nodes.
            EXPECT_GT(nodes_checked, 3)
                << "seed " << seed << ", " << ds.numAttributes()
                << " attributes";
        }
    }
}

/**
 * The comparator presort PresortedColumns::build ran before the radix
 * sort: row ids by (value ascending, row id ascending), per column.
 */
std::vector<std::vector<std::uint32_t>>
comparatorColumns(const Dataset &ds)
{
    const std::size_t n = ds.size();
    const std::size_t d = ds.numAttributes();
    const double *flat = ds.flatValues().data();
    std::vector<double> keys(n);
    std::vector<std::vector<std::uint32_t>> cols(d);
    for (std::size_t attr = 0; attr < d; ++attr) {
        auto &col = cols[attr];
        col.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            col[i] = static_cast<std::uint32_t>(i);
            keys[i] = flat[i * d + attr];
        }
        const double *k = keys.data();
        std::sort(col.begin(), col.end(),
                  [k](std::uint32_t a, std::uint32_t b) {
                      const double va = k[a];
                      const double vb = k[b];
                      if (va != vb)
                          return va < vb;
                      return a < b;
                  });
    }
    return cols;
}

/** Every column of the radix presort equals the comparator's. */
void
expectComparatorColumns(const Dataset &ds, const std::string &label)
{
    PresortedColumns cols;
    cols.build(ds);
    const auto want = comparatorColumns(ds);
    ASSERT_EQ(cols.size(), ds.size()) << label;
    for (std::size_t attr = 0; attr < ds.numAttributes(); ++attr) {
        const auto got = cols.column(attr);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want[attr].begin(),
                               want[attr].end()))
            << label << ": column " << attr << " diverged";
    }
}

/** A one-attribute-per-column dataset with targets 0..n-1. */
Dataset
columnsDataset(const std::vector<std::vector<double>> &columns)
{
    std::vector<std::string> names;
    for (std::size_t a = 0; a < columns.size(); ++a)
        names.push_back("c" + std::to_string(a));
    Dataset ds(Schema(names, "y"));
    const std::size_t n = columns.empty() ? 0 : columns[0].size();
    std::vector<double> row(columns.size());
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t a = 0; a < columns.size(); ++a)
            row[a] = columns[a][r];
        ds.addRow(row, static_cast<double>(r));
    }
    return ds;
}

TEST(SplitSearch, RadixPresortMatchesTheComparatorSort)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double tiny = std::numeric_limits<double>::denorm_min();
    // Both zeros, subnormals, the normal limits, infinities and a
    // repeated value, drawn at random into one column.
    const std::vector<double> edges{
        -0.0,     0.0,     -1.5,        2.25,     tiny,
        -tiny,    DBL_MIN / 4, -DBL_MIN / 4, DBL_MIN, -DBL_MIN,
        inf,      -inf,    DBL_MAX,     -DBL_MAX, 1e-300,
        -1e-300,  42.0,    42.0,        42.0,     -7e7};
    Rng rng(2718);
    for (std::size_t n : {0u, 1u, 2u, 3u, 50u, 1000u}) {
        std::vector<std::vector<double>> columns(5, std::vector<double>(n));
        for (std::size_t r = 0; r < n; ++r) {
            columns[0][r] = edges[rng.uniformInt(edges.size())];
            columns[1][r] = 42.0; // one repeated value
            columns[2][r] = rng.chance(0.5) ? -0.0 : 0.0;
            // Any bit pattern but NaN: every sign, exponent and
            // mantissa byte.
            double v = std::bit_cast<double>(rng.next());
            while (std::isnan(v))
                v = std::bit_cast<double>(rng.next());
            columns[3][r] = v;
            columns[4][r] = static_cast<double>(rng.uniformInt(
                                std::uint64_t(7))) - 3.0;
        }
        expectComparatorColumns(columnsDataset(columns),
                                "edge values, n = " + std::to_string(n));
    }

    // More rows than a 16-bit counter holds, over three values.
    std::vector<std::vector<double>> three(2, std::vector<double>(70000));
    for (std::size_t r = 0; r < 70000; ++r) {
        three[0][r] = static_cast<double>(rng.uniformInt(std::uint64_t(3)));
        three[1][r] = r % 3 == 0 ? -0.25 : (r % 3 == 1 ? 0.0 : 1e9);
    }
    expectComparatorColumns(columnsDataset(three), "70,000 rows");

    // A bootstrap resample, as bagging draws it: duplicated rows tie on
    // every column and must stay in row id order.
    const Dataset base = signedDataset(31, 300);
    std::vector<std::size_t> picks(base.size());
    for (auto &p : picks)
        p = rng.uniformInt(base.size());
    expectComparatorColumns(base.subset(picks), "bootstrap resample");
    expectComparatorColumns(awkwardDataset(5, 500, 6), "awkward dataset");
}

TEST(SplitSearch, ConstantColumnsNeverSplit)
{
    std::vector<std::string> names{"c0", "c1"};
    Dataset ds(Schema(names, "y"));
    for (int r = 0; r < 50; ++r)
        ds.addRow(std::vector<double>{1.0, 2.0}, static_cast<double>(r));

    std::vector<std::size_t> rows(ds.size());
    std::iota(rows.begin(), rows.end(), 0);
    EXPECT_FALSE(bruteForceBestSplit(ds, rows, 2).valid);

    PresortedColumns cols;
    cols.build(ds);
    EXPECT_FALSE(cols.bestSplit(ds, 0, ds.size(), 2).valid);
}

TEST(SplitSearch, TieBreaksToLowestAttributeThenLowestThreshold)
{
    // Two identical columns: every split on a1 has an exact twin on
    // a0 with the same SDR, so the winner must come from a0.
    std::vector<std::string> names{"a0", "a1"};
    Dataset ds(Schema(names, "y"));
    Rng rng(99);
    for (int r = 0; r < 100; ++r) {
        const double v = static_cast<double>(rng.uniformInt(
            std::uint64_t(4)));
        ds.addRow(std::vector<double>{v, v}, v + 0.01 * rng.uniform());
    }
    std::vector<std::size_t> rows(ds.size());
    std::iota(rows.begin(), rows.end(), 0);
    const SplitChoice best = bruteForceBestSplit(ds, rows, 5);
    ASSERT_TRUE(best.valid);
    EXPECT_EQ(best.attr, 0u);

    // splitBeats itself: higher SDR wins, then lower attr, then lower
    // threshold; an exact duplicate does not displace the incumbent.
    SplitChoice inc;
    inc.valid = true;
    inc.sdr = 1.0;
    inc.attr = 2;
    inc.value = 5.0;
    EXPECT_TRUE(splitBeats(inc, 2.0, 7, 9.0));
    EXPECT_FALSE(splitBeats(inc, 0.5, 0, 0.0));
    EXPECT_TRUE(splitBeats(inc, 1.0, 1, 9.0));
    EXPECT_FALSE(splitBeats(inc, 1.0, 3, 0.0));
    EXPECT_TRUE(splitBeats(inc, 1.0, 2, 4.0));
    EXPECT_FALSE(splitBeats(inc, 1.0, 2, 5.0));
}

TEST(SplitSearch, M5PrimeFitElidesPerNodeSorts)
{
    const Dataset ds = awkwardDataset(7, 600, 6);
    const std::uint64_t before =
        obs::counter("tree.sort_elided").value();

    M5Options options;
    options.minInstances = 20;
    M5Prime tree(options);
    tree.fit(ds);

    const std::uint64_t elided =
        obs::counter("tree.sort_elided").value() - before;
    if (tree.numLeaves() > 1) {
        // Every searched node below the root would have re-sorted all
        // d columns in the old scheme.
        EXPECT_GT(elided, 0u);
        EXPECT_EQ(elided % ds.numAttributes(), 0u);
    }
}

} // namespace
} // namespace mtperf

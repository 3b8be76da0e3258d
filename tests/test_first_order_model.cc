/**
 * @file
 * Tests for the fixed-penalty first-order CPI model.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "ml/baseline/first_order_model.h"

namespace mtperf::perf {
namespace {

using uarch::PerfMetric;

Dataset
perfRow(double l2m, double cpi)
{
    Dataset ds(uarch::perfSchema());
    std::vector<double> row(uarch::kNumPerfMetrics, 0.0);
    row[static_cast<std::size_t>(PerfMetric::L2M)] = l2m;
    ds.addRow(row, cpi);
    return ds;
}

TEST(FirstOrderModel, PenaltiesDeriveFromMachineConfig)
{
    const uarch::CoreConfig config;
    FirstOrderModel model(config);
    EXPECT_DOUBLE_EQ(model.penalty(PerfMetric::L2M),
                     double(config.memLatency - config.l2HitLatency));
    EXPECT_DOUBLE_EQ(model.penalty(PerfMetric::BrMisPr),
                     double(config.mispredictPenalty));
    EXPECT_DOUBLE_EQ(model.penalty(PerfMetric::LCP),
                     double(config.decoder.lcpStallCycles));
    // Pure mix metrics carry no penalty.
    EXPECT_DOUBLE_EQ(model.penalty(PerfMetric::InstLd), 0.0);
    EXPECT_DOUBLE_EQ(model.penalty(PerfMetric::InstOther), 0.0);
}

TEST(FirstOrderModel, FitCalibratesBaseCpi)
{
    const uarch::CoreConfig config;
    const double penalty =
        double(config.memLatency - config.l2HitLatency);
    // Two sections whose CPI is exactly base 0.4 + penalty * L2M.
    Dataset ds = perfRow(0.01, 0.4 + penalty * 0.01);
    ds.append(perfRow(0.03, 0.4 + penalty * 0.03));

    FirstOrderModel model(config);
    model.fit(ds);
    EXPECT_NEAR(model.baseCpi(), 0.4, 1e-9);
    EXPECT_NEAR(model.predict(ds.row(0)), ds.target(0), 1e-9);
}

TEST(FirstOrderModel, PredictIsLinearInEvents)
{
    FirstOrderModel model;
    Dataset ds = perfRow(0.0, 1.0);
    model.fit(ds);
    const double base = model.predict(ds.row(0));

    const Dataset with_miss = perfRow(0.02, 0.0);
    EXPECT_NEAR(model.predict(with_miss.row(0)),
                base + 0.02 * model.penalty(PerfMetric::L2M), 1e-9);
}

TEST(FirstOrderModel, CannotExpressOverlap)
{
    // Two sections with identical counters except that one's misses
    // overlap (lower CPI): a fixed-penalty model must split the
    // difference and err on both.
    FirstOrderModel model;
    Dataset ds = perfRow(0.02, 4.0); // serialized misses
    ds.append(perfRow(0.02, 1.2));   // overlapped misses
    model.fit(ds);
    const double p0 = model.predict(ds.row(0));
    const double p1 = model.predict(ds.row(1));
    EXPECT_DOUBLE_EQ(p0, p1);
    EXPECT_NEAR(p0, 2.6, 1e-9); // the mean, wrong for both
}

TEST(FirstOrderModel, RejectsWrongSchemaWidth)
{
    Dataset ds(Schema(std::vector<std::string>{"a"}, "CPI"));
    ds.addRow(std::vector<double>{1.0}, 1.0);
    FirstOrderModel model;
    EXPECT_THROW(model.fit(ds), FatalError);
}

TEST(FirstOrderModel, EmptyTrainingThrows)
{
    Dataset ds(uarch::perfSchema());
    FirstOrderModel model;
    EXPECT_THROW(model.fit(ds), FatalError);
}

} // namespace
} // namespace mtperf::perf

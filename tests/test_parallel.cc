/**
 * @file
 * Tests for the thread pool and the determinism contract of every
 * parallelized pipeline stage: any thread count must produce output
 * byte-identical to the serial (threads=1) run.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "ml/eval/cross_validation.h"
#include "ml/tree/bagged_m5.h"
#include "obs/metrics.h"
#include "perf/section_collector.h"
#include "workload/runner.h"

namespace mtperf {
namespace {

/** Restores the global pool size on scope exit. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(64);
    pool.parallelFor(ran.size(),
                     [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ZeroIterationsIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterDraining)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(200, [&](std::size_t i) {
            if (i == 17)
                throw std::runtime_error("boom");
            ++completed;
        });
        FAIL() << "expected the body's exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    // The loop drains: every non-throwing index still ran.
    EXPECT_EQ(completed.load(), 199);
}

TEST(ThreadPool, NestedLoopsRunInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(32 * 8);
    pool.parallelFor(32, [&](std::size_t outer) {
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        pool.parallelFor(8, [&](std::size_t inner) {
            ++hits[outer * 8 + inner];
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder)
{
    ThreadPool pool(4);
    const auto squares =
        parallelMap(pool, 100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, WorkersRecordHowLateTheyJoin)
{
    obs::Histogram &joins = obs::histogram("pool.join_micros");
    ThreadPool pool(4);
    const std::uint64_t before = joins.snapshot().count();
    pool.parallelFor(8, [](std::size_t) {});
    // The loop queued one entry for each of the three workers. A worker
    // records its join when it dequeues its entry, which can be after
    // the caller drained the loop alone, so wait (bounded) for all
    // three.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (joins.snapshot().count() < before + 3 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(joins.snapshot().count(), before + 3);
}

TEST(ThreadPool, LoopsInsideAndAfterNestedWarmScopesRunEveryIndex)
{
    // Inside a scope idle workers poll the queue instead of sleeping;
    // every loop must still run each index once, and a pool whose
    // scopes have all closed must still wake its workers.
    ThreadPool pool(4);
    auto runLoops = [&pool] {
        for (int loop = 0; loop < 50; ++loop) {
            std::vector<std::atomic<int>> hits(37);
            pool.parallelFor(hits.size(),
                             [&](std::size_t i) { hits[i].fetch_add(1); });
            for (const auto &h : hits)
                ASSERT_EQ(h.load(), 1);
        }
    };
    {
        ThreadPool::WarmScope outer(pool);
        runLoops();
        {
            ThreadPool::WarmScope inner(pool);
            runLoops();
        }
        runLoops();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    runLoops();
}

TEST(GlobalPool, SizeFollowsSetGlobalThreadCount)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3u);
    EXPECT_EQ(globalPool().threadCount(), 3u);
    setGlobalThreadCount(0);
    EXPECT_EQ(globalThreadCount(), defaultThreadCount());
    EXPECT_GE(hardwareThreadCount(), 1u);
}

/** Small-scale suite options so the determinism runs stay fast. */
workload::RunnerOptions
tinySuiteOptions()
{
    workload::RunnerOptions options;
    options.sectionScale = 0.03;
    options.instructionsPerSection = 2000;
    return options;
}

TEST(ParallelDeterminism, SuiteCollectionMatchesSerial)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    const Dataset serial = perf::collectSuiteDataset(tinySuiteOptions());
    setGlobalThreadCount(4);
    const Dataset parallel =
        perf::collectSuiteDataset(tinySuiteOptions());

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
        EXPECT_EQ(parallel.tag(r), serial.tag(r)) << "row " << r;
        EXPECT_EQ(parallel.target(r), serial.target(r)) << "row " << r;
        const auto a = serial.row(r), b = parallel.row(r);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t c = 0; c < a.size(); ++c)
            EXPECT_EQ(a[c], b[c]) << "row " << r << " col " << c;
    }
}

TEST(ParallelDeterminism, CrossValidationMatchesSerial)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    const Dataset ds = perf::collectSuiteDataset(tinySuiteOptions());
    M5Options options;
    options.minInstances = 20;
    const M5Prime prototype(options);

    const auto serial = crossValidate(prototype, ds, 5, 7);
    setGlobalThreadCount(4);
    const auto parallel = crossValidate(prototype, ds, 5, 7);

    EXPECT_EQ(parallel.predictions, serial.predictions);
    ASSERT_EQ(parallel.perFold.size(), serial.perFold.size());
    for (std::size_t f = 0; f < serial.perFold.size(); ++f) {
        EXPECT_EQ(parallel.perFold[f].mae, serial.perFold[f].mae);
        EXPECT_EQ(parallel.perFold[f].correlation,
                  serial.perFold[f].correlation);
    }
    EXPECT_EQ(parallel.pooled.mae, serial.pooled.mae);
}

TEST(ParallelDeterminism, BaggedM5MatchesSerial)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    const Dataset ds = perf::collectSuiteDataset(tinySuiteOptions());

    BaggedM5Options options;
    options.treeOptions.minInstances = 20;
    options.bags = 6;
    BaggedM5 serial(options);
    serial.fit(ds);

    setGlobalThreadCount(4);
    BaggedM5 parallel(options);
    parallel.fit(ds);

    for (std::size_t r = 0; r < ds.size(); r += 7)
        EXPECT_EQ(parallel.predict(ds.row(r)), serial.predict(ds.row(r)))
            << "row " << r;
    EXPECT_EQ(parallel.splitFrequency(), serial.splitFrequency());
}

} // namespace
} // namespace mtperf

/**
 * @file
 * The pipeline stages the benchmark times, and what they share.
 *
 * Every run sets up one Fixture (the suite specs, a simulated counter
 * CSV, a served model and a running server), then runs the three
 * stages of the paper's pipeline: simulate, train/predict/crossval,
 * serve. A workload decides which stage gets the run's time budget;
 * the other two run once at a small fixed size, so that every run
 * reports every metric.
 */

#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/tree/m5prime.h"
#include "serve/server.h"
#include "trace.h"
#include "workload/phase.h"

namespace perfbench {

/** Metric values by name, each with its unit. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        values_[name] = {value, unit};
    }

    bool has(const std::string &name) const { return values_.count(name); }

    const std::pair<double, std::string> &
    at(const std::string &name) const
    {
        return values_.at(name);
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Operation accounting and output checks of one run. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; //!< failed output checks

    bool correct() const { return errors.empty(); }
    void check(bool ok, const std::string &what);
};

/** What set-up builds once per run. */
struct Fixture
{
    std::string workDir;
    std::vector<mtperf::workload::WorkloadSpec> specs;

    /** The simulated counter CSV (one row per short section). */
    std::string countersCsv;
    mtperf::Dataset counters;

    /** The served model, fit on the counter rows, and its file. */
    std::unique_ptr<mtperf::M5Prime> serveModel;
    std::string serveModelPath;
    /** Scalar predict() of every counter row: the serve oracle. */
    std::vector<double> expected;

    std::unique_ptr<mtperf::serve::Server> server;

    ~Fixture();
    /** Start a fresh server on the served model (stopping any other). */
    void startServer();
    /** Stop the server and wait for its threads. */
    void stopServer();
};

/** CRC32 of a file's bytes; @p bytes (if non-null) gets its size. */
std::uint32_t fileCrc32(const std::string &path,
                        std::uint64_t *bytes = nullptr);

/** The CLI's default tree options for a dataset of @p rows. */
mtperf::M5Options treeOptionsFor(std::size_t rows);

/** Instructions per section in the counter CSV set-up simulates. */
inline constexpr std::uint64_t kCounterSectionInstructions = 1000;

/**
 * Load the suite, simulate the counter CSV, fit and save the served
 * model and start the server. @p root is the checkout holding specs/.
 *
 * The simulator runs with the default RunnerOptions seed, as `mtperf
 * simulate` does, in every stage: some seeds make the per-section
 * jitter leave a phase's instruction mix summing to just over 1, which
 * PhaseParams::validate rejects (seed 208 does), so the benchmark seed
 * drives only the serve load.
 */
void setUp(Fixture &fixture, const std::string &root);

/** How long a stage runs: its time budget and fewest repetitions. */
struct StageBudget
{
    double seconds = 0.0;
    int minReps = 1;
    /** Primary stage of a traced run: time one untraced repetition. */
    bool probeOverhead = false;
};

/**
 * Paces a stage's repetitions: the first @p min_reps always run; after
 * them, another starts only if it should end within the budget, judged
 * by the length of the last one.
 */
class RepPacer
{
  public:
    RepPacer(double budget_seconds, int min_reps)
        : budgetNs_(static_cast<std::int64_t>(budget_seconds * 1e9)),
          minReps_(min_reps)
    {}

    /** Whether to start repetition @p rep (counting from 0). */
    bool
    startAnother(int rep)
    {
        const std::int64_t now = nowNs();
        const std::int64_t last = rep > 0 ? now - lastStart_ : 0;
        lastStart_ = now;
        return rep < minReps_ || now - started_ + last <= budgetNs_;
    }

  private:
    std::int64_t budgetNs_;
    int minReps_;
    std::int64_t started_ = nowNs();
    std::int64_t lastStart_ = started_;
};

/** Simulate the suite into a section CSV. */
void runSimStage(const Fixture &fixture, double section_scale,
                 const StageBudget &budget, Metrics &metrics,
                 Outcome &outcome);

/** Train, predict and 10-fold cross-validate on the counter CSV. */
void runMlStage(const Fixture &fixture, const StageBudget &budget,
                Metrics &metrics, Outcome &outcome);

/** Phase lengths of the serve stage, in seconds. */
struct ServePlan
{
    double closedSeconds = 0.4;    //!< each closed-loop phase
    double fixedRateSeconds = 0.4; //!< each open-loop phase (traced)
    double searchStepSeconds = 0.2;
    int searchSteps = 16; //!< 0 skips the rate search
    bool probeOverhead = false;
};

/**
 * Closed-loop single-row and 64-row requests; traced runs add the
 * open-loop fixed rates and the rate search.
 */
void runServeStage(Fixture &fixture, const ServePlan &plan,
                   std::uint64_t seed, Metrics &metrics, Outcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_STAGES_H_

/**
 * @file
 * The model stage, as the CLI runs it on the counter CSV:
 *   train    read CSV -> Dataset -> M5Prime::fit -> saveFile
 *   predict  loadFile -> read CSV -> Dataset -> predictAll
 *   crossval 10-fold crossValidate on the pool
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/checksum.h"
#include "common/csv.h"
#include "data/io.h"
#include "ml/eval/cross_validation.h"
#include "obs/metrics.h"
#include "stages.h"
#include "trace.h"

namespace perfbench {

using namespace mtperf;

namespace {

/** readCsvFile then datasetFromCsvTable, each under its own span. */
Dataset
readCounters(const std::string &path, double &read_seconds,
             double &build_seconds)
{
    Span read("data.read_csv");
    const CsvTable table = readCsvFile(path);
    read_seconds = read.end();
    Span build("data.build_dataset");
    Dataset ds = datasetFromCsvTable(table, "CPI");
    build_seconds = build.end();
    return ds;
}

/** One iteration's timings. */
struct MlRep
{
    double trainSeconds = 0.0;
    double predictSeconds = 0.0;
    double crossvalSeconds = 0.0;
    double readSeconds = 0.0;
    double buildSeconds = 0.0;
    double fitSeconds = 0.0;
    double saveSeconds = 0.0;
    double loadSeconds = 0.0;
    double predictAllSeconds = 0.0;
    double writeSeconds = 0.0;
};

} // namespace

M5Options
treeOptionsFor(std::size_t rows)
{
    M5Options options;
    options.minInstances = std::max<std::size_t>(4, rows / 22);
    return options;
}

void
runMlStage(const Fixture &fixture, const StageBudget &budget,
           Metrics &metrics, Outcome &outcome)
{
    const std::string model_path = fixture.workDir + "/train.m5";
    const std::string rewrite_path = fixture.workDir + "/counters_copy.csv";
    obs::Counter &model_fits = obs::counter("tree.model_fits");
    obs::Counter &sort_elided = obs::counter("tree.sort_elided");

    std::vector<MlRep> reps;
    std::uint32_t model_crc = 0, cv_crc = 0;
    std::uint64_t fits = 0, elided = 0, rows = 0;
    std::size_t leaves = 0, nodes = 0;
    double cv_correlation = 0.0, cv_mae = 0.0, untraced_total = 0.0;
    const bool traced = Trace::on();
    // The overhead probe is one extra, untraced repetition.
    const int min_reps =
        budget.minReps + (traced && budget.probeOverhead ? 1 : 0);
    RepPacer pacer(budget.seconds, min_reps);
    for (int rep = 0; pacer.startAnother(rep); ++rep) {
        const bool probe = traced && budget.probeOverhead && rep == 0;
        Trace::enable(traced && !probe);
        MlRep r;

        // mtperf train
        Span train("stage.train");
        const Dataset ds =
            readCounters(fixture.countersCsv, r.readSeconds, r.buildSeconds);
        M5Prime tree(treeOptionsFor(ds.size()));
        const std::uint64_t fits_before = model_fits.value();
        const std::uint64_t elided_before = sort_elided.value();
        {
            Span span("ml.fit");
            tree.fit(ds);
            r.fitSeconds = span.end();
        }
        fits = model_fits.value() - fits_before;
        elided = sort_elided.value() - elided_before;
        {
            Span span("ml.model_save");
            tree.saveFile(model_path);
            r.saveSeconds = span.end();
        }
        r.trainSeconds = train.end();

        // mtperf predict
        Span predict("stage.predict");
        double load_seconds = 0.0;
        const M5Prime loaded = [&] {
            Span span("ml.model_load");
            M5Prime model = M5Prime::loadFile(model_path);
            load_seconds = span.end();
            return model;
        }();
        r.loadSeconds = load_seconds;
        double read_again = 0.0, build_again = 0.0;
        const Dataset pds =
            readCounters(fixture.countersCsv, read_again, build_again);
        outcome.check(pds.schema() == loaded.schema(),
                      "predict: dataset schema does not match the model");
        std::vector<double> predictions;
        {
            Span span("ml.predict");
            predictions = loaded.predictAll(pds);
            r.predictAllSeconds = span.end();
        }
        r.predictSeconds = predict.end();

        // mtperf crossval
        Span crossval("stage.crossval");
        CrossValidationResult cv;
        {
            Span span("ml.cv");
            cv = crossValidate(M5Prime(treeOptionsFor(ds.size())), ds, 10,
                               7);
        }
        r.crossvalSeconds = crossval.end();

        {
            Span span("data.write_csv");
            writeDatasetCsvFile(rewrite_path, ds);
            r.writeSeconds = span.end();
        }

        // Output checks: a repetition must reproduce the first one.
        outcome.attempted += 4;
        const std::uint32_t this_model = fileCrc32(model_path);
        const std::uint32_t this_cv = crc32(
            cv.predictions.data(), cv.predictions.size() * sizeof(double));
        bool same_predictions = predictions.size() == ds.size();
        for (std::size_t i = 0; same_predictions && i < ds.size(); ++i) {
            const double want = tree.predict(ds.row(i));
            same_predictions =
                std::memcmp(&want, &predictions[i], sizeof want) == 0;
        }
        if (rep == 0) {
            model_crc = this_model;
            cv_crc = this_cv;
        }
        const bool same_model = this_model == model_crc;
        const bool same_cv = this_cv == cv_crc;
        const bool same_csv =
            fileCrc32(rewrite_path) == fileCrc32(fixture.countersCsv);
        if (!(same_model && same_cv && same_predictions && same_csv))
            ++outcome.failed;
        outcome.check(same_model,
                      "model bytes changed between train repetitions");
        outcome.check(same_cv,
                      "out-of-fold predictions changed between repetitions");
        outcome.check(same_predictions,
                      "predictAll after loadFile differs from the fitted "
                      "tree's scalar predict");
        outcome.check(same_csv,
                      "rewriting the counter CSV changed its bytes");

        std::fprintf(stderr,
                     "perfbench: train %.4f s (read %.4f, build %.4f, fit "
                     "%.4f), predict %.4f s, crossval %.4f s\n",
                     r.trainSeconds, r.readSeconds, r.buildSeconds,
                     r.fitSeconds, r.predictSeconds, r.crossvalSeconds);
        leaves = tree.numLeaves();
        nodes = tree.numNodes();
        rows = ds.size();
        cv_correlation = cv.pooled.correlation;
        cv_mae = cv.pooled.mae;
        if (probe)
            untraced_total =
                r.trainSeconds + r.predictSeconds + r.crossvalSeconds;
        else
            reps.push_back(r);
    }
    Trace::enable(traced);

    auto med = [&](double MlRep::*field) {
        std::vector<double> values;
        for (const MlRep &r : reps)
            values.push_back(r.*field);
        return median(values);
    };
    // The best repetition: the host's slow episodes only ever add time.
    auto best = [&](double MlRep::*field) {
        double lowest = reps.front().*field;
        for (const MlRep &r : reps)
            lowest = std::min(lowest, r.*field);
        return lowest;
    };
    metrics.set("train_s", best(&MlRep::trainSeconds), "s");
    metrics.set("predict_s", best(&MlRep::predictSeconds), "s");
    metrics.set("crossval_s", best(&MlRep::crossvalSeconds), "s");
    metrics.set("cv_correlation", cv_correlation, "ratio");
    metrics.set("cv_mae", cv_mae, "CPI");
    std::uint64_t csv_bytes = 0;
    fileCrc32(fixture.countersCsv, &csv_bytes);
    metrics.set("ml.tree_leaves", static_cast<double>(leaves), "count");
    metrics.set("ml.tree_nodes", static_cast<double>(nodes), "count");
    metrics.set("ml.model_fits", static_cast<double>(fits), "count");
    metrics.set("ml.sort_elided", static_cast<double>(elided), "count");
    metrics.set("ml.model_crc32", static_cast<double>(model_crc), "crc32");
    metrics.set("ml.cv_predictions_crc32", static_cast<double>(cv_crc),
                "crc32");
    metrics.set("data.rows", static_cast<double>(rows), "count");
    metrics.set("data.csv_bytes", static_cast<double>(csv_bytes), "bytes");
    if (!traced)
        return;

    if (budget.probeOverhead && untraced_total > 0.0) {
        const double traced_total = med(&MlRep::trainSeconds) +
                                    med(&MlRep::predictSeconds) +
                                    med(&MlRep::crossvalSeconds);
        metrics.set("trace.overhead_pct",
                    (traced_total - untraced_total) / untraced_total *
                        100.0,
                    "%");
    }
    metrics.set("data.read_csv_s", med(&MlRep::readSeconds), "s");
    metrics.set("data.build_dataset_s", med(&MlRep::buildSeconds), "s");
    metrics.set("data.write_counters_csv_s", med(&MlRep::writeSeconds),
                "s");
    metrics.set("ml.fit_s", med(&MlRep::fitSeconds), "s");
    metrics.set("ml.model_save_s", med(&MlRep::saveSeconds), "s");
    metrics.set("ml.model_load_s", med(&MlRep::loadSeconds), "s");
    metrics.set("ml.predict_ns_per_row",
                med(&MlRep::predictAllSeconds) * 1e9 /
                    static_cast<double>(rows),
                "ns");
    metrics.set("ml.cv_s", med(&MlRep::crossvalSeconds), "s");

}

} // namespace perfbench

/**
 * @file
 * The fixed datasets the golden pins and the model-loader fuzzer fit.
 * Changing a row here moves every pin recorded on it.
 */

#ifndef MTPERF_TESTS_GOLDEN_DATASETS_H_
#define MTPERF_TESTS_GOLDEN_DATASETS_H_

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace mtperf {

/**
 * Counter-like rows with the two degeneracies of the suite CSV.
 * "l2m_dup" copies "l2m" in every row, as DtlbLdReM copies DtlbLdM, so
 * every split on "l2m" ties with one on its copy. "fp" is an event most
 * rows never fire: on the side of an "fp" split that holds those rows
 * the column is all zero, so every fit there that regresses on it
 * meets a singular Gram system and takes the ridge branch.
 */
inline Dataset
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

/**
 * goldenDataset()'s degeneracies at the size of the suite CSV, where
 * one tree fit is large enough to run on the whole pool: 8,000 rows of
 * 12 attributes. Most columns are rounded to three decimals, as the
 * suite CSV's are, so every column holds ties; "l2m_dup" copies "l2m",
 * "fp" is mostly zero, "ldbl" takes four values and "noise" is
 * unrounded.
 */
inline Dataset
largeGoldenDataset()
{
    Dataset ds(Schema(
        std::vector<std::string>{"l2m", "l2m_dup", "itlb", "fp", "noise",
                                 "br", "l1d", "dtlb", "ld", "st", "ldbl",
                                 "misal"},
        "CPI"));
    const auto milli = [](double v) { return std::round(v * 1000.0) / 1000.0; };
    Rng rng(2010);
    for (std::size_t i = 0; i < 8000; ++i) {
        const double l2m = milli(rng.uniform(0.0, 0.2));
        const double itlb = milli(rng.uniform(0.0, 0.04));
        const double fp =
            rng.chance(0.3) ? milli(rng.uniform(0.1, 0.3)) : 0.0;
        const double noise = rng.normal();
        const double br = milli(rng.uniform(0.0, 0.05));
        const double l1d = milli(l2m + rng.uniform(0.0, 0.1));
        const double dtlb = milli(rng.uniform(0.0, 0.1));
        const double ld = milli(rng.uniform(0.2, 0.4));
        const double st = milli(rng.uniform(0.05, 0.15));
        const double ldbl =
            0.001 * static_cast<double>(rng.uniformInt(std::uint64_t{4}));
        const double misal =
            rng.chance(0.1) ? milli(rng.uniform(0.0, 0.01)) : 0.0;
        const double knee = l2m > 0.08 ? 9.0 * (l2m - 0.08) : 0.0;
        const double cpi = 0.55 + 3.0 * l2m + knee + 14.0 * itlb +
                           2.5 * fp + (dtlb > 0.05 ? 16.0 : 8.0) * br +
                           0.5 * ld + 40.0 * ldbl +
                           rng.normal(0.0, 0.05);
        ds.addRow(std::vector<double>{l2m, l2m, itlb, fp, noise, br, l1d,
                                      dtlb, ld, st, ldbl, misal},
                  cpi);
    }
    return ds;
}

} // namespace mtperf

#endif // MTPERF_TESTS_GOLDEN_DATASETS_H_

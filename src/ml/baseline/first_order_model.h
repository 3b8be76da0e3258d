/**
 * @file
 * The traditional uniform-penalty CPI model (the paper's strawman).
 *
 * First-order models in the style of Karkhanis & Smith express CPI as
 * an ideal steady-state CPI plus a fixed penalty per event occurrence:
 *
 *     CPI = CPI_base + sum_i penalty_i * X_i
 *
 * with the penalties taken from the machine's latency numbers (an L2
 * miss costs the memory latency, a mispredict the re-steer cost, ...).
 * The paper's introduction argues this misattributes cost on an
 * out-of-order machine because overlap and interaction change the
 * *exposed* penalty per event; the model-comparison bench quantifies
 * exactly that gap. fit() only calibrates CPI_base (the average
 * residual after subtracting the fixed penalties), which is how such
 * models are used in practice.
 *
 * The model lives in the ml layer (it is a learner, and the
 * RegressorFactory registry must construct it) but keeps its
 * historical mtperf::perf namespace. Its uarch dependencies are
 * header-only configs.
 */

#ifndef MTPERF_ML_BASELINE_FIRST_ORDER_MODEL_H_
#define MTPERF_ML_BASELINE_FIRST_ORDER_MODEL_H_

#include <array>
#include <span>
#include <string>

#include "ml/regressor.h"
#include "uarch/core.h"
#include "uarch/event_counters.h"

namespace mtperf::perf {

/** Fixed-penalty first-order CPI model. */
class FirstOrderModel : public Regressor
{
  public:
    /**
     * Derive the per-event penalty table from a machine config (e.g.,
     * an L2 load miss costs config.memLatency cycles).
     */
    explicit FirstOrderModel(
        const uarch::CoreConfig &config = uarch::CoreConfig::core2Like());

    void fit(const Dataset &train) override;
    double predict(std::span<const double> row) const override;
    std::string name() const override { return "FirstOrder"; }

    std::unique_ptr<Regressor> clone() const override;

    /** The fixed penalty for one metric, in cycles per event. */
    double penalty(uarch::PerfMetric metric) const;

    /** Calibrated base CPI. @pre fit() has been called. */
    double baseCpi() const { return baseCpi_; }

  private:
    std::array<double, uarch::kNumPerfMetrics> penalties_{};
    double baseCpi_ = 0.0;
    bool fitted_ = false;
};

} // namespace mtperf::perf

#endif // MTPERF_ML_BASELINE_FIRST_ORDER_MODEL_H_

#include "cli/top_render.h"

#include <algorithm>

#include "common/strings.h"

namespace mtperf::cli {

void
renderTopFrame(std::ostream &out, const std::string &target,
               const TopSample &prev, const TopSample &cur)
{
    const double dt =
        std::max(cur.seconds - prev.seconds, kTopMinDtSeconds);
    const auto rate = [&](const char *name) {
        const double delta = cur.scrape.valueOr(name, 0.0) -
                             prev.scrape.valueOr(name, 0.0);
        return std::max(delta, 0.0) / dt;
    };
    const auto gauge = [&](const char *name) {
        return cur.scrape.valueOr(name, 0.0);
    };
    const auto quantile = [&](const char *q) {
        return cur.scrape.valueOr(
            std::string(
                "mtperf_serve_predict_micros{quantile=\"") +
                q + "\"}",
            0.0);
    };
    const auto cell = [](double value, int digits) {
        return padLeft(formatDouble(value, digits), 12);
    };
    const double batches = rate("mtperf_serve_batches");
    const double batch_rows = rate("mtperf_serve_batch_rows");

    out << "mtperf top - " << target << "  (window "
        << formatDouble(dt, 2) << "s)\n";
    out << "  requests/s " << cell(rate("mtperf_serve_requests"), 1)
        << "     rows/s "
        << cell(rate("mtperf_serve_rows_predicted"), 1) << "\n";
    out << "  errors/s   " << cell(rate("mtperf_serve_errors"), 1)
        << "\n";
    out << "  batch occupancy "
        << (batches > 0.0 ? formatDouble(batch_rows / batches, 1)
                          : std::string("-"))
        << " rows/batch (" << formatDouble(batches, 1)
        << " batches/s)\n";
    out << "  latency us  p50 " << formatDouble(quantile("0.5"), 0)
        << "  p95 " << formatDouble(quantile("0.95"), 0) << "  p99 "
        << formatDouble(quantile("0.99"), 0) << "\n";
    out << "  conns       now "
        << formatDouble(gauge("mtperf_serve_connections_active"), 0)
        << "  peak "
        << formatDouble(
               gauge("mtperf_serve_connections_active_max"), 0)
        << "\n";
    const double burn =
        gauge("mtperf_serve_slo_burn_rate_milli") / 1000.0;
    const bool healthy =
        gauge("mtperf_serve_slo_healthy") != 0.0;
    out << "  SLO         burn " << formatDouble(burn, 2)
        << (healthy ? "  healthy" : "  BUDGET EXCEEDED") << "  ("
        << formatDouble(gauge("mtperf_serve_slo_window_requests"), 0)
        << " reqs, "
        << formatDouble(gauge("mtperf_serve_slo_window_violations"),
                        0)
        << " violations in window)\n";
}

} // namespace mtperf::cli

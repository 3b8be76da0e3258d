/**
 * @file
 * renderTopFrame unit tests: the live-dashboard rate math must stay
 * sane when the sampling clock misbehaves — identical timestamps
 * (duplicate scrape), a regressed timestamp (clock stepping), and
 * counter resets (server restart between scrapes) must all render
 * finite, non-negative rates instead of inf/NaN or negatives.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cli/top_render.h"
#include "obs/prometheus.h"

namespace mtperf::cli {
namespace {

obs::PrometheusScrape
scrapeWith(double requests, double rows, double errors)
{
    std::ostringstream text;
    text << "mtperf_serve_requests " << requests << "\n"
         << "mtperf_serve_rows_predicted " << rows << "\n"
         << "mtperf_serve_errors " << errors << "\n"
         << "mtperf_serve_batches 10\n"
         << "mtperf_serve_batch_rows 100\n"
         << "mtperf_serve_predict_micros{quantile=\"0.5\"} 120\n"
         << "mtperf_serve_predict_micros{quantile=\"0.95\"} 480\n"
         << "mtperf_serve_predict_micros{quantile=\"0.99\"} 900\n"
         << "mtperf_serve_connections_active 7\n"
         << "mtperf_serve_connections_active_max 64\n"
         << "mtperf_serve_slo_burn_rate_milli 500\n"
         << "mtperf_serve_slo_healthy 1\n"
         << "mtperf_serve_slo_window_requests 100\n"
         << "mtperf_serve_slo_window_violations 1\n";
    return obs::parsePrometheusText(text.str());
}

std::string
render(const TopSample &prev, const TopSample &cur)
{
    std::ostringstream out;
    renderTopFrame(out, "127.0.0.1:9109", prev, cur);
    return out.str();
}

/** True when a negative number ("-<digit>") appears anywhere. */
bool
hasNegativeNumber(const std::string &frame)
{
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        if (frame[i] == '-' && frame[i + 1] >= '0' &&
            frame[i + 1] <= '9')
            return true;
    }
    return false;
}

TEST(TopRender, NormalWindowComputesRates)
{
    const TopSample prev{scrapeWith(0, 0, 0), 10.0};
    const TopSample cur{scrapeWith(200, 2000, 2), 12.0};
    const std::string frame = render(prev, cur);
    EXPECT_NE(frame.find("window 2.00s"), std::string::npos) << frame;
    EXPECT_NE(frame.find("100.0"), std::string::npos)
        << "requests/s: " << frame;
    EXPECT_NE(frame.find("1000.0"), std::string::npos)
        << "rows/s: " << frame;
}

TEST(TopRender, IdenticalTimestampsDoNotDivideByZero)
{
    // Two scrapes landing on the same clock reading (coarse clock or
    // a duplicated sample) must clamp dt instead of producing inf.
    const TopSample prev{scrapeWith(100, 1000, 0), 5.0};
    const TopSample cur{scrapeWith(150, 1500, 0), 5.0};
    const std::string frame = render(prev, cur);
    EXPECT_EQ(frame.find("inf"), std::string::npos) << frame;
    EXPECT_EQ(frame.find("nan"), std::string::npos) << frame;
    // The clamp floors the window at kTopMinDtSeconds.
    EXPECT_NE(frame.find("window 0.00s"), std::string::npos) << frame;
}

TEST(TopRender, RegressedTimestampClampsToTheFloor)
{
    // A stepped clock can hand the renderer cur.seconds < prev
    // .seconds; the rate must stay finite and non-negative.
    const TopSample prev{scrapeWith(100, 1000, 0), 50.0};
    const TopSample cur{scrapeWith(150, 1500, 0), 40.0};
    const std::string frame = render(prev, cur);
    EXPECT_EQ(frame.find("inf"), std::string::npos) << frame;
    EXPECT_EQ(frame.find("nan"), std::string::npos) << frame;
    EXPECT_FALSE(hasNegativeNumber(frame))
        << "no negative rates: " << frame;
}

TEST(TopRender, CounterResetRendersZeroRateNotNegative)
{
    // Server restarted between scrapes: counters went backwards.
    const TopSample prev{scrapeWith(5000, 50000, 3), 1.0};
    const TopSample cur{scrapeWith(40, 400, 0), 3.0};
    const std::string frame = render(prev, cur);
    EXPECT_NE(frame.find("requests/s"), std::string::npos);
    EXPECT_EQ(frame.find("inf"), std::string::npos) << frame;
    // All three rate cells clamp to 0.0.
    EXPECT_FALSE(hasNegativeNumber(frame))
        << "negative rate leaked: " << frame;
    EXPECT_NE(frame.find("0.0"), std::string::npos) << frame;
}

TEST(TopRender, ConnectionGaugeRowShowsNowAndPeak)
{
    const TopSample prev{scrapeWith(0, 0, 0), 1.0};
    const TopSample cur{scrapeWith(10, 100, 0), 2.0};
    const std::string frame = render(prev, cur);
    EXPECT_NE(frame.find("conns"), std::string::npos) << frame;
    EXPECT_NE(frame.find("now 7"), std::string::npos) << frame;
    EXPECT_NE(frame.find("peak 64"), std::string::npos) << frame;
}

TEST(TopRender, MinDtConstantIsSmallButNonzero)
{
    EXPECT_GT(kTopMinDtSeconds, 0.0);
    EXPECT_LE(kTopMinDtSeconds, 0.01);
}

} // namespace
} // namespace mtperf::cli

/**
 * @file
 * End-to-end tests for the live telemetry plane: Prometheus text
 * exposition and its parser, the GET-only /metrics HTTP responder,
 * `mtperf top --once`, request-scoped trace propagation (client span
 * chain joined to the server's by one trace id), the serve SLO
 * tracker and its gauges, and `mtperf version --json`.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "data/io.h"
#include "ml/tree/m5prime.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/slo.h"

namespace mtperf {
namespace {

constexpr std::size_t kCounters = 20;

Dataset
counterDataset(std::size_t n, std::uint64_t seed = 17)
{
    std::vector<std::string> names;
    for (std::size_t c = 0; c < kCounters; ++c)
        names.push_back("c" + std::to_string(c));
    Dataset ds(Schema(names, "CPI"));
    Rng rng(seed);
    std::vector<double> row(kCounters);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < kCounters; ++c)
            row[c] = rng.uniform();
        const double cpi = row[0] <= 0.5
                               ? 0.8 + 2.0 * row[1] + 0.5 * row[2]
                               : 3.0 - 1.5 * row[3] + row[4];
        ds.addRow(row, cpi + rng.normal(0.0, 0.05));
    }
    return ds;
}

/** Serve fixture: a trained model on disk + unix-socket options. */
class TelemetryServeTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = testing::TempDir() + "/mtperf_telemetry_" +
               std::to_string(::getpid());
        std::filesystem::create_directories(dir_);
        modelPath_ = dir_ + "/model.m5";
        ds_ = counterDataset(1500);
        M5Options options;
        options.minInstances = 40;
        M5Prime tree(options);
        tree.fit(ds_);
        tree.saveFile(modelPath_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    socketPath(const std::string &tag) const
    {
        return dir_ + "/" + tag + ".sock";
    }

    serve::ServerOptions
    unixOptions(const std::string &tag) const
    {
        serve::ServerOptions options;
        options.modelPath = modelPath_;
        options.listen = "unix:" + socketPath(tag);
        options.pollIntervalMs = 5;
        return options;
    }

    /** Flat row-major copy of the first @p n dataset rows. */
    std::vector<double>
    flatRows(std::size_t n) const
    {
        std::vector<double> flat;
        flat.reserve(n * kCounters);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < kCounters; ++c)
                flat.push_back(ds_.row(i)[c]);
        return flat;
    }

    std::string dir_, modelPath_;
    Dataset ds_;
};

// ---------------------------------------------------------------
// Prometheus exposition + parser

TEST(Prometheus, NameMapping)
{
    using obs::prometheusName;
    EXPECT_EQ(prometheusName("serve.predict_micros"),
              "mtperf_serve_predict_micros");
    EXPECT_EQ(prometheusName("obs.metrics-http.requests"),
              "mtperf_obs_metrics_http_requests");
}

TEST(Prometheus, ExpositionRoundTripsThroughParser)
{
    obs::counter("test_prom.requests").add(42);
    obs::gauge("test_prom.queue").add(17);
    obs::histogram("test_prom.micros").record(123.0);

    const std::string text = obs::metricsToPrometheus();
    EXPECT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n') << "exposition lines end in \\n";

    const obs::PrometheusScrape scrape =
        obs::parsePrometheusText(text);
    EXPECT_GE(scrape.value("mtperf_test_prom_requests"), 42.0);
    EXPECT_EQ(scrape.types.at("mtperf_test_prom_requests"), "counter");

    EXPECT_GE(scrape.value("mtperf_test_prom_queue"), 0.0);
    EXPECT_GE(scrape.value("mtperf_test_prom_queue_max"), 17.0);
    EXPECT_EQ(scrape.types.at("mtperf_test_prom_queue"), "gauge");

    // Histograms export as summaries: quantiles + _sum + _count.
    EXPECT_EQ(scrape.types.at("mtperf_test_prom_micros"), "summary");
    EXPECT_GE(scrape.value("mtperf_test_prom_micros_count"), 1.0);
    EXPECT_GE(scrape.value("mtperf_test_prom_micros_sum"), 100.0);
    for (const char *q : {"0.5", "0.95", "0.99"})
        EXPECT_TRUE(scrape.has("mtperf_test_prom_micros{quantile=\"" +
                               std::string(q) + "\"}"))
            << "quantile " << q;

    // valueOr falls back; value throws on absence.
    EXPECT_EQ(scrape.valueOr("mtperf_no_such_metric", -1.0), -1.0);
    EXPECT_THROW(scrape.value("mtperf_no_such_metric"), FatalError);
}

TEST(Prometheus, SetOnlyGaugeExportsItsPeakAsMax)
{
    // The serve.slo_* gauges are written with set() alone; their
    // _max series must still report the highest value they held.
    obs::Gauge &gauge = obs::gauge("test_prom.set_only");
    gauge.set(40);
    gauge.set(100000);
    gauge.set(7);
    const obs::PrometheusScrape scrape =
        obs::parsePrometheusText(obs::metricsToPrometheus());
    EXPECT_EQ(scrape.value("mtperf_test_prom_set_only"), 7.0);
    EXPECT_EQ(scrape.value("mtperf_test_prom_set_only_max"), 100000.0);
}

TEST(Prometheus, ParserRejectsMalformedLines)
{
    EXPECT_THROW(obs::parsePrometheusText("mtperf_x\n"), FatalError);
    EXPECT_THROW(obs::parsePrometheusText("mtperf_x not_a_number\n"),
                 FatalError);
}

TEST(Prometheus, MetricsFileProm)
{
    // --metrics-format prom writes the same exposition the scrape
    // endpoint serves.
    const std::string path = testing::TempDir() +
                             "/mtperf_prom_dump_" +
                             std::to_string(::getpid()) + ".prom";
    obs::counter("test_prom.file_counter").increment();
    obs::writeMetricsFile(path, obs::MetricsFormat::Prometheus);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const obs::PrometheusScrape scrape =
        obs::parsePrometheusText(text);
    EXPECT_GE(scrape.value("mtperf_test_prom_file_counter"), 1.0);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------
// HTTP responder

TEST(MetricsHttp, ServesScrapesAndRejectsOtherRequests)
{
    obs::counter("test_http.marker").add(7);
    obs::MetricsHttpServer server({.host = "127.0.0.1", .port = 0});
    ASSERT_NE(server.port(), 0) << "ephemeral port resolved at bind";
    server.start();

    const obs::HttpResponse ok =
        obs::httpGet("127.0.0.1", server.port(), "/metrics");
    EXPECT_EQ(ok.status, 200);
    const obs::PrometheusScrape scrape =
        obs::parsePrometheusText(ok.body);
    EXPECT_GE(scrape.value("mtperf_test_http_marker"), 7.0);

    EXPECT_EQ(obs::httpGet("127.0.0.1", server.port(), "/other")
                  .status,
              404);

    // Non-GET via a raw exchange (httpGet only speaks GET).
    {
        net::Socket sock = net::connectTo(
            net::Endpoint{.unixDomain = false,
                          .host = "127.0.0.1",
                          .port = server.port(),
                          .path = {}},
            2000);
        const std::string request =
            "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        net::writeAll(sock.fd(), request.data(), request.size());
        std::string reply;
        char buf[512];
        while (net::waitReadable(sock.fd(), 2000)) {
            const ssize_t n = ::read(sock.fd(), buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        EXPECT_NE(reply.find("405"), std::string::npos) << reply;
    }

    server.stop();
    server.stop(); // idempotent
}

TEST(MetricsHttp, DribblingClientCannotStallScrapes)
{
    // The listener has one thread: a client sending its request head
    // a byte at a time must lose it after the head deadline, so a
    // real scrape still gets through.
    obs::MetricsHttpServer server({.host = "127.0.0.1", .port = 0});
    server.start();
    net::Socket slow = net::connectTo(
        net::parseEndpoint("127.0.0.1", server.port()), 2000);
    // A jthread: a failed scrape's exception still stops and joins it.
    std::jthread dribbler([&slow](const std::stop_token &stop) {
        // A byte every 200 ms for 8 s, or until the server hangs up.
        for (int i = 0; i < 40 && !stop.stop_requested(); ++i) {
            if (::send(slow.fd(), "G", 1, MSG_NOSIGNAL) != 1)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const obs::HttpResponse response =
        obs::httpGet("127.0.0.1", server.port(), "/metrics", 5000);
    EXPECT_EQ(response.status, 200);

    dribbler.join();
    server.stop();
}

// ---------------------------------------------------------------
// Serve integration: HTTP scrape + SLO + tracing

TEST_F(TelemetryServeTest, ScrapeObservesTrafficBothWays)
{
    serve::ServerOptions options = unixOptions("scrape");
    options.metricsHttp = true; // ephemeral port
    serve::Server server(options);
    server.start();
    ASSERT_NE(server.metricsPort(), 0);

    const std::uint64_t rowsBefore = static_cast<std::uint64_t>(
        obs::parsePrometheusText(
            obs::httpGet("127.0.0.1", server.metricsPort(),
                         "/metrics")
                .body)
            .valueOr("mtperf_serve_rows_predicted", 0.0));

    serve::Client client = serve::Client::connect(
        "unix:" + socketPath("scrape"), 7077);
    constexpr std::size_t kRows = 300;
    const std::vector<double> flat = flatRows(kRows);
    const serve::PredictResponse response =
        client.predict(flat, kCounters);
    ASSERT_EQ(response.predictions.size(), kRows);

    // HTTP scrape sees exactly the rows...
    const obs::PrometheusScrape viaHttp = obs::parsePrometheusText(
        obs::httpGet("127.0.0.1", server.metricsPort(), "/metrics")
            .body);
    EXPECT_EQ(viaHttp.value("mtperf_serve_rows_predicted"),
              static_cast<double>(rowsBefore + kRows));
    // ...with summary latency quantiles and the SLO gauges present.
    EXPECT_TRUE(viaHttp.has(
        "mtperf_serve_predict_micros{quantile=\"0.99\"}"));
    EXPECT_TRUE(viaHttp.has("mtperf_serve_slo_healthy"));

    client.shutdown();
    server.wait();
}

TEST_F(TelemetryServeTest, TraceChainReconstructsUnderOneTraceId)
{
    obs::startTrace();
    serve::Server server(unixOptions("trace"));
    server.start();

    serve::Client client = serve::Client::connect(
        "unix:" + socketPath("trace"), 7077);
    const std::uint64_t traceId = client.predictTraceId(1);
    ASSERT_NE(traceId, 0u);

    const std::vector<double> flat = flatRows(50);
    client.predict(flat, kCounters);
    client.shutdown();
    server.wait();
    obs::stopTrace();

    const std::string json = obs::traceToJson();
    const std::string hex = obs::traceIdHex(traceId);
    // The client span and every server-side stage carry the same id,
    // so one request's full path reconstructs in Perfetto.
    for (const char *stage :
         {"client.predict trace=", "serve.predict trace=",
          "serve.reply trace="})
        EXPECT_NE(json.find(std::string(stage) + hex),
                  std::string::npos)
            << "missing " << stage << hex;
}

TEST_F(TelemetryServeTest, UntracedRequestsCarryNoTraceSpans)
{
    // An earlier test's stopped session stays readable by design;
    // an empty session makes traceToJson() report only this test's.
    obs::startTrace();
    obs::stopTrace();
    ASSERT_FALSE(obs::traceEnabled());
    serve::Server server(unixOptions("untraced"));
    server.start();
    serve::Client client = serve::Client::connect(
        "unix:" + socketPath("untraced"), 7077);
    const std::vector<double> flat = flatRows(20);
    client.predict(flat, kCounters);
    client.shutdown();
    server.wait();
    // Tracing disabled: the trace buffer must not accumulate spans.
    EXPECT_EQ(obs::traceToJson().find("client.predict trace="),
              std::string::npos);
}

TEST_F(TelemetryServeTest, SloObjectiveMissesSurfaceInStats)
{
    serve::ServerOptions options = unixOptions("slo");
    options.slo.latencyObjectiveUs = 0.001; // everything violates
    options.slo.errorBudget = 0.01;
    serve::Server server(options);
    server.start();

    serve::Client client = serve::Client::connect(
        "unix:" + socketPath("slo"), 7077);
    const std::vector<double> flat = flatRows(100);
    client.predict(flat, kCounters);

    const serve::SloSnapshot slo = server.stats().slo;
    EXPECT_DOUBLE_EQ(slo.latencyObjectiveUs, 0.001);
    EXPECT_GE(slo.violations, 1u);
    EXPECT_FALSE(slo.healthy);
    EXPECT_GT(slo.burnRate, 1.0);

    client.shutdown();
    server.wait();
}

TEST_F(TelemetryServeTest, SloGaugesDecayOverHttpWhenTrafficStops)
{
    // Violating traffic in a 1 s window until the scrape shows it;
    // then, with no further traffic and nothing reading the server
    // but the scrape, the window must empty and read healthy again.
    serve::ServerOptions options = unixOptions("slo-decay");
    options.metricsHttp = true;
    options.slo.latencyObjectiveUs = 0.001; // everything violates
    options.slo.windowSeconds = 1;
    serve::Server server(options);
    server.start();
    const auto scrape = [&server] {
        return obs::parsePrometheusText(
            obs::httpGet("127.0.0.1", server.metricsPort(), "/metrics")
                .body);
    };

    serve::Client client = serve::Client::connect(
        "unix:" + socketPath("slo-decay"), 7077);
    const std::vector<double> row = flatRows(1);
    bool violated = false;
    for (int attempt = 0; attempt < 100 && !violated; ++attempt) {
        client.predict(row, kCounters);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const obs::PrometheusScrape s = scrape();
        violated = s.value("mtperf_serve_slo_window_requests") >= 1.0 &&
                   s.value("mtperf_serve_slo_healthy") == 0.0;
    }
    ASSERT_TRUE(violated) << "the violations never reached the scrape";

    bool decayed = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!decayed && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const obs::PrometheusScrape s = scrape();
        decayed = s.value("mtperf_serve_slo_window_requests") == 0.0 &&
                  s.value("mtperf_serve_slo_healthy") == 1.0;
    }
    EXPECT_TRUE(decayed)
        << "the SLO gauges did not decay once traffic stopped";

    client.shutdown();
    server.wait();
}

TEST(SloTracker, BurnRateMath)
{
    serve::SloOptions options;
    options.latencyObjectiveUs = 100.0;
    options.errorBudget = 0.1;
    options.windowSeconds = 60;
    serve::SloTracker tracker(options);

    // 8 in-objective + 1 violation + 1 error over 10 requests
    // (errors count as completed requests for the fraction).
    for (int i = 0; i < 8; ++i)
        tracker.recordLatency(50.0);
    tracker.recordLatency(500.0);
    tracker.recordError();

    const serve::SloSnapshot snap = tracker.snapshot();
    EXPECT_EQ(snap.requests, 10u);
    EXPECT_EQ(snap.violations, 1u);
    EXPECT_EQ(snap.errors, 1u);
    // fraction = 2/10 = 0.2; burn = 0.2 / 0.1 = 2.0 > 1: unhealthy.
    EXPECT_NEAR(snap.burnRate, 2.0, 1e-9);
    EXPECT_FALSE(snap.healthy);

    // An all-healthy tracker reports burn 0 and healthy.
    serve::SloTracker calm(options);
    calm.recordLatency(10.0);
    const serve::SloSnapshot calmSnap = calm.snapshot();
    EXPECT_DOUBLE_EQ(calmSnap.burnRate, 0.0);
    EXPECT_TRUE(calmSnap.healthy);
    // Empty window: vacuously healthy, no division by zero.
    serve::SloTracker idle(options);
    EXPECT_TRUE(idle.snapshot().healthy);
}

// ---------------------------------------------------------------
// CLI: top --once, version --json

TEST_F(TelemetryServeTest, TopOnceRendersDashboardFromLiveServer)
{
    serve::ServerOptions options = unixOptions("top");
    options.metricsHttp = true;
    serve::Server server(options);
    server.start();

    serve::Client client = serve::Client::connect(
        "unix:" + socketPath("top"), 7077);
    const std::vector<double> flat = flatRows(200);
    client.predict(flat, kCounters);

    std::ostringstream out;
    const int rc = cli::runCommand(
        "top",
        {"--http", "127.0.0.1:" + std::to_string(server.metricsPort()),
         "--once", "--interval-ms", "10"},
        out);
    EXPECT_EQ(rc, 0) << out.str();
    EXPECT_NE(out.str().find("requests/s"), std::string::npos);
    EXPECT_NE(out.str().find("rows/s"), std::string::npos);
    EXPECT_NE(out.str().find("latency us"), std::string::npos);
    EXPECT_NE(out.str().find("SLO"), std::string::npos);
    EXPECT_EQ(out.str().find("\x1b[2J"), std::string::npos)
        << "--once must not clear the caller's terminal";

    client.shutdown();
    server.wait();
}

TEST(CliTop, UsageErrors)
{
    std::ostringstream out;
    // No --http.
    EXPECT_EQ(cli::runCommand("top", {"--once"}, out), 2);
    // The binary-protocol flavor is gone.
    EXPECT_EQ(cli::runCommand(
                  "top", {"--connect", "unix:/tmp/x", "--once"}, out),
              2);
    // Malformed --http.
    EXPECT_EQ(cli::runCommand("top", {"--http", "nohost", "--once"},
                              out),
              2);
    EXPECT_EQ(cli::runCommand(
                  "top", {"--http", "127.0.0.1:0", "--once"}, out),
              2);
}

TEST(CliVersion, JsonRoundTripsBuildProvenance)
{
    std::ostringstream out;
    ASSERT_EQ(cli::runCommand("version", {"--json"}, out), 0);
    const json::JsonValue doc =
        json::parseJson(out.str(), "version --json");
    EXPECT_EQ(doc.find("mtperf_version")->unsignedIntegral(), 1u);
    for (const char *key :
         {"version", "git_sha", "compiler", "build_type"}) {
        const json::JsonValue *value = doc.find(key);
        ASSERT_NE(value, nullptr) << key;
        EXPECT_TRUE(value->isString()) << key;
        EXPECT_FALSE(value->string().empty()) << key;
    }

    // The human-readable flavor still works.
    std::ostringstream human;
    ASSERT_EQ(cli::runCommand("version", {}, human), 0);
    EXPECT_NE(human.str().find("git "), std::string::npos);
}

TEST(CliTimeseries, CommandWritesParseableDocument)
{
    const std::string dir = testing::TempDir() + "/mtperf_ts_cli_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/ts.json";

    std::ostringstream out;
    // version is cheap and takes every common option, including
    // --timeseries-out; flush happens in runCommand's epilogue.
    const int rc = cli::runCommand(
        "version", {"--timeseries-out", "50ms:" + path}, out);
    EXPECT_EQ(rc, 0) << out.str();
    EXPECT_NE(out.str().find("timeseries written to"),
              std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const obs::ParsedTimeseries parsed =
        obs::parseTimeseries(text, path);
    EXPECT_GE(parsed.samples.size(), 1u);
    EXPECT_EQ(parsed.intervalMs, 50u);
    std::filesystem::remove_all(dir);

    // Malformed specs exit 2 before doing any work.
    std::ostringstream err;
    EXPECT_EQ(cli::runCommand("version",
                              {"--timeseries-out", "nocolon"}, err),
              2);
    EXPECT_EQ(cli::runCommand(
                  "version", {"--timeseries-out", "0:x.json"}, err),
              2);
}

TEST(CliMetricsFormat, PromAndJsonFlavors)
{
    const std::string dir = testing::TempDir() + "/mtperf_mf_cli_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);

    std::ostringstream out;
    ASSERT_EQ(cli::runCommand("version",
                              {"--metrics-out", dir + "/m.prom",
                               "--metrics-format", "prom"},
                              out),
              0);
    std::ifstream in(dir + "/m.prom");
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NO_THROW(obs::parsePrometheusText(text));
    EXPECT_NE(text.find("# TYPE"), std::string::npos);

    ASSERT_EQ(cli::runCommand("version",
                              {"--metrics-out", dir + "/m.json",
                               "--metrics-format", "json"},
                              out),
              0);
    std::ifstream jin(dir + "/m.json");
    const std::string jtext((std::istreambuf_iterator<char>(jin)),
                            std::istreambuf_iterator<char>());
    EXPECT_NO_THROW(json::parseJson(jtext, "metrics json"));

    // Unknown format exits 2; --metrics-format without --metrics-out
    // is accepted (it simply has nothing to format).
    std::ostringstream err;
    EXPECT_EQ(cli::runCommand("version",
                              {"--metrics-out", dir + "/m.x",
                               "--metrics-format", "xml"},
                              err),
              2);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mtperf

/**
 * @file
 * End-to-end tests for the prediction server: byte-identical remote
 * predictions under concurrent clients, hot reload with a corrupt
 * replacement, requests of any size, fault injection at the serve.*
 * sites, client recovery from a killed server, and fairness and flow
 * control under pipelining clients.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "corruption_corpus.h"
#include "data/io.h"
#include "ml/tree/m5prime.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/prometheus.h"
#include "serve/client.h"
#include "serve/server.h"

namespace mtperf::serve {
namespace {

constexpr std::size_t kCounters = 20;

/** A 20-counter synthetic dataset shaped like the paper's sections. */
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

class ServeTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        // PID-unique dir: ctest runs each test as its own process,
        // possibly concurrently, and sockets/models must not collide.
        dir_ = testing::TempDir() + "/mtperf_serve_" +
               std::to_string(::getpid());
        std::filesystem::create_directories(dir_);
        modelPath_ = dir_ + "/model.m5";
        ds_ = counterDataset(2000);
        M5Options options;
        options.minInstances = 40;
        tree_ = M5Prime(options);
        tree_.fit(ds_);
        tree_.saveFile(modelPath_);
    }

    /** A short per-test unix socket path (sun_path is ~100 bytes). */
    std::string
    socketPath(const std::string &tag) const
    {
        return dir_ + "/" + tag + ".sock";
    }

    ServerOptions
    unixOptions(const std::string &tag) const
    {
        ServerOptions options;
        options.modelPath = modelPath_;
        options.listen = "unix:" + socketPath(tag);
        options.pollIntervalMs = 5;
        return options;
    }

    std::string dir_, modelPath_;
    Dataset ds_;
    M5Prime tree_;
};

TEST_F(ServeTest, ConcurrentClientsMatchOfflineByteForByte)
{
    Server server(unixOptions("e2e"));
    server.start();
    const std::string address = "unix:" + socketPath("e2e");

    // >= 10k rows total from 4 concurrent clients, chunked so many
    // requests interleave on the server across connections.
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRowsPerClient = 2500;
    constexpr std::size_t kChunk = 97; // odd size: chunks interleave
    const std::size_t width = ds_.numAttributes();

    std::vector<std::vector<double>> results(kClients);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (std::size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                Client client = Client::connect(address, 0);
                for (std::size_t first = 0; first < kRowsPerClient;
                     first += kChunk) {
                    const std::size_t count = std::min(
                        kChunk, kRowsPerClient - first);
                    // Client t predicts rows [t*2500, (t+1)*2500).
                    const std::size_t base =
                        (t * kRowsPerClient + first) % ds_.size();
                    std::vector<double> flat;
                    flat.reserve(count * width);
                    for (std::size_t r = 0; r < count; ++r) {
                        const auto row =
                            ds_.row((base + r) % ds_.size());
                        flat.insert(flat.end(), row.begin(),
                                    row.end());
                    }
                    const PredictResponse response =
                        client.predict(flat, width);
                    results[t].insert(
                        results[t].end(),
                        response.predictions.begin(),
                        response.predictions.end());
                }
            } catch (const std::exception &) {
                failures.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    ASSERT_EQ(failures.load(), 0);

    // Byte-identical to offline prediction, row by row.
    for (std::size_t t = 0; t < kClients; ++t) {
        ASSERT_EQ(results[t].size(), kRowsPerClient);
        for (std::size_t r = 0; r < kRowsPerClient; ++r) {
            const std::size_t row =
                (t * kRowsPerClient + r) % ds_.size();
            const double offline = tree_.predict(ds_.row(row));
            const double remote = results[t][r];
            EXPECT_EQ(std::memcmp(&offline, &remote, sizeof offline),
                      0)
                << "client " << t << " row " << r;
        }
    }

    // The server's counts must reconcile with what the clients sent.
    server.requestStop();
    server.wait();
    const StatsSnapshot snapshot = server.stats();
    EXPECT_EQ(snapshot.rowsPredicted, 10000u);
    EXPECT_EQ(snapshot.errors, 0u);
    EXPECT_EQ(snapshot.connections, 4u);
}

TEST_F(ServeTest, StatsReconcileWithTheSharedMetricsRegistry)
{
    // ServeStats is a per-instance view over the process-wide obs
    // registry: its numbers must equal the registry deltas.
    const std::uint64_t rows_before =
        obs::counter("serve.rows_predicted").value();
    const std::uint64_t batched_before =
        obs::counter("serve.batch_rows").value();
    const std::uint64_t requests_before =
        obs::counter("serve.requests").value();

    Server server(unixOptions("registry"));
    server.start();
    {
        Client client =
            Client::connect("unix:" + socketPath("registry"), 0);
        const std::size_t width = ds_.numAttributes();
        std::vector<double> flat;
        constexpr std::size_t kRows = 128;
        for (std::size_t r = 0; r < kRows; ++r) {
            const auto row = ds_.row(r);
            flat.insert(flat.end(), row.begin(), row.end());
        }
        ASSERT_EQ(client.predict(flat, width).predictions.size(),
                  kRows);

        // INFO now leads with build metadata from the same registry
        // process (satellite: version/build provenance everywhere).
        const std::string info = client.info();
        EXPECT_NE(info.find("build mtperf "), std::string::npos)
            << info;
    }
    server.requestStop();
    server.wait();

    const StatsSnapshot snapshot = server.stats();
    EXPECT_EQ(snapshot.rowsPredicted, 128u);
    EXPECT_EQ(obs::counter("serve.rows_predicted").value() -
                  rows_before,
              128u);
    EXPECT_EQ(obs::counter("serve.batch_rows").value() -
                  batched_before,
              128u);
    EXPECT_EQ(obs::counter("serve.requests").value() - requests_before,
              snapshot.requests);

    // The cross-counter invariant the server promises must hold.
    for (const auto &violation : obs::validateInvariants())
        EXPECT_NE(violation.name, "serve.rows_predicted_vs_batched")
            << violation.message;
}

TEST_F(ServeTest, AttributionReturnsOfflineLeafIds)
{
    Server server(unixOptions("attr"));
    server.start();
    Client client =
        Client::connect("unix:" + socketPath("attr"), 0);

    const std::size_t width = ds_.numAttributes();
    std::vector<double> flat;
    constexpr std::size_t kRows = 64;
    for (std::size_t r = 0; r < kRows; ++r) {
        const auto row = ds_.row(r);
        flat.insert(flat.end(), row.begin(), row.end());
    }
    const PredictResponse response =
        client.predict(flat, width, /*want_attribution=*/true);
    ASSERT_TRUE(response.hasAttribution);
    ASSERT_EQ(response.leafIds.size(), kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        EXPECT_EQ(response.leafIds[r], tree_.leafIndexFor(ds_.row(r)))
            << "row " << r;
    }
}

TEST_F(ServeTest, ReloadWithCorruptFileKeepsOldModelServing)
{
    Server server(unixOptions("reload"));
    server.start();
    Client client =
        Client::connect("unix:" + socketPath("reload"), 0);

    const std::size_t width = ds_.numAttributes();
    const auto first_row = ds_.row(0);
    const std::vector<double> probe(first_row.begin(),
                                    first_row.end());
    const double before = client.predict(probe, width).predictions[0];

    // Clobber the model file, then ask for a reload mid-traffic: the
    // reloader gets an error, the old model keeps serving.
    const std::string good = testutil::slurpFile(modelPath_);
    testutil::writeFileBytes(modelPath_, "not a model at all");
    EXPECT_THROW(client.reload(), FatalError);
    const double after = client.predict(probe, width).predictions[0];
    EXPECT_EQ(before, after);

    // Restore the good bytes: reload succeeds now.
    testutil::writeFileBytes(modelPath_, good);
    EXPECT_NO_THROW(client.reload());
    const double reloaded =
        client.predict(probe, width).predictions[0];
    EXPECT_EQ(before, reloaded);

    server.requestStop();
    server.wait();
    const StatsSnapshot snapshot = server.stats();
    EXPECT_EQ(snapshot.reloads, 1u);
    EXPECT_EQ(snapshot.reloadFailures, 1u);
}

TEST_F(ServeTest, CliPredictConnectMatchesLocalPredict)
{
    // TCP with an ephemeral port, driven through the real CLI.
    ServerOptions options;
    options.modelPath = modelPath_;
    options.listen = "127.0.0.1";
    options.port = 0;
    options.pollIntervalMs = 5;
    Server server(options);
    server.start();
    ASSERT_NE(server.port(), 0);

    const std::string csv = dir_ + "/sections.csv";
    writeDatasetCsvFile(csv, ds_);

    std::ostringstream remote_out;
    const int remote_status = cli::runCommand(
        "predict",
        {"--connect", "127.0.0.1:" + std::to_string(server.port()),
         "--data", csv},
        remote_out);
    EXPECT_EQ(remote_status, 0) << remote_out.str();

    std::ostringstream local_out;
    const int local_status = cli::runCommand(
        "predict", {"--model", modelPath_, "--data", csv}, local_out);
    EXPECT_EQ(local_status, 0) << local_out.str();

    // Identical metrics line => identical predictions.
    EXPECT_EQ(remote_out.str(), local_out.str());
}

TEST_F(ServeTest, CliPredictNeedsExactlyOneSource)
{
    std::ostringstream out;
    EXPECT_EQ(cli::runCommand("predict", {"--data", "x.csv"}, out), 2);
    EXPECT_EQ(cli::runCommand("predict",
                              {"--model", modelPath_, "--connect",
                               "127.0.0.1", "--data", "x.csv"},
                              out),
              2);
}

TEST_F(ServeTest, GarbageOnTheWireGetsErrorNotCrash)
{
    Server server(unixOptions("garbage"));
    server.start();
    const std::string address = "unix:" + socketPath("garbage");

    // Raw garbage bytes: the server must answer with an ERROR frame
    // (or close), drop that connection, and keep serving others.
    {
        net::Socket raw = net::connectTo(
            net::parseEndpoint(address, 0), 2000);
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        net::writeAll(raw.fd(), junk, sizeof junk - 1);
        Frame reply;
        bool closed = false;
        try {
            closed = !readFrame(raw.fd(), reply, "server");
        } catch (const FatalError &) {
            closed = true; // server hung up mid-reply: acceptable
        }
        if (!closed) {
            EXPECT_EQ(reply.type, kMsgError);
        }
    }

    // A truncated-but-valid-magic frame must also be survivable: send
    // a real frame's prefix, then hang up.
    {
        net::Socket raw = net::connectTo(
            net::parseEndpoint(address, 0), 2000);
        const std::string frame =
            encodeFrame(Frame{kMsgInfo, 1, {}});
        net::writeAll(raw.fd(), frame.data(), frame.size() / 2);
    }

    Client client = Client::connect(address, 0);
    EXPECT_NE(client.info().find("M5Prime"), std::string::npos);
}

TEST_F(ServeTest, RetiredStatsAndMetricsTypesAreUnknown)
{
    // Types 4 and 6 were STATS and METRICS; counters now leave the
    // server by /metrics only, so both get the unknown-type error and
    // the connection keeps serving.
    Server server(unixOptions("retired"));
    server.start();
    net::Socket raw = net::connectTo(
        net::parseEndpoint("unix:" + socketPath("retired"), 0), 2000);
    for (const MsgType type : {MsgType{4}, MsgType{6}}) {
        writeFrame(raw.fd(), Frame{type, type, {}});
        Frame reply;
        ASSERT_TRUE(readFrame(raw.fd(), reply, "server"));
        EXPECT_EQ(reply.type, kMsgError);
        EXPECT_EQ(reply.id, type);
        const ErrorInfo error = decodeError(reply.payload);
        EXPECT_EQ(error.code, kErrBadRequest);
        EXPECT_EQ(error.message,
                  "unknown request type " + std::to_string(type));
    }
    writeFrame(raw.fd(), Frame{kMsgInfo, 9, {}});
    Frame info;
    ASSERT_TRUE(readFrame(raw.fd(), info, "server"));
    EXPECT_EQ(info.type, kMsgInfo | kMsgReplyBit);
    EXPECT_NE(info.payload.find("M5Prime"), std::string::npos);
}

TEST_F(ServeTest, ClientRecoversAfterServerDeath)
{
    auto server = std::make_unique<Server>(unixOptions("kill"));
    server->start();
    const std::string address = "unix:" + socketPath("kill");
    Client client = Client::connect(address, 0);
    const std::size_t width = ds_.numAttributes();
    const auto row0 = ds_.row(0);
    const std::vector<double> probe(row0.begin(), row0.end());
    EXPECT_EQ(client.predict(probe, width).predictions.size(), 1u);

    // Kill the server with the client mid-session: the next request
    // fails with a clean FatalError, not a hang or a crash.
    server.reset();
    EXPECT_THROW(client.predict(probe, width), FatalError);

    // A fresh server on the same address serves a fresh client.
    Server revived(unixOptions("kill"));
    revived.start();
    Client again = Client::connect(address, 0);
    const double offline = tree_.predict(ds_.row(0));
    EXPECT_EQ(again.predict(probe, width).predictions[0], offline);
}

TEST_F(ServeTest, ShutdownRequestStopsTheServer)
{
    Server server(unixOptions("shutdown"));
    server.start();
    Client client =
        Client::connect("unix:" + socketPath("shutdown"), 0);
    client.shutdown();
    server.wait(); // must return promptly after SHUTDOWN
    EXPECT_THROW(Client::connect("unix:" + socketPath("shutdown"), 0),
                 FatalError);
}

TEST_F(ServeTest, RequestLargerThanTheOldQueueIsServed)
{
    // 10,000 rows in one PREDICT: more than the 8,192 rows a bounded
    // batch queue once admitted, so such a request got RETRY until
    // the client gave up. Answered on the loop that read it, it is
    // served like any other, bit for bit.
    Server server(unixOptions("large"));
    server.start();
    Client client = Client::connect("unix:" + socketPath("large"), 0);

    constexpr std::size_t kRows = 10000;
    const std::size_t width = ds_.numAttributes();
    std::vector<double> flat;
    flat.reserve(kRows * width);
    for (std::size_t r = 0; r < kRows; ++r) {
        const auto row = ds_.row(r % ds_.size());
        flat.insert(flat.end(), row.begin(), row.end());
    }
    const PredictResponse response = client.predict(flat, width);
    ASSERT_EQ(response.predictions.size(), kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        const double offline = tree_.predict(ds_.row(r % ds_.size()));
        EXPECT_EQ(std::memcmp(&offline, &response.predictions[r],
                              sizeof offline),
                  0)
            << "row " << r;
    }

    server.requestStop();
    server.wait();
    EXPECT_EQ(server.stats().rowsPredicted, kRows);
}

/** @p count single-row PREDICT frames for row 0 of @p ds, encoded
 *  back to back as a pipelining client sends them. */
std::string
pipelinedPredicts(const Dataset &ds, std::size_t count)
{
    PredictRequest request;
    request.rows = 1;
    request.cols = static_cast<std::uint32_t>(ds.numAttributes());
    const auto row = ds.row(0);
    request.values.assign(row.begin(), row.end());
    Frame frame;
    frame.type = kMsgPredict;
    frame.payload = encodePredictRequest(request);
    std::string bytes;
    for (std::size_t i = 0; i < count; ++i) {
        frame.id = static_cast<std::uint32_t>(i + 1);
        bytes += encodeFrame(frame);
    }
    return bytes;
}

TEST_F(ServeTest, ClientThatNeverReadsIsHeldBackByFlowControl)
{
    // A client that pipelines requests and never reads the replies:
    // once its unsent replies pass the loop's cap, the server stops
    // reading it, the socket buffers fill, and the client's own
    // writes stall. A server that kept reading would take all 64 MiB
    // and queue every reply.
    Server server(unixOptions("noread"));
    server.start();
    net::Socket sock = net::connectTo(
        net::parseEndpoint("unix:" + socketPath("noread"), 0), 2000);
    net::setNonBlocking(sock.fd());
    const std::string batch = pipelinedPredicts(ds_, 1000);

    constexpr std::size_t kLimit = 64u << 20;
    std::size_t written = 0;
    bool stalled = false;
    while (!stalled && written < kLimit) {
        for (std::size_t off = 0; off < batch.size();) {
            const std::size_t n = net::writeSome(
                sock.fd(), batch.data() + off, batch.size() - off);
            if (n == 0) {
                // EAGAIN: stalled for good once the server stops
                // draining the socket for a whole second.
                if (!net::waitWritable(sock.fd(), 1000)) {
                    stalled = true;
                    break;
                }
                continue;
            }
            off += n;
            written += n;
        }
    }
    EXPECT_TRUE(stalled) << "wrote " << written << " bytes";
    EXPECT_LT(written, kLimit);

    sock.close();
    server.requestStop();
    server.wait();
}

TEST_F(ServeTest, FloodingConnectionDoesNotStarveItsLoop)
{
    // One loop, two connections. The first pipelines requests from a
    // writer thread faster than the server answers them and reads the
    // replies on a reader thread, so its socket never runs dry. A
    // PREDICT on the second connection must still be answered while
    // that flood runs, not only once it stops.
    ServerOptions options = unixOptions("flood");
    options.ioThreads = 1;
    Server server(options);
    server.start();
    const net::Endpoint endpoint =
        net::parseEndpoint("unix:" + socketPath("flood"), 0);
    net::Socket flood = net::connectTo(endpoint, 10000);
    const std::string batch = pipelinedPredicts(ds_, 256);

    std::atomic<bool> stop{false};
    std::atomic<bool> flood_over{false};
    std::atomic<std::size_t> replies{0};
    std::thread writer([&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        try {
            while (!stop.load() &&
                   std::chrono::steady_clock::now() < deadline)
                net::writeAll(flood.fd(), batch.data(), batch.size());
        } catch (const FatalError &) {
        }
        flood_over.store(true);
        ::shutdown(flood.fd(), SHUT_WR);
    });
    std::thread reader([&] {
        Frame reply;
        try {
            while (readFrame(flood.fd(), reply))
                replies.fetch_add(1);
        } catch (const FatalError &) {
        }
    });

    for (int i = 0; i < 1000 && replies.load() < 2000; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(replies.load(), 2000u) << "the flood never got going";

    Client probe = Client::connect("unix:" + socketPath("flood"), 0);
    const auto row0 = ds_.row(0);
    const std::vector<double> row(row0.begin(), row0.end());
    const PredictResponse response = probe.predict(row, kCounters);
    const bool answered_during_flood = !flood_over.load();
    stop.store(true);
    writer.join();
    reader.join();

    EXPECT_TRUE(answered_during_flood);
    ASSERT_EQ(response.predictions.size(), 1u);
    const double offline = tree_.predict(ds_.row(0));
    EXPECT_EQ(std::memcmp(&offline, &response.predictions[0],
                          sizeof offline),
              0);

    server.requestStop();
    server.wait();
}

TEST_F(ServeTest, MismatchedWidthIsARequestError)
{
    Server server(unixOptions("width"));
    server.start();
    Client client =
        Client::connect("unix:" + socketPath("width"), 0);
    const std::vector<double> short_row(kCounters - 1, 0.5);
    EXPECT_THROW(client.predict(short_row, kCounters - 1), FatalError);
    // The connection stays usable after a per-request error.
    const auto row0 = ds_.row(0);
    const std::vector<double> probe(row0.begin(), row0.end());
    EXPECT_EQ(client.predict(probe, kCounters).predictions.size(),
              1u);
}

TEST_F(ServeTest, InjectedAcceptFaultDropsOneConnectionOnly)
{
    Server server(unixOptions("fault-accept"));
    server.start();
    fault::configure("serve.accept:1:1");

    // The first accept dies after the handshake; the client sees the
    // connection close on its first read. The second connect works.
    bool first_failed = false;
    try {
        Client client = Client::connect(
            "unix:" + socketPath("fault-accept"), 0);
        client.info();
    } catch (const FatalError &) {
        first_failed = true;
    }
    EXPECT_TRUE(first_failed);

    Client second = Client::connect(
        "unix:" + socketPath("fault-accept"), 0);
    EXPECT_NE(second.info().find("M5Prime"), std::string::npos);
    fault::clear();

    server.requestStop();
    server.wait();
    EXPECT_GE(server.stats().errors, 1u);
}

TEST_F(ServeTest, MultiLoopMultiModelServerMatchesOfflineByteForByte)
{
    // Several epoll loops, two models and concurrent clients for
    // each: a loop serves both models' requests, and every reply must
    // still equal its own model's scalar offline walk.
    const std::string alt_path = dir_ + "/alt.m5";
    M5Options alt_options;
    alt_options.minInstances = 400; // coarser tree => different fits
    M5Prime alt(alt_options);
    alt.fit(ds_);
    alt.saveFile(alt_path);

    ServerOptions options = unixOptions("multi");
    options.ioThreads = 3;
    options.models.emplace_back("alt", alt_path);
    Server server(options);
    server.start();
    const std::string address = "unix:" + socketPath("multi");

    // Even clients use the default model, odd ones key "alt".
    constexpr std::size_t kClients = 6;
    constexpr std::size_t kRowsPerClient = 500;
    constexpr std::size_t kChunk = 61;
    const std::size_t width = ds_.numAttributes();
    std::vector<std::vector<double>> results(kClients);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (std::size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                Client::Options client_options;
                if (t % 2 == 1)
                    client_options.modelKey = "alt";
                Client client =
                    Client::connect(address, 0, client_options);
                for (std::size_t first = 0; first < kRowsPerClient;
                     first += kChunk) {
                    const std::size_t count =
                        std::min(kChunk, kRowsPerClient - first);
                    std::vector<double> flat;
                    flat.reserve(count * width);
                    for (std::size_t r = 0; r < count; ++r) {
                        const auto row = ds_.row(
                            (t * kRowsPerClient + first + r) %
                            ds_.size());
                        flat.insert(flat.end(), row.begin(),
                                    row.end());
                    }
                    const PredictResponse response =
                        client.predict(flat, width);
                    results[t].insert(results[t].end(),
                                      response.predictions.begin(),
                                      response.predictions.end());
                }
            } catch (const std::exception &) {
                failures.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    ASSERT_EQ(failures.load(), 0);
    for (std::size_t t = 0; t < kClients; ++t) {
        const M5Prime &model = t % 2 == 1 ? alt : tree_;
        ASSERT_EQ(results[t].size(), kRowsPerClient);
        for (std::size_t r = 0; r < kRowsPerClient; ++r) {
            const double offline = model.predict(
                ds_.row((t * kRowsPerClient + r) % ds_.size()));
            EXPECT_EQ(std::memcmp(&offline, &results[t][r],
                                  sizeof offline),
                      0)
                << "client " << t << " row " << r;
        }
    }

    server.requestStop();
    server.wait();
    const StatsSnapshot snapshot = server.stats();
    EXPECT_EQ(snapshot.rowsPredicted, kClients * kRowsPerClient);
    EXPECT_EQ(snapshot.models, 2u);
}

TEST_F(ServeTest, ModelKeyRoutesToTheKeyedModel)
{
    // A second, deliberately different model under key "alt": keyed
    // requests must hit it, unkeyed ones the default, and an unknown
    // key must fail without killing the connection.
    const std::string alt_path = dir_ + "/alt.m5";
    M5Options alt_options;
    alt_options.minInstances = 400; // coarser tree => different fits
    M5Prime alt(alt_options);
    alt.fit(ds_);
    alt.saveFile(alt_path);

    ServerOptions options = unixOptions("keyed");
    options.models.emplace_back("alt", alt_path);
    Server server(options);
    server.start();
    const std::string address = "unix:" + socketPath("keyed");

    const std::size_t width = ds_.numAttributes();
    std::vector<double> flat;
    constexpr std::size_t kRows = 100;
    for (std::size_t r = 0; r < kRows; ++r) {
        const auto row = ds_.row(r);
        flat.insert(flat.end(), row.begin(), row.end());
    }

    Client plain = Client::connect(address, 0);
    Client::Options keyed_options;
    keyed_options.modelKey = "alt";
    Client keyed = Client::connect(address, 0, keyed_options);

    const PredictResponse default_response =
        plain.predict(flat, width);
    const PredictResponse alt_response = keyed.predict(flat, width);
    ASSERT_EQ(default_response.predictions.size(), kRows);
    ASSERT_EQ(alt_response.predictions.size(), kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        const double want_default = tree_.predict(ds_.row(r));
        const double want_alt = alt.predict(ds_.row(r));
        EXPECT_EQ(std::memcmp(&want_default,
                              &default_response.predictions[r],
                              sizeof want_default),
                  0)
            << "row " << r;
        EXPECT_EQ(std::memcmp(&want_alt, &alt_response.predictions[r],
                              sizeof want_alt),
                  0)
            << "row " << r;
    }

    // Unknown key: per-request error, connection stays usable.
    Client::Options bad_options;
    bad_options.modelKey = "no-such-model";
    Client bad = Client::connect(address, 0, bad_options);
    EXPECT_THROW(bad.predict(flat, width), FatalError);
    const std::string info = plain.info();
    EXPECT_NE(info.find("\nmodels 2 default alt\n"), std::string::npos)
        << info;

    server.requestStop();
    server.wait();
    EXPECT_EQ(server.stats().models, 2u);
}

TEST_F(ServeTest, ActiveConnectionsGaugeReturnsToZero)
{
    // Connection-leak detector: the serve.connections_active gauge
    // must rise while clients are connected and fall back to its
    // pre-server value once every client disconnected.
    obs::Gauge &active = obs::gauge("serve.connections_active");
    const std::int64_t baseline = active.value();

    ServerOptions options = unixOptions("gauge");
    options.ioThreads = 2;
    Server server(options);
    server.start();
    const std::string address = "unix:" + socketPath("gauge");

    const std::int64_t peak_before = active.maxValue();
    {
        std::vector<Client> clients;
        for (int i = 0; i < 8; ++i)
            clients.push_back(Client::connect(address, 0));
        // Adoption is asynchronous (loop threads); wait for all 8.
        for (int spin = 0;
             active.value() < baseline + 8 && spin < 2000; ++spin)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        EXPECT_EQ(active.value(), baseline + 8);
        for (Client &client : clients)
            client.close();
    }
    for (int spin = 0; active.value() > baseline && spin < 5000;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(active.value(), baseline);
    EXPECT_GE(active.maxValue(), peak_before);
    EXPECT_GE(active.maxValue(), 8);

    server.requestStop();
    server.wait();
    EXPECT_EQ(active.value(), baseline);
    EXPECT_EQ(server.stats().connectionsActive, baseline);
}

TEST_F(ServeTest, SixtyFourConnectionsReconcileThreeWays)
{
    // 64 connections open at once over 2 I/O loops while
    // /metrics is scraped throughout: every reply must equal scalar
    // predict bit for bit, and the clients, the server and the scrape
    // must count the same rows.
    constexpr std::size_t kConnections = 64;
    constexpr std::size_t kDrivers = 4;
    constexpr std::size_t kRequests = 16; // single-row, per connection
    obs::Gauge &active = obs::gauge("serve.connections_active");
    const std::int64_t baseline = active.value();

    ServerOptions options = unixOptions("many");
    options.ioThreads = 2;
    options.metricsHttp = true;
    Server server(options);
    server.start();
    // Served rows per /metrics; -1 when the scrape fails.
    const auto scrapeRows = [&server]() -> double {
        const obs::HttpResponse response = obs::httpGet(
            "127.0.0.1", server.metricsPort(), "/metrics");
        return response.status == 200
                   ? obs::parsePrometheusText(response.body)
                         .valueOr("mtperf_serve_rows_predicted", -1.0)
                   : -1.0;
    };

    std::atomic<std::uint64_t> good_scrapes{0};
    std::atomic<std::uint64_t> bad_scrapes{0};
    // A jthread: an early exit from the test still stops and joins it.
    std::jthread scraper([&](const std::stop_token &stop) {
        while (!stop.stop_requested()) {
            try {
                (scrapeRows() >= 0.0 ? good_scrapes : bad_scrapes)
                    .fetch_add(1);
            } catch (const std::exception &) {
                bad_scrapes.fetch_add(1);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    const double scraped_before = scrapeRows();
    const std::uint64_t server_before = server.stats().rowsPredicted;

    std::vector<Client> clients;
    for (std::size_t c = 0; c < kConnections; ++c)
        clients.push_back(Client::connect("unix:" + socketPath("many"),
                                          0));
    const std::int64_t open =
        baseline + static_cast<std::int64_t>(kConnections);
    // Adoption is asynchronous (loop threads); wait for all 64.
    for (int spin = 0; active.value() < open && spin < 5000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(active.value(), open);

    // Driver d owns connections d, d + 4, ... and keeps each busy.
    const std::size_t width = ds_.numAttributes();
    std::atomic<std::uint64_t> client_rows{0};
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> drivers;
    for (std::size_t d = 0; d < kDrivers; ++d) {
        drivers.emplace_back([&, d] {
            try {
                for (std::size_t r = 0; r < kRequests; ++r) {
                    for (std::size_t c = d; c < kConnections;
                         c += kDrivers) {
                        const auto row =
                            ds_.row((c * kRequests + r) % ds_.size());
                        const double served =
                            clients[c].predict(row, width)
                                .predictions.at(0);
                        const double scalar = tree_.predict(row);
                        if (std::memcmp(&served, &scalar,
                                        sizeof served) != 0)
                            mismatches.fetch_add(1);
                        client_rows.fetch_add(1);
                    }
                }
            } catch (const std::exception &) {
                failures.fetch_add(1);
            }
        });
    }
    for (auto &driver : drivers)
        driver.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(active.value(), open);

    const std::uint64_t rows = client_rows.load();
    EXPECT_EQ(rows, kConnections * kRequests);
    EXPECT_EQ(server.stats().rowsPredicted - server_before, rows);
    EXPECT_EQ(scrapeRows() - scraped_before, static_cast<double>(rows));

    for (Client &client : clients)
        client.close();
    for (int spin = 0; active.value() > baseline && spin < 5000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(active.value(), baseline);

    scraper.request_stop();
    scraper.join();
    EXPECT_GE(good_scrapes.load(), 1u);
    EXPECT_EQ(bad_scrapes.load(), 0u);
    server.requestStop();
    server.wait();
}

TEST_F(ServeTest, InjectedReadFaultKillsOneConnectionOnly)
{
    Server server(unixOptions("fault-read"));
    server.start();
    Client doomed = Client::connect(
        "unix:" + socketPath("fault-read"), 0);
    fault::configure("serve.read:1:1");

    bool failed = false;
    try {
        doomed.info();
    } catch (const FatalError &) {
        failed = true;
    }
    EXPECT_TRUE(failed);
    fault::clear();

    Client fresh = Client::connect(
        "unix:" + socketPath("fault-read"), 0);
    EXPECT_NE(fresh.info().find("M5Prime"), std::string::npos);
}

} // namespace
} // namespace mtperf::serve

/**
 * @file
 * Tests for scoped-span tracing (Chrome trace-event JSON output) and
 * the per-thread identity used for its tracks.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fault.h"
#include "common/json.h"
#include "obs/thread_info.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace mtperf::obs {
namespace {

void
expectStructurallyValidJson(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            ASSERT_GT(depth, 0) << "unbalanced close";
            --depth;
        }
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON";
    EXPECT_FALSE(in_string) << "unterminated string";
}

TEST(ObsThreadInfo, IdsAreDenseAndStable)
{
    const std::uint32_t main_id = currentThreadId();
    EXPECT_EQ(currentThreadId(), main_id) << "id must be stable";
    std::uint32_t other_id = main_id;
    std::thread([&] { other_id = currentThreadId(); }).join();
    EXPECT_NE(other_id, main_id);
}

TEST(ObsThreadInfo, NamesAreRecordedAndListed)
{
    std::thread([] {
        setCurrentThreadName("obs-test-named");
        EXPECT_EQ(currentThreadName(), "obs-test-named");
        const std::uint32_t id = currentThreadId();
        bool listed = false;
        for (const auto &[tid, name] : namedThreads())
            if (tid == id && name == "obs-test-named")
                listed = true;
        EXPECT_TRUE(listed);
    }).join();
}

TEST(ObsThreadInfo, KernelNameClampKeepsHeadAndTail)
{
    // Short names pass through untouched.
    EXPECT_EQ(kernelThreadName("sampler"), "sampler");
    // Exactly at the 15-char kernel limit: unchanged.
    EXPECT_EQ(kernelThreadName("123456789012345"), "123456789012345");
    // Over the limit: 7 head chars + '~' + 7 tail chars, so the
    // component prefix and the instance id both survive.
    EXPECT_EQ(kernelThreadName("mtperf-worker-123456"),
              "mtperf-~-123456");
    EXPECT_EQ(kernelThreadName("mtperf-worker-123456").size(), 15u);
    // The distinguishing suffix survives where plain truncation
    // would have collapsed these to the same kernel name.
    EXPECT_NE(kernelThreadName("mtperf-worker-1000001"),
              kernelThreadName("mtperf-worker-1000002"));
}

#if defined(__linux__)
TEST(ObsThreadInfo, KernelNameIsSetAndClamped)
{
    std::thread([] {
        // 20 chars: the kernel gets the head~tail clamp (instance id
        // preserved), the in-process table keeps the full name.
        setCurrentThreadName("mtperf-worker-123456");
        char buf[32] = {};
        ASSERT_EQ(pthread_getname_np(pthread_self(), buf, sizeof(buf)),
                  0);
        EXPECT_STREQ(buf, "mtperf-~-123456");
        EXPECT_EQ(currentThreadName(), "mtperf-worker-123456");
    }).join();
}
#endif

TEST(ObsTrace, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(traceEnabled());
    {
        ScopedSpan span("test", "never.recorded");
    }
    startTrace();
    EXPECT_TRUE(traceEnabled());
    stopTrace();
    EXPECT_FALSE(traceEnabled());
    EXPECT_EQ(traceToJson().find("never.recorded"), std::string::npos);
}

TEST(ObsTrace, SpansAndInstantsAppearInJson)
{
    startTrace();
    {
        ScopedSpan outer("test", std::string("outer.span detail=1"));
        ScopedSpan inner("test", "inner.span");
        traceInstant("test", "marker.one");
    }
    stopTrace();

    const std::string json = traceToJson();
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("outer.span detail=1"), std::string::npos);
    EXPECT_NE(json.find("inner.span"), std::string::npos);
    EXPECT_NE(json.find("marker.one"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ObsTrace, ControlCharactersInSpanNamesRoundTrip)
{
    const std::string name = "line\none\x01two \"q\" back\\slash";
    startTrace();
    {
        ScopedSpan span("test", name);
    }
    stopTrace();

    const json::JsonValue doc =
        json::parseJson(traceToJson(), "trace");
    bool found = false;
    for (const json::JsonValue &event :
         doc.find("traceEvents")->array())
        found = found || event.find("name")->string() == name;
    EXPECT_TRUE(found) << "span name did not survive the JSON trip";
}

TEST(ObsTrace, StartTraceBeginsAFreshSession)
{
    startTrace();
    {
        ScopedSpan span("test", "old.session.span");
    }
    stopTrace();
    ASSERT_NE(traceToJson().find("old.session.span"), std::string::npos);

    startTrace();
    {
        ScopedSpan span("test", "new.session.span");
    }
    stopTrace();
    const std::string json = traceToJson();
    EXPECT_NE(json.find("new.session.span"), std::string::npos);
    EXPECT_EQ(json.find("old.session.span"), std::string::npos)
        << "startTrace() must clear the previous session's events";
}

TEST(ObsTrace, ThreadsGetTheirOwnNamedTracks)
{
    startTrace();
    {
        ScopedSpan span("test", "main.thread.span");
    }
    std::thread([] {
        setCurrentThreadName("obs-trace-worker");
        ScopedSpan span("test", "worker.thread.span");
    }).join();
    stopTrace();

    const std::string json = traceToJson();
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("main.thread.span"), std::string::npos);
    EXPECT_NE(json.find("worker.thread.span"), std::string::npos);
    // Thread-name metadata events give the worker its own track name.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("obs-trace-worker"), std::string::npos);
}

TEST(ObsTrace, SpanOpenAcrossStopStillCompletes)
{
    startTrace();
    {
        ScopedSpan span("test", "spans.stop.mid.flight");
        stopTrace();
    } // destructor runs after stopTrace(): the span must not vanish
    EXPECT_NE(traceToJson().find("spans.stop.mid.flight"),
              std::string::npos);
}

TEST(ObsTrace, WriteTraceFileProducesLoadableJson)
{
    const std::string path = testing::TempDir() + "/mtperf_obs_trace.json";
    std::filesystem::remove(path);
    startTrace();
    {
        ScopedSpan span("test", "file.span");
    }
    writeTraceFile(path);
    EXPECT_FALSE(traceEnabled()) << "writeTraceFile stops the session";

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    expectStructurallyValidJson(text);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("file.span"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(ObsTrace, WriteTraceFileIsCrashSafeUnderFaultInjection)
{
    const std::string path =
        testing::TempDir() + "/mtperf_obs_trace_fault.json";
    std::filesystem::remove(path);
    startTrace();
    {
        ScopedSpan span("test", "fault.span");
    }
    fault::configure("obs.flush:1:1");
    EXPECT_THROW(writeTraceFile(path), fault::InjectedFault);
    EXPECT_FALSE(std::filesystem::exists(path));
    fault::clear();

    // Events survive the failed flush; a retry writes them all.
    writeTraceFile(path);
    ASSERT_TRUE(std::filesystem::exists(path));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("fault.span"), std::string::npos);
    std::filesystem::remove(path);
}

} // namespace
} // namespace mtperf::obs

#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/strings.h"
#include "obs/thread_info.h"

namespace mtperf::obs {

namespace detail {
std::atomic<bool> traceEnabled{false};
} // namespace detail

namespace {

using clock = std::chrono::steady_clock;

/** Session epoch: event timestamps are microseconds since this. */
std::atomic<std::int64_t> epochMicros{0};

std::int64_t
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               clock::now().time_since_epoch())
        .count();
}

struct TraceEvent
{
    const char *category;
    std::string name;
    std::int64_t tsMicros;  //!< relative to the session epoch
    std::int64_t durMicros; //!< -1 for instant events
};

/**
 * One thread's event buffer. Owned jointly by the writing thread
 * (via thread_local shared_ptr) and the global session (so events
 * survive thread exit). The per-buffer mutex is effectively
 * uncontended: the owner appends, and collection only runs from
 * traceToJson()/startTrace().
 */
struct ThreadBuffer
{
    std::uint32_t tid;
    std::mutex mutex;
    std::uint64_t session; //!< startTrace() generation at last append
    std::vector<TraceEvent> events;
};

struct TraceState
{
    std::mutex mutex;
    std::uint64_t session = 0; //!< bumped by every startTrace()
    std::string processLabel = "mtperf";
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

TraceState &
state()
{
    static TraceState *instance = new TraceState; // never destroyed
    return *instance;
}

ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto fresh = std::make_shared<ThreadBuffer>();
        fresh->tid = currentThreadId();
        TraceState &st = state();
        std::lock_guard<std::mutex> lock(st.mutex);
        fresh->session = st.session;
        st.buffers.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

void
appendEvent(TraceEvent event)
{
    ThreadBuffer &buffer = threadBuffer();
    const std::uint64_t session = [] {
        TraceState &st = state();
        std::lock_guard<std::mutex> lock(st.mutex);
        return st.session;
    }();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    if (buffer.session != session) {
        // First append since a startTrace(): drop the stale session's
        // events lazily, so startTrace() needn't visit every buffer.
        buffer.events.clear();
        buffer.session = session;
    }
    buffer.events.push_back(std::move(event));
}

} // namespace

void
startTrace()
{
    TraceState &st = state();
    {
        std::lock_guard<std::mutex> lock(st.mutex);
        ++st.session;
    }
    epochMicros.store(nowMicros(), std::memory_order_relaxed);
    detail::traceEnabled.store(true, std::memory_order_relaxed);
}

void
stopTrace()
{
    detail::traceEnabled.store(false, std::memory_order_relaxed);
}

void
traceInstant(const char *category, std::string name)
{
    if (!traceEnabled())
        return;
    appendEvent({category, std::move(name),
                 nowMicros() -
                     epochMicros.load(std::memory_order_relaxed),
                 -1});
}

std::int64_t
traceNowMicros()
{
    return nowMicros();
}

void
traceCompleteSpan(const char *category, std::string name,
                  std::int64_t startMicros, std::int64_t endMicros)
{
    if (!traceEnabled())
        return;
    const std::int64_t epoch =
        epochMicros.load(std::memory_order_relaxed);
    appendEvent({category, std::move(name), startMicros - epoch,
                 std::max<std::int64_t>(endMicros - startMicros, 0)});
}

void
setTraceProcessLabel(std::string label)
{
    TraceState &st = state();
    std::lock_guard<std::mutex> lock(st.mutex);
    st.processLabel = std::move(label);
}

std::string
traceIdHex(std::uint64_t traceId)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(traceId));
    return buf;
}

std::string
traceToJson()
{
    // Snapshot the buffer list, then drain each buffer under its own
    // lock. In-flight spans (not yet destroyed) are simply absent.
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::uint64_t session = 0;
    std::string processLabel;
    {
        TraceState &st = state();
        std::lock_guard<std::mutex> lock(st.mutex);
        buffers = st.buffers;
        session = st.session;
        processLabel = st.processLabel;
    }

    // The real pid keeps tids from colliding when a client trace and
    // a server trace are concatenated into one merged document.
    const long pid = static_cast<long>(::getpid());
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(processLabel)
       << "\"}}";
    bool first = false;
    for (const auto &[tid, name] : namedThreads()) {
        os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
           << jsonEscape(name) << "\"}}";
    }
    for (const auto &buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        if (buffer->session != session)
            continue; // events predate the current session
        for (const TraceEvent &event : buffer->events) {
            if (!first)
                os << ',';
            first = false;
            os << "{\"name\":\"" << jsonEscape(event.name)
               << "\",\"cat\":\"" << event.category
               << "\",\"ph\":\"" << (event.durMicros < 0 ? 'i' : 'X')
               << "\",\"ts\":" << event.tsMicros;
            if (event.durMicros >= 0)
                os << ",\"dur\":" << event.durMicros;
            else
                os << ",\"s\":\"t\"";
            os << ",\"pid\":" << pid << ",\"tid\":" << buffer->tid
               << '}';
        }
    }
    os << "]}";
    return os.str();
}

void
writeTraceFile(const std::string &path)
{
    stopTrace();
    const std::string json = traceToJson();
    MTPERF_FAULT_POINT("obs.flush");
    atomicWriteFile(path, [&](std::ostream &out) { out << json << "\n"; });
}

ScopedSpan::ScopedSpan(const char *category, std::string name)
{
    if (!traceEnabled())
        return;
    armed_ = true;
    category_ = category;
    name_ = std::move(name);
    startMicros_ = nowMicros();
}

ScopedSpan::ScopedSpan(const char *category, const char *name)
{
    if (!traceEnabled())
        return;
    armed_ = true;
    category_ = category;
    name_ = name;
    startMicros_ = nowMicros();
}

ScopedSpan::~ScopedSpan()
{
    if (!armed_)
        return;
    const std::int64_t end = nowMicros();
    const std::int64_t epoch =
        epochMicros.load(std::memory_order_relaxed);
    // Record even if tracing stopped mid-span: the buffer's session
    // check on the next startTrace() discards anything stale.
    appendEvent({category_, std::move(name_), startMicros_ - epoch,
                 end - startMicros_});
}

} // namespace mtperf::obs

// ropuf::obs — span/trace event sink emitting Chrome trace-event JSON.
//
// The sink buffers begin/end/instant events in memory and writes one
// Perfetto- / chrome://tracing-loadable JSON object on close(). Tracks map
// to threads: each thread that emits gets a tid from a freelist (recycled
// on thread exit), so a campaign shows one track per *concurrent* worker,
// not one per short-lived attempt thread ever spawned.
//
// Same zero-overhead contract as the metrics registry: no sink installed
// means every site is one relaxed pointer load and a branch (the Span RAII
// helper stores the sink it saw at construction so begin/end always pair
// against the same sink).
//
// Timestamps are taken under the emit mutex from one steady clock, so the
// global event order — and therefore every per-track order — is monotonic
// by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Span args are built with JsonWriter; this header also carries the
// escaper, append_trace_escaped, for callers that splice JSON by hand.
#include "ropuf/obs/json_writer.hpp"

namespace ropuf::obs {

class TraceSink;

namespace detail {
extern std::atomic<TraceSink*> g_trace;
} // namespace detail

/// The installed sink, or nullptr when tracing is off.
inline TraceSink* trace() noexcept {
    return detail::g_trace.load(std::memory_order_acquire);
}

/// Installs `sink` process-wide (nullptr uninstalls). Caller owns the sink
/// and must quiesce instrumented threads before destroying it.
void install_trace(TraceSink* sink) noexcept;

class TraceSink {
public:
    /// `max_events` caps memory; events beyond it are counted as dropped
    /// and noted in the output's otherData.
    explicit TraceSink(std::string path, std::size_t max_events = 1 << 20);
    ~TraceSink(); ///< closes (best-effort) if close() was never called
    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /// Names the calling thread's track ("executor", "worker", ...).
    void set_thread_name(std::string_view name);

    /// Begins a duration span on the calling thread's track. `args_json`,
    /// when non-empty, must be a complete JSON object (built with
    /// JsonWriter).
    void begin(std::string_view name, std::string args_json = {});

    /// Ends the calling thread's innermost open span. Unbalanced end()s
    /// are ignored.
    void end();

    /// Emits an instant (thread-scoped) event — watchdog kills, injected
    /// faults, quarantines.
    void instant(std::string_view name, std::string args_json = {});

    /// Auto-closes any still-open spans, writes the JSON file, and makes
    /// further emits no-ops. Idempotent; returns false if the file could
    /// not be written.
    bool close();

    const std::string& path() const { return path_; }
    std::size_t events() const;
    std::size_t dropped() const;

private:
    struct Event {
        double ts_us;
        int tid;
        char ph; // 'B', 'E', 'i', 'M'
        std::string name;
        std::string args_json;
    };
    struct OpenSpan {
        std::string name;
        bool emitted; // false if the B was dropped by the event cap
    };
    struct Track {
        int tid;
        std::vector<OpenSpan> open_spans; // innermost last, for auto-close
    };

    double now_us_locked() const;
    Track& local_track_locked();
    void push_locked(Event event);
    friend struct TlsTraceSlot;
    void release_tid(int tid);

    const std::string path_;
    const std::size_t max_events_;
    const std::uint64_t epoch_;
    const std::chrono::steady_clock::time_point start_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::vector<Track> tracks_;     // indexed by tid
    std::vector<int> free_tids_;
    std::size_t dropped_ = 0;
    bool closed_ = false;
};

/// RAII span: begins on construction when a sink is installed, ends on
/// destruction against that same sink.
class Span {
public:
    explicit Span(std::string_view name, std::string args_json = {})
        : sink_(trace()) {
        if (sink_ != nullptr) sink_->begin(name, std::move(args_json));
    }
    ~Span() {
        if (sink_ != nullptr) sink_->end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    TraceSink* sink_;
};

} // namespace ropuf::obs

#include "ropuf/obs/trace.hpp"

#include <cstdio>
#include <map>
#include <utility>

namespace ropuf::obs {

namespace detail {
std::atomic<TraceSink*> g_trace{nullptr};
} // namespace detail

void install_trace(TraceSink* sink) noexcept {
    detail::g_trace.store(sink, std::memory_order_release);
}

namespace {

// Live sinks by unique epoch, mirroring the metrics registry's shard
// recycling: a thread-exit destructor only returns its tid to a sink that
// still exists.
std::mutex& live_mutex() {
    static std::mutex m;
    return m;
}

std::map<std::uint64_t, TraceSink*>& live_sinks() {
    static std::map<std::uint64_t, TraceSink*> live;
    return live;
}

std::uint64_t next_epoch() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

struct TlsTraceSlot {
    std::uint64_t epoch = 0;
    int tid = -1;

    ~TlsTraceSlot() {
        if (tid < 0) return;
        std::lock_guard<std::mutex> lock(live_mutex());
        auto it = live_sinks().find(epoch);
        if (it != live_sinks().end()) it->second->release_tid(tid);
    }
};

namespace {
thread_local TlsTraceSlot t_track;
} // namespace

TraceSink::TraceSink(std::string path, std::size_t max_events)
    : path_(std::move(path)),
      max_events_(max_events),
      epoch_(next_epoch()),
      start_(std::chrono::steady_clock::now()) {
    std::lock_guard<std::mutex> lock(live_mutex());
    live_sinks().emplace(epoch_, this);
}

TraceSink::~TraceSink() {
    close();
    std::lock_guard<std::mutex> lock(live_mutex());
    live_sinks().erase(epoch_);
}

double TraceSink::now_us_locked() const {
    const auto dt = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::micro>(dt).count();
}

TraceSink::Track& TraceSink::local_track_locked() {
    if (t_track.epoch == epoch_ && t_track.tid >= 0)
        return tracks_[static_cast<std::size_t>(t_track.tid)];
    int tid;
    if (!free_tids_.empty()) {
        tid = free_tids_.back();
        free_tids_.pop_back();
    } else {
        tid = static_cast<int>(tracks_.size());
        tracks_.push_back(Track{tid, {}});
    }
    t_track.epoch = epoch_;
    t_track.tid = tid;
    return tracks_[static_cast<std::size_t>(tid)];
}

void TraceSink::release_tid(int tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tid >= 0 && static_cast<std::size_t>(tid) < tracks_.size())
        free_tids_.push_back(tid);
}

void TraceSink::push_locked(Event event) {
    if (events_.size() >= max_events_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

void TraceSink::set_thread_name(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    JsonWriter args;
    args.begin_object().key("name").str(name).end_object();
    push_locked(Event{0.0, track.tid, 'M', "thread_name", args.release()});
}

void TraceSink::begin(std::string_view name, std::string args_json) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    const bool emitted = events_.size() < max_events_;
    track.open_spans.push_back(OpenSpan{std::string(name), emitted});
    push_locked(Event{now_us_locked(), track.tid, 'B', std::string(name),
                      std::move(args_json)});
}

void TraceSink::end() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    if (track.open_spans.empty()) return; // unbalanced end — ignore
    OpenSpan span = std::move(track.open_spans.back());
    track.open_spans.pop_back();
    // A span whose B fell to the event cap must not emit a dangling E.
    if (!span.emitted) return;
    events_.push_back(Event{now_us_locked(), track.tid, 'E',
                            std::move(span.name), {}});
}

void TraceSink::instant(std::string_view name, std::string args_json) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    Track& track = local_track_locked();
    push_locked(Event{now_us_locked(), track.tid, 'i', std::string(name),
                      std::move(args_json)});
}

std::size_t TraceSink::events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::size_t TraceSink::dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

bool TraceSink::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return true;
    closed_ = true;

    // Auto-close spans left open (a killed run, an exception path) so the
    // file always has balanced B/E pairs.
    const double end_ts = now_us_locked();
    for (Track& track : tracks_) {
        while (!track.open_spans.empty()) {
            OpenSpan span = std::move(track.open_spans.back());
            track.open_spans.pop_back();
            if (!span.emitted) continue;
            // Closing events may exceed max_events_ by the number of open
            // spans — dropping them instead would unbalance B/E pairs.
            events_.push_back(
                Event{end_ts, track.tid, 'E', std::move(span.name), {}});
        }
    }

    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) return false;

    JsonWriter w;
    w.begin_object().key("displayTimeUnit").str("ms");
    w.key("otherData").begin_object().key("producer").str("ropuf");
    if (dropped_ > 0) w.key("dropped_events").integer(dropped_);
    w.end_object().key("traceEvents").begin_array();
    for (const Event& e : events_) {
        w.begin_object().key("ph").str(std::string_view(&e.ph, 1));
        w.key("pid").integer(1).key("tid").integer(e.tid);
        w.key("ts").fixed(e.ts_us, 3).key("name").str(e.name);
        if (e.ph == 'i') w.key("s").str("t"); // thread-scoped instant
        if (!e.args_json.empty()) w.key("args").raw(e.args_json);
        w.end_object();
    }
    w.end_array().end_object();
    std::string out = w.release();
    out += '\n';

    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed_ok = std::fclose(f) == 0;
    return ok && closed_ok;
}

} // namespace ropuf::obs

// ropuf::obs — metrics registry with a hard zero-overhead-when-off contract.
//
// Observability for multi-hour fleet campaigns: named counters, gauges and
// histograms that the execution seams (campaign trial workers, the xp
// executor, oracle middleware, the result writer, the SIMD call sites)
// update while a run is live, and that the progress reporter reads as
// merged snapshots. A job's own slice — the "obs" record side-key — is a
// Scope: every update a thread makes while it has the job's scope
// installed lands in the registry and in the scope.
//
// The contract, in priority order:
//
//  1. *Off is free.* No registry installed (the default — install() has
//     never been called, or was called with nullptr) means every
//     instrumentation site reduces to one relaxed atomic pointer load and a
//     branch. No allocation, no TLS write, no clock read.
//
//  2. *On is cheap and lock-free on the hot path.* Metric slots are sharded
//     per thread: an update touches only the calling thread's shard, as a
//     plain relaxed load/store pair on an owner-written slot (which
//     compiles to the same two moves as an ordinary increment — there is no
//     atomic read-modify-write, no fence, and no lock anywhere on the
//     update path). Locks exist in exactly two places: registering a new
//     metric name, and merging shards into a Snapshot. A thread with a job
//     Scope installed also adds into the scope, which its job's other
//     threads share: one atomic add per update, still no lock.
//
//  3. *Determinism is untouched.* Metrics never feed an RNG, never decide
//     control flow, and only ever ride in the non-deterministic "obs"
//     record side-key — a campaign run with metrics on is byte-identical in
//     deterministic content to one with metrics off.
//
// Usage at an instrumentation site (the macros expand to the branch-on-null
// shape the contract demands; the name must be a literal because the id is
// cached per call site):
//
//     ROPUF_OBS_COUNT("xp.retries", 1);
//     ROPUF_OBS_OBSERVE("campaign.trial_wall_ms", report.wall_ms);
//
// Dynamic names (per-defense-token counters) go through the registry
// directly — registration is a lock, so keep those out of inner loops:
//
//     if (obs::Registry* r = obs::registry())
//         r->add(r->counter("oracle.refused{defense=" + token + "}"), n);
//
// Per-job slices: the executor runs a job's trials on several pool workers
// at once, each with the job's Scope installed (ScopeGuard), and reads the
// job's side-key from the scope alone:
//
//     auto scope = std::make_shared<obs::Scope>(*reg);
//     { const obs::ScopeGuard in_job(scope); run_trials(); }
//     const obs::Snapshot mine = scope->snapshot();
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ropuf::obs {

class Registry;

namespace detail {
extern std::atomic<Registry*> g_registry;
} // namespace detail

/// The installed registry, or nullptr when observability is off. One
/// relaxed-ish load — this is the whole obs-off cost of every site.
inline Registry* registry() noexcept {
    return detail::g_registry.load(std::memory_order_acquire);
}

/// Installs `r` as the process-wide registry (nullptr uninstalls). The
/// caller owns the registry and must keep it alive — and quiesce or join
/// every instrumented thread — until after uninstalling.
void install(Registry* r) noexcept;

enum class MetricKind : std::uint32_t { counter = 0, gauge = 1, histogram = 2 };

/// Metric handle: kind in the top bits, slot index below. kInvalidMetric is
/// the safe dead handle — add/set/observe ignore it, so capacity overflow
/// or a kind-mismatched registration can never crash a run.
using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xffffffffu;

/// Per-call-site cache for the macros: (registry epoch, id). Each registry
/// instance has a process-unique nonzero epoch, so a cached id can never be
/// replayed against a different (or a re-created) registry.
struct CachedId {
    std::uint64_t epoch = 0;
    MetricId id = kInvalidMetric;
};

/// Histogram bucket layout: 4 sub-buckets per power of two ("octave"),
/// covering 2^-20 .. 2^28 (sub-microsecond to ~3 days when values are
/// milliseconds). Quantiles read back from buckets are therefore accurate
/// to ~12.5%; count/sum/min/max are exact.
inline constexpr int kHistBuckets = 4 * 48;

int hist_bucket_index(double v) noexcept;
double hist_bucket_value(int index) noexcept; ///< representative midpoint

class JsonWriter;

/// How a histogram is reported — in the metrics dump and in a job record's
/// "obs" side-key alike. Quantiles come from the log buckets (~12.5%
/// resolution); count and mean are exact.
struct HistSummary {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/// Writes `h` as one {"count","mean","p50","p95","p99","max"} object.
void write_hist_summary(JsonWriter& w, const HistSummary& h);

/// One merged, point-in-time view of every registered metric. Counters and
/// histograms are summed across all thread shards; gauges are read from
/// their registry-level slot.
struct Snapshot {
    struct Scalar {
        std::string name;
        double value = 0.0;
    };
    struct Hist {
        std::string name;
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0; ///< exact
        double max = 0.0;
        std::array<std::uint64_t, kHistBuckets> buckets{};

        double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
        /// Nearest-rank quantile from the buckets (~12.5% resolution),
        /// clamped into [min, max].
        double quantile(double q) const;
        HistSummary summary() const;
    };

    std::vector<Scalar> counters;
    std::vector<Scalar> gauges;
    std::vector<Hist> hists;

    const Scalar* find_counter(std::string_view name) const;
    const Scalar* find_gauge(std::string_view name) const;
    const Hist* find_hist(std::string_view name) const;
    double counter_or(std::string_view name, double fallback) const;
    double gauge_or(std::string_view name, double fallback) const;

    /// One JSON object (counters/gauges/hist summaries) — the debug dump.
    std::string to_json() const;
};

/// The registry: name -> slot registration under a lock, per-thread sharded
/// slots on the update path, merged snapshots on demand. Capacity is fixed
/// at construction-time constants; registrations beyond it return
/// kInvalidMetric (counted, never fatal).
class Registry {
public:
    static constexpr std::size_t kMaxCounters = 192;
    static constexpr std::size_t kMaxGauges = 32;
    static constexpr std::size_t kMaxHistograms = 24;

    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Register-or-look-up by name (locks). A name registered under a
    /// different kind, or past capacity, yields kInvalidMetric.
    MetricId counter(std::string_view name);
    MetricId gauge(std::string_view name);
    MetricId histogram(std::string_view name);

    /// Per-call-site cached registration for the macros: the fast path is
    /// one epoch compare.
    MetricId intern(CachedId& cache, MetricKind kind, std::string_view name) {
        if (cache.epoch == epoch_) return cache.id;
        return intern_slow(cache, kind, name);
    }

    /// Hot-path updates; counter adds and samples also land in the calling
    /// thread's current Scope. Invalid or wrong-kind ids are ignored.
    void add(MetricId id, double delta);     ///< counter += delta
    void set(MetricId id, double value);     ///< gauge = value
    void observe(MetricId id, double value); ///< histogram sample

    /// Merges every shard under the registration lock.
    Snapshot snapshot() const;

    /// Registrations dropped because a capacity ceiling was hit.
    std::uint64_t dropped_registrations() const {
        return dropped_.load(std::memory_order_relaxed);
    }

    std::uint64_t epoch() const { return epoch_; }

    /// Shards ever created (== peak concurrent instrumented threads when
    /// thread-exit recycling keeps up). Exposed for tests.
    std::size_t shard_count() const;

private:
    friend struct TlsShardSlot;
    friend class Scope;
    struct Shard;

    MetricId intern_slow(CachedId& cache, MetricKind kind, std::string_view name);
    Shard& local_shard();
    Shard& acquire_shard();
    void release_shard(Shard* shard);

    const std::uint64_t epoch_;
    mutable std::mutex mutex_; ///< registration + snapshot + shard list
    std::map<std::string, MetricId, std::less<>> ids_;
    std::vector<std::string> counter_names_;
    std::vector<std::string> gauge_names_;
    std::vector<std::string> hist_names_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::array<std::atomic<double>, kMaxGauges> gauge_slots_{};
    std::atomic<std::uint64_t> dropped_{0};
};

/// One job's own slice of the metrics. While a thread has the scope
/// installed (ScopeGuard), each counter add and histogram sample it makes
/// lands in its registry shard and in the scope too; gauges stay
/// registry-only. Several threads may share one scope — a job's trials run
/// on several pool workers, and a watchdog attempt thread carries its
/// caller's scope — so scope slots take atomic read-modify-writes: still
/// lock-free, and paid only by threads with a scope installed.
class Scope {
public:
    explicit Scope(const Registry& registry) : registry_(registry) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Every registered counter and histogram, valued from this scope
    /// alone (histogram min/max exact); gauges are left out.
    Snapshot snapshot() const;

private:
    friend class Registry;
    struct HistSlot {
        std::atomic<std::uint64_t> count{0};
        std::atomic<double> sum{0.0};
        std::atomic<double> min{std::numeric_limits<double>::infinity()};
        std::atomic<double> max{-std::numeric_limits<double>::infinity()};
        std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    };

    void add(std::size_t index, double delta);
    void observe(std::size_t index, double value);

    const Registry& registry_;
    std::array<std::atomic<double>, Registry::kMaxCounters> counters_{};
    std::array<HistSlot, Registry::kMaxHistograms> hists_{};
};

/// Installs `scope` as the calling thread's current scope for the guard's
/// lifetime (nullptr = none), then restores the previous one. The thread
/// shares ownership meanwhile, so a watchdog-abandoned attempt can never
/// update a freed scope.
class ScopeGuard {
public:
    explicit ScopeGuard(std::shared_ptr<Scope> scope);
    ~ScopeGuard();
    ScopeGuard(const ScopeGuard&) = delete;
    ScopeGuard& operator=(const ScopeGuard&) = delete;

private:
    std::shared_ptr<Scope> previous_;
};

/// The calling thread's current scope (nullptr = none) — what an attempt
/// thread needs to carry its caller's scope.
std::shared_ptr<Scope> current_scope();

} // namespace ropuf::obs

// Instrumentation macros: the literal-name, per-site-cached form of the
// registry API. Expansion is exactly the zero-overhead shape: one registry()
// load and branch; only when a registry is installed do the TLS id cache and
// the shard update run.
#define ROPUF_OBS_COUNT(name_literal, delta)                                       \
    do {                                                                           \
        if (::ropuf::obs::Registry* ropuf_obs_r_ = ::ropuf::obs::registry()) {     \
            thread_local ::ropuf::obs::CachedId ropuf_obs_c_;                      \
            ropuf_obs_r_->add(ropuf_obs_r_->intern(ropuf_obs_c_,                   \
                                                   ::ropuf::obs::MetricKind::counter, \
                                                   name_literal),                  \
                              static_cast<double>(delta));                         \
        }                                                                          \
    } while (0)

#define ROPUF_OBS_OBSERVE(name_literal, value)                                     \
    do {                                                                           \
        if (::ropuf::obs::Registry* ropuf_obs_r_ = ::ropuf::obs::registry()) {     \
            thread_local ::ropuf::obs::CachedId ropuf_obs_c_;                      \
            ropuf_obs_r_->observe(ropuf_obs_r_->intern(                            \
                                      ropuf_obs_c_,                               \
                                      ::ropuf::obs::MetricKind::histogram,        \
                                      name_literal),                              \
                                  static_cast<double>(value));                     \
        }                                                                          \
    } while (0)

#define ROPUF_OBS_SET(name_literal, value)                                         \
    do {                                                                           \
        if (::ropuf::obs::Registry* ropuf_obs_r_ = ::ropuf::obs::registry()) {     \
            thread_local ::ropuf::obs::CachedId ropuf_obs_c_;                      \
            ropuf_obs_r_->set(ropuf_obs_r_->intern(ropuf_obs_c_,                   \
                                                   ::ropuf::obs::MetricKind::gauge, \
                                                   name_literal),                  \
                              static_cast<double>(value));                         \
        }                                                                          \
    } while (0)

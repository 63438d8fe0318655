#include "ropuf/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "ropuf/obs/json_writer.hpp"

namespace ropuf::obs {

namespace detail {
std::atomic<Registry*> g_registry{nullptr};
} // namespace detail

void install(Registry* r) noexcept {
    detail::g_registry.store(r, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Histogram buckets: idx = 4 * (exponent + 20) + sub, where frexp writes
// v = m * 2^exponent with m in [0.5, 1) and sub splits the octave in four.
// ---------------------------------------------------------------------------

int hist_bucket_index(double v) noexcept {
    if (!(v > 0.0)) return 0; // <= 0, NaN: lowest bucket
    int exp = 0;
    const double m = std::frexp(v, &exp); // m in [0.5, 1)
    const int sub = std::min(3, static_cast<int>((m - 0.5) * 8.0));
    const int idx = 4 * (exp + 20) + sub;
    return std::clamp(idx, 0, kHistBuckets - 1);
}

double hist_bucket_value(int index) noexcept {
    index = std::clamp(index, 0, kHistBuckets - 1);
    const int exp = index / 4 - 20;
    const int sub = index % 4;
    // Bucket spans m in [0.5 + sub/8, 0.5 + (sub+1)/8); use its midpoint.
    const double m = 0.5 + (static_cast<double>(sub) + 0.5) / 8.0;
    return std::ldexp(m, exp);
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

double Snapshot::Hist::quantile(double q) const {
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (int i = 0; i < kHistBuckets; ++i) {
        seen += buckets[static_cast<std::size_t>(i)];
        if (seen >= target) return std::clamp(hist_bucket_value(i), min, max);
    }
    return max;
}

HistSummary Snapshot::Hist::summary() const {
    return {count, mean(), quantile(0.50), quantile(0.95), quantile(0.99), max};
}

void write_hist_summary(JsonWriter& w, const HistSummary& h) {
    w.begin_object().key("count").integer(h.count).key("mean").number(h.mean);
    w.key("p50").number(h.p50).key("p95").number(h.p95).key("p99").number(h.p99);
    w.key("max").number(h.max).end_object();
}

namespace {

const Snapshot::Scalar* find_scalar(const std::vector<Snapshot::Scalar>& v,
                                    std::string_view name) {
    for (const auto& s : v)
        if (s.name == name) return &s;
    return nullptr;
}

} // namespace

const Snapshot::Scalar* Snapshot::find_counter(std::string_view name) const {
    return find_scalar(counters, name);
}

const Snapshot::Scalar* Snapshot::find_gauge(std::string_view name) const {
    return find_scalar(gauges, name);
}

const Snapshot::Hist* Snapshot::find_hist(std::string_view name) const {
    for (const auto& h : hists)
        if (h.name == name) return &h;
    return nullptr;
}

double Snapshot::counter_or(std::string_view name, double fallback) const {
    const Scalar* s = find_counter(name);
    return s != nullptr ? s->value : fallback;
}

double Snapshot::gauge_or(std::string_view name, double fallback) const {
    const Scalar* s = find_gauge(name);
    return s != nullptr ? s->value : fallback;
}

std::string Snapshot::to_json() const {
    JsonWriter w;
    w.begin_object().key("counters").begin_object();
    for (const auto& c : counters) w.key(c.name).number(c.value);
    w.end_object().key("gauges").begin_object();
    for (const auto& g : gauges) w.key(g.name).number(g.value);
    w.end_object().key("hist").begin_object();
    for (const auto& h : hists) write_hist_summary(w.key(h.name), h.summary());
    w.end_object().end_object();
    return w.release();
}

Snapshot diff(const Snapshot& later, const Snapshot& earlier) {
    Snapshot out;
    out.gauges = later.gauges;
    out.counters.reserve(later.counters.size());
    for (const auto& c : later.counters) {
        const Snapshot::Scalar* base = earlier.find_counter(c.name);
        out.counters.push_back({c.name, c.value - (base != nullptr ? base->value : 0.0)});
    }
    out.hists.reserve(later.hists.size());
    for (const auto& h : later.hists) {
        const Snapshot::Hist* base = earlier.find_hist(h.name);
        Snapshot::Hist d;
        d.name = h.name;
        if (base == nullptr) {
            d = h;
        } else {
            d.count = h.count - base->count;
            d.sum = h.sum - base->sum;
            for (int i = 0; i < kHistBuckets; ++i) {
                const auto idx = static_cast<std::size_t>(i);
                d.buckets[idx] = h.buckets[idx] - base->buckets[idx];
            }
            // Exact min/max are cumulative since install; re-derive the
            // delta's bounds (approximately) from its nonzero buckets.
            int lo = -1;
            int hi = -1;
            for (int i = 0; i < kHistBuckets; ++i) {
                if (d.buckets[static_cast<std::size_t>(i)] == 0) continue;
                if (lo < 0) lo = i;
                hi = i;
            }
            d.min = lo >= 0 ? hist_bucket_value(lo) : 0.0;
            d.max = hi >= 0 ? hist_bucket_value(hi) : 0.0;
        }
        out.hists.push_back(std::move(d));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Registry shards
// ---------------------------------------------------------------------------

struct Registry::Shard {
    std::array<std::atomic<double>, kMaxCounters> counters{};
    struct HistSlot {
        std::atomic<std::uint64_t> count{0};
        std::atomic<double> sum{0.0};
        std::atomic<double> min{0.0};
        std::atomic<double> max{0.0};
        std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    };
    std::array<HistSlot, kMaxHistograms> hists{};
    bool in_use = false; // guarded by the owning registry's mutex
};

namespace {

// Registries alive right now, keyed by their unique epoch. Thread-exit
// shard recycling looks its registry up here, so a shard is never returned
// to a registry that has already been destroyed.
std::mutex& live_mutex() {
    static std::mutex m;
    return m;
}

std::map<std::uint64_t, Registry*>& live_registries() {
    static std::map<std::uint64_t, Registry*> live;
    return live;
}

std::uint64_t next_epoch() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

// Thread-local binding of this thread to its shard in one registry. A
// thread that outlives a registry simply re-binds on next use (epoch
// mismatch); a thread that exits while the registry lives returns its
// shard for reuse so shard count tracks peak concurrency, not total
// threads ever started.
struct TlsShardSlot {
    std::uint64_t epoch = 0;
    Registry::Shard* shard = nullptr;

    ~TlsShardSlot() {
        if (shard == nullptr) return;
        std::lock_guard<std::mutex> lock(live_mutex());
        auto it = live_registries().find(epoch);
        if (it != live_registries().end()) it->second->release_shard(shard);
    }
};

namespace {
thread_local TlsShardSlot t_shard;
} // namespace

Registry::Registry() : epoch_(next_epoch()) {
    std::lock_guard<std::mutex> lock(live_mutex());
    live_registries().emplace(epoch_, this);
}

Registry::~Registry() {
    std::lock_guard<std::mutex> lock(live_mutex());
    live_registries().erase(epoch_);
}

Registry::Shard& Registry::local_shard() {
    if (t_shard.epoch == epoch_ && t_shard.shard != nullptr) return *t_shard.shard;
    Shard& shard = acquire_shard();
    t_shard.epoch = epoch_;
    t_shard.shard = &shard;
    return shard;
}

Registry::Shard& Registry::acquire_shard() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& s : shards_) {
        if (!s->in_use) {
            s->in_use = true;
            return *s;
        }
    }
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->in_use = true;
    return *shards_.back();
}

void Registry::release_shard(Shard* shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Values stay in place — snapshots sum over every shard ever created,
    // so a recycled shard keeps contributing its history.
    shard->in_use = false;
}

std::size_t Registry::shard_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kKindShift = 28;
constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;

MetricId make_id(MetricKind kind, std::size_t index) {
    return (static_cast<std::uint32_t>(kind) << kKindShift) |
           (static_cast<std::uint32_t>(index) & kIndexMask);
}

MetricKind id_kind(MetricId id) {
    return static_cast<MetricKind>(id >> kKindShift);
}

std::size_t id_index(MetricId id) { return id & kIndexMask; }

} // namespace

MetricId Registry::counter(std::string_view name) {
    CachedId scratch;
    return intern_slow(scratch, MetricKind::counter, name);
}

MetricId Registry::gauge(std::string_view name) {
    CachedId scratch;
    return intern_slow(scratch, MetricKind::gauge, name);
}

MetricId Registry::histogram(std::string_view name) {
    CachedId scratch;
    return intern_slow(scratch, MetricKind::histogram, name);
}

MetricId Registry::intern_slow(CachedId& cache, MetricKind kind,
                               std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricId id = kInvalidMetric;
    auto it = ids_.find(name);
    if (it != ids_.end()) {
        // Same name under a different kind is a registration bug — hand out
        // the dead id rather than corrupt the other kind's slot.
        id = id_kind(it->second) == kind ? it->second : kInvalidMetric;
        if (id == kInvalidMetric) dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
        std::vector<std::string>* names = nullptr;
        std::size_t cap = 0;
        switch (kind) {
        case MetricKind::counter: names = &counter_names_; cap = kMaxCounters; break;
        case MetricKind::gauge: names = &gauge_names_; cap = kMaxGauges; break;
        case MetricKind::histogram: names = &hist_names_; cap = kMaxHistograms; break;
        }
        if (names->size() < cap) {
            id = make_id(kind, names->size());
            names->emplace_back(name);
            ids_.emplace(std::string(name), id);
        } else {
            dropped_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    cache.epoch = epoch_;
    cache.id = id;
    return id;
}

// ---------------------------------------------------------------------------
// Hot-path updates: owner-thread-only relaxed load/store on sharded slots.
//
// Why relaxed is sound here (the TSan leg checks this argument, not just
// the comment):
//  * Every counter/histogram slot has exactly ONE writer — the shard's
//    owner thread (local_shard() hands a thread its own shard; the
//    recycling destructor only re-issues a shard after the previous owner
//    exited, with the handoff ordered by live_mutex()). A load/store pair
//    on a single-writer atomic is not a RMW race: no other thread's write
//    can interleave between the load and the store.
//  * The concurrent reader (snapshot(), below) only ever *loads*. Relaxed
//    atomicity guarantees it sees some complete previously-stored value —
//    possibly stale, never torn. Staleness is acceptable by contract:
//    a snapshot is a point-in-time-ish view, and the final accounting
//    snapshot runs after the instrumented threads are joined, where the
//    join (or the mutex_ acquisition) provides the happens-before edge
//    that makes the last stores visible.
//  * Gauges are last-write-wins by definition, so cross-thread set() needs
//    no ordering either.
// Anything stronger (seq_cst, or fetch_add) would put a lock-prefixed RMW
// in the measurement hot loop for no additional guarantee anyone reads.
// ---------------------------------------------------------------------------

void Registry::add(MetricId id, double delta) {
    if (id == kInvalidMetric || id_kind(id) != MetricKind::counter) return;
    std::atomic<double>& slot = local_shard().counters[id_index(id)];
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

void Registry::set(MetricId id, double value) {
    if (id == kInvalidMetric || id_kind(id) != MetricKind::gauge) return;
    gauge_slots_[id_index(id)].store(value, std::memory_order_relaxed);
}

void Registry::observe(MetricId id, double value) {
    if (id == kInvalidMetric || id_kind(id) != MetricKind::histogram) return;
    Shard::HistSlot& h = local_shard().hists[id_index(id)];
    const std::uint64_t n = h.count.load(std::memory_order_relaxed);
    if (n == 0 || value < h.min.load(std::memory_order_relaxed))
        h.min.store(value, std::memory_order_relaxed);
    if (n == 0 || value > h.max.load(std::memory_order_relaxed))
        h.max.store(value, std::memory_order_relaxed);
    h.count.store(n + 1, std::memory_order_relaxed);
    h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
                std::memory_order_relaxed);
    std::atomic<std::uint64_t>& bucket =
        h.buckets[static_cast<std::size_t>(hist_bucket_index(value))];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot merge
// ---------------------------------------------------------------------------

Snapshot Registry::snapshot() const {
    Snapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.counters.resize(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i)
        out.counters[i].name = counter_names_[i];
    out.gauges.resize(gauge_names_.size());
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
        out.gauges[i].name = gauge_names_[i];
        out.gauges[i].value = gauge_slots_[i].load(std::memory_order_relaxed);
    }
    out.hists.resize(hist_names_.size());
    for (std::size_t i = 0; i < hist_names_.size(); ++i)
        out.hists[i].name = hist_names_[i];

    for (const auto& shard : shards_) {
        for (std::size_t i = 0; i < out.counters.size(); ++i)
            out.counters[i].value +=
                shard->counters[i].load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < out.hists.size(); ++i) {
            const Shard::HistSlot& slot = shard->hists[i];
            const std::uint64_t n = slot.count.load(std::memory_order_relaxed);
            if (n == 0) continue;
            Snapshot::Hist& h = out.hists[i];
            const double lo = slot.min.load(std::memory_order_relaxed);
            const double hi = slot.max.load(std::memory_order_relaxed);
            if (h.count == 0 || lo < h.min) h.min = lo;
            if (h.count == 0 || hi > h.max) h.max = hi;
            h.count += n;
            h.sum += slot.sum.load(std::memory_order_relaxed);
            for (int b = 0; b < kHistBuckets; ++b) {
                const auto idx = static_cast<std::size_t>(b);
                h.buckets[idx] +=
                    slot.buckets[idx].load(std::memory_order_relaxed);
            }
        }
    }
    return out;
}

} // namespace ropuf::obs

// ropuf::obs — the telemetry subsystem's contracts: sharded metric merge
// correctness across threads, per-site id caching across registry
// reinstalls, safe degradation at capacity ceilings, bucketed histogram
// quantile bounds, per-job scopes, the Chrome-trace sink's structural
// invariants (balanced spans, monotonic per-track timestamps, event cap),
// the progress renderer, and — the hard one — the zero-overhead / bitwise
// determinism contract: an executor run with the full obs stack installed
// produces deterministic prefixes byte-identical to an obs-off run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/json_writer.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/progress.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/rng/xoshiro.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

std::string temp_path(const char* stem, const char* ext = ".jsonl") {
    return testing::TempDir() + stem + std::to_string(::getpid()) + ext;
}

// Every test leaves the process with obs uninstalled, so test order can
// never leak a registry into an unrelated case.
class ObsTest : public testing::Test {
protected:
    void TearDown() override {
        obs::install_trace(nullptr);
        obs::install(nullptr);
    }
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CountersMergeAcrossThreads) {
    obs::Registry reg;
    obs::install(&reg);
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10000;
    std::vector<std::thread> pool;
    for (int i = 0; i < kThreads; ++i) {
        pool.emplace_back([] {
            for (int n = 0; n < kIncrements; ++n) ROPUF_OBS_COUNT("test.hits", 1);
        });
    }
    for (auto& t : pool) t.join();
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.counter_or("test.hits", -1.0),
                     static_cast<double>(kThreads) * kIncrements);
    // Shards recycle through the freelist on thread exit; since the threads
    // above overlap arbitrarily, the registry needs at most kThreads shards.
    EXPECT_LE(reg.shard_count(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(reg.dropped_registrations(), 0u);
}

TEST_F(ObsTest, MacrosAreNoOpsWithoutARegistry) {
    // No install(): the macros must silently do nothing (this is the
    // zero-overhead branch) — and Span must tolerate a missing sink.
    ROPUF_OBS_COUNT("off.count", 1);
    ROPUF_OBS_SET("off.gauge", 5);
    ROPUF_OBS_OBSERVE("off.hist", 1.5);
    { const obs::Span span("off.span"); }
    obs::Registry reg;
    obs::install(&reg);
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.hists.empty());
}

TEST_F(ObsTest, CachedIdsSurviveRegistryReinstall) {
    // The macro caches (epoch, id) per call site; a second registry has a
    // different epoch, so the same site must re-intern instead of writing
    // into the old registry's slot.
    auto bump = [] { ROPUF_OBS_COUNT("reinstall.hits", 1); };
    obs::Registry first;
    obs::install(&first);
    bump();
    bump();
    obs::install(nullptr);
    obs::Registry second;
    obs::install(&second);
    bump();
    EXPECT_DOUBLE_EQ(first.snapshot().counter_or("reinstall.hits", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(second.snapshot().counter_or("reinstall.hits", -1.0), 1.0);
}

TEST_F(ObsTest, KindMismatchAndCapacityDegradeToInvalid) {
    obs::Registry reg;
    const obs::MetricId c = reg.counter("name.shared");
    EXPECT_NE(c, obs::kInvalidMetric);
    // Same name under a different kind: refused, not aliased.
    EXPECT_EQ(reg.gauge("name.shared"), obs::kInvalidMetric);
    EXPECT_EQ(reg.histogram("name.shared"), obs::kInvalidMetric);
    // Registering past the gauge ceiling: dead handles, counted, harmless.
    for (std::size_t i = 0; i < obs::Registry::kMaxGauges; ++i) {
        EXPECT_NE(reg.gauge("g." + std::to_string(i)), obs::kInvalidMetric);
    }
    const obs::MetricId overflow = reg.gauge("g.overflow");
    EXPECT_EQ(overflow, obs::kInvalidMetric);
    EXPECT_GE(reg.dropped_registrations(), 1u);
    // Updates through dead handles must be safe no-ops.
    reg.set(overflow, 42.0);
    reg.add(obs::kInvalidMetric, 1.0);
    reg.observe(obs::kInvalidMetric, 1.0);
    // A re-lookup of an existing name returns the same id (no duplicate).
    EXPECT_EQ(reg.counter("name.shared"), c);
}

TEST_F(ObsTest, HistogramQuantilesAreBucketAccurate) {
    obs::Registry reg;
    const obs::MetricId h = reg.histogram("h.ms");
    std::vector<double> values;
    for (int i = 1; i <= 1000; ++i) values.push_back(static_cast<double>(i) * 0.1);
    for (double v : values) reg.observe(h, v);
    const obs::Snapshot snap = reg.snapshot();
    const obs::Snapshot::Hist* hist = snap.find_hist("h.ms");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, values.size());
    EXPECT_DOUBLE_EQ(hist->min, 0.1);
    EXPECT_DOUBLE_EQ(hist->max, 100.0);
    EXPECT_NEAR(hist->mean(), 50.05, 1e-9);
    // Buckets quantize at 4 per octave — ~12.5% width — so a quantile may
    // land one bucket off its exact order statistic: allow 2x/0.5x slack.
    const double p50 = hist->quantile(0.50);
    EXPECT_GE(p50, 50.05 * 0.5);
    EXPECT_LE(p50, 50.05 * 2.0);
    const double p99 = hist->quantile(0.99);
    EXPECT_GE(p99, 99.0 * 0.5);
    EXPECT_LE(p99, 100.0); // clamped into [min, max]
    EXPECT_GE(hist->quantile(1.0), hist->quantile(0.0));
}

TEST_F(ObsTest, HistogramBucketIndexCoversTheRange) {
    // Degenerate inputs land in bucket 0; the mapping is monotone.
    EXPECT_EQ(obs::hist_bucket_index(0.0), 0);
    EXPECT_EQ(obs::hist_bucket_index(-3.0), 0);
    int last = -1;
    for (double v = 1e-7; v < 1e8; v *= 1.9) {
        const int idx = obs::hist_bucket_index(v);
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, obs::kHistBuckets);
        EXPECT_GE(idx, last);
        last = idx;
    }
}

TEST_F(ObsTest, ScopeCollectsOnlyTheUpdatesMadeWhileInstalled) {
    obs::Registry reg;
    const obs::MetricId c = reg.counter("s.count");
    const obs::MetricId h = reg.histogram("s.hist");
    const obs::MetricId g = reg.gauge("s.gauge");
    auto a = std::make_shared<obs::Scope>(reg);
    auto b = std::make_shared<obs::Scope>(reg);
    reg.add(c, 1.0); // no scope installed: registry only

    // Two threads share scope `a` (a job's trials on two workers), one
    // thread runs in scope `b`.
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        const obs::ScopeGuard in_a(a);
        reg.add(c, 2.0);
        reg.observe(h, 4.0);
        reg.set(g, 7.0);
    });
    threads.emplace_back([&] {
        const obs::ScopeGuard in_a(a);
        reg.add(c, 3.0);
    });
    threads.emplace_back([&] {
        const obs::ScopeGuard in_b(b);
        reg.add(c, 5.0);
        reg.observe(h, 8.0);
        reg.observe(h, 16.0);
    });
    for (std::thread& t : threads) t.join();

    const obs::Snapshot in_a = a->snapshot();
    EXPECT_DOUBLE_EQ(in_a.counter_or("s.count", -1.0), 5.0);
    EXPECT_EQ(in_a.find_gauge("s.gauge"), nullptr); // gauges stay registry-only
    const obs::Snapshot::Hist* ha = in_a.find_hist("s.hist");
    ASSERT_NE(ha, nullptr);
    EXPECT_EQ(ha->count, 1u);
    EXPECT_DOUBLE_EQ(ha->min, 4.0);
    EXPECT_DOUBLE_EQ(ha->max, 4.0);

    const obs::Snapshot in_b = b->snapshot();
    EXPECT_DOUBLE_EQ(in_b.counter_or("s.count", -1.0), 5.0);
    const obs::Snapshot::Hist* hb = in_b.find_hist("s.hist");
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(hb->count, 2u);
    EXPECT_DOUBLE_EQ(hb->sum, 24.0);
    EXPECT_DOUBLE_EQ(hb->min, 8.0); // exact, not bucket-derived
    EXPECT_DOUBLE_EQ(hb->max, 16.0);

    // The registry still sees every update.
    EXPECT_DOUBLE_EQ(reg.snapshot().counter_or("s.count", -1.0), 11.0);
}

TEST_F(ObsTest, ScopeGuardsNestAndIgnoreAForeignRegistry) {
    obs::Registry reg;
    obs::Registry other;
    const obs::MetricId c = reg.counter("n.count");
    auto outer = std::make_shared<obs::Scope>(reg);
    auto inner = std::make_shared<obs::Scope>(reg);
    auto foreign = std::make_shared<obs::Scope>(other);
    EXPECT_EQ(obs::current_scope(), nullptr);
    {
        const obs::ScopeGuard g1(outer);
        EXPECT_EQ(obs::current_scope(), outer);
        {
            const obs::ScopeGuard g2(inner);
            reg.add(c, 2.0);
        }
        reg.add(c, 3.0);
        {
            const obs::ScopeGuard g3(foreign); // another registry's scope
            reg.add(c, 100.0);
        }
    }
    EXPECT_EQ(obs::current_scope(), nullptr);
    reg.add(c, 1000.0);
    EXPECT_DOUBLE_EQ(inner->snapshot().counter_or("n.count", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(outer->snapshot().counter_or("n.count", -1.0), 3.0);
    EXPECT_DOUBLE_EQ(reg.snapshot().counter_or("n.count", -1.0), 1105.0);
}

TEST_F(ObsTest, SnapshotToJsonIsParseable) {
    obs::Registry reg;
    reg.add(reg.counter("j.count"), 3.0);
    reg.set(reg.gauge("j.gauge"), 2.5);
    reg.observe(reg.histogram("j.hist"), 10.0);
    // A name needing escaping must not corrupt the document.
    reg.add(reg.counter("j.quote\"brace{"), 1.0);
    const xp::JsonValue doc = xp::parse_json(reg.snapshot().to_json());
    ASSERT_TRUE(doc.is_object());
    const xp::JsonValue* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(counters->number_or("j.count", -1.0), 3.0);
    EXPECT_DOUBLE_EQ(counters->number_or("j.quote\"brace{", -1.0), 1.0);
    const xp::JsonValue* gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->number_or("j.gauge", -1.0), 2.5);
    const xp::JsonValue* hists = doc.find("hist");
    ASSERT_NE(hists, nullptr);
    const xp::JsonValue* h = hists->find("j.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->u64_or("count", 0), 1u);
}

// Full-byte pin of the debug dump: counters, gauges and histogram
// summaries in registration order, numbers in the round-trip form.
TEST_F(ObsTest, SnapshotToJsonIsPinnedToExactBytes) {
    obs::Registry reg;
    reg.add(reg.counter("a.count"), 3.0);
    reg.add(reg.counter("a.frac"), 0.1);
    reg.set(reg.gauge("a.gauge"), 2.5);
    const obs::MetricId h = reg.histogram("a.hist_ms");
    for (double v : {1.0, 2.0, 3.0, 40.0}) reg.observe(h, v);
    reg.histogram("a.empty");
    EXPECT_EQ(reg.snapshot().to_json(),
              "{\"counters\":{\"a.count\":3,\"a.frac\":0.10000000000000001},"
              "\"gauges\":{\"a.gauge\":2.5},\"hist\":{\"a.hist_ms\":{\"count\":4,"
              "\"mean\":11.5,\"p50\":2.25,\"p95\":40,\"p99\":40,\"max\":40},"
              "\"a.empty\":{\"count\":0,\"mean\":0,\"p50\":0,\"p95\":0,\"p99\":0,"
              "\"max\":0}}}");
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(JsonWriter, PlacesCommasAcrossNestedAndEmptyContainers) {
    obs::JsonWriter w;
    w.begin_object().key("a").begin_array().end_array().key("b").begin_object().end_object();
    w.key("c").begin_array().integer(1).begin_array().end_array();
    w.begin_object().key("d").str("e").end_object().integer(2).end_array();
    w.key("f").boolean(true).key("g").boolean(false).end_object();
    EXPECT_EQ(w.release(), R"({"a":[],"b":{},"c":[1,[],{"d":"e"},2],"f":true,"g":false})");

    obs::JsonWriter empty;
    empty.begin_object().end_object();
    EXPECT_EQ(empty.release(), "{}");

    // Keys outside any object give a bare member list.
    obs::JsonWriter members;
    members.key("x").integer(1).key("y").str("z");
    EXPECT_EQ(members.release(), R"("x":1,"y":"z")");
}

TEST(JsonWriter, WritesIntegerExtremesExactly) {
    obs::JsonWriter w;
    w.begin_array().integer(std::numeric_limits<std::uint64_t>::max());
    w.integer(std::numeric_limits<std::int64_t>::min()).integer(0).integer(-1).end_array();
    EXPECT_EQ(w.release(), "[18446744073709551615,-9223372036854775808,0,-1]");
}

std::string printf_double(const char* format, int precision, double v) {
    std::vector<char> buf(512);
    std::snprintf(buf.data(), buf.size(), format, precision, v);
    return buf.data();
}

TEST(JsonWriter, NumberIsThePrintfRoundTripForm) {
    std::vector<double> values = {0.0,    -0.0,   0.1,     1.0 / 3.0, 100.5, -20.0,
                                  1e7,    1e23,   5e-324,  2.2250738585072014e-308,
                                  1.7976931348623157e308, 9007199254740993.0};
    rng::Xoshiro256pp gen(2024);
    while (values.size() < 20000) {
        const std::uint64_t bits = gen.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v)) values.push_back(v);
    }
    for (const double v : values) {
        obs::JsonWriter w;
        w.number(v);
        const std::string text = w.release();
        ASSERT_EQ(text, printf_double("%.*g", 17, v));
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
}

TEST(JsonWriter, FixedIsThePrintfFixedDecimalForm) {
    for (const double v : {0.0, -0.0, 0.5, 0.0005, 2.5, 3.5, 0.9921875, 12.3456, 13486200.4,
                           -1e300, 1.7976931348623157e308}) {
        for (const int decimals : {0, 3, 4, 6}) {
            obs::JsonWriter w;
            w.fixed(v, decimals);
            EXPECT_EQ(w.release(), printf_double("%.*f", decimals, v)) << v << " " << decimals;
        }
    }
}

TEST(JsonWriter, RawSplicesEncodedJsonAsOneValue) {
    obs::JsonWriter w;
    w.begin_object().key("args").raw(R"({"shard":3})").key("list").begin_array();
    w.raw("1").raw("[2]").end_array().end_object();
    EXPECT_EQ(w.release(), R"({"args":{"shard":3},"list":[1,[2]]})");
}

TEST(JsonWriter, JsonEscapeHelperHandlesEdgeCases) {
    std::string out;
    obs::append_trace_escaped(out, "plain");
    EXPECT_EQ(out, "plain");
    out.clear();
    obs::append_trace_escaped(out, "\\\"\n\r\t\b\f\x1f");
    EXPECT_EQ(out, "\\\\\\\"\\n\\r\\t\\b\\f\\u001f");
}

// One escaper: a metric name holding \b or \f is spelled alike in the
// metrics dump and in a job record's "obs" side-key.
TEST_F(ObsTest, ControlCharacterNamesAreSpelledAlikeInDumpAndRecord) {
    const std::string name = "odd\bname\f";
    obs::Registry reg;
    reg.add(reg.counter(name), 1.0);
    const std::string dump = reg.snapshot().to_json();
    xp::JobRecord record;
    record.obs.present = true;
    record.obs.counters[name] = 1.0;
    const std::string line = xp::to_jsonl(record);
    const std::string spelled = "\"odd\\bname\\f\":1";
    EXPECT_NE(dump.find(spelled), std::string::npos) << dump;
    EXPECT_NE(line.find(spelled), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------------

// Loads a written trace file and returns its traceEvents array.
xp::JsonValue load_trace(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return xp::parse_json(buf.str());
}

TEST_F(ObsTest, TraceFileIsBalancedAndMonotonic) {
    const std::string path = temp_path("trace", ".json");
    {
        obs::TraceSink sink(path);
        obs::install_trace(&sink);
        sink.set_thread_name("main");
        {
            const obs::Span outer("job", "{\"job\":\"j1\"}");
            { const obs::Span inner("attempt"); }
            sink.instant("fi:injected_fault", "{\"what\":\"test\"}");
        }
        std::thread other([&] {
            obs::TraceSink* s = obs::trace();
            ASSERT_NE(s, nullptr);
            s->set_thread_name("worker");
            s->begin("trial");
            s->end();
        });
        other.join();
        obs::install_trace(nullptr);
        EXPECT_TRUE(sink.close());
        EXPECT_TRUE(sink.close()); // idempotent
    }
    const xp::JsonValue doc = load_trace(path);
    ASSERT_TRUE(doc.is_object());
    const xp::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());

    std::map<std::uint64_t, std::vector<std::string>> stacks; // tid -> open B names
    std::map<std::uint64_t, double> last_ts;
    int spans = 0, instants = 0, metas = 0;
    for (const auto& ev : events->as_array()) {
        const std::string ph = ev.string_or("ph", "?");
        const std::uint64_t tid = ev.u64_or("tid", 9999);
        if (ph == "M") {
            ++metas;
            continue;
        }
        const double ts = ev.number_or("ts", -1.0);
        ASSERT_GE(ts, 0.0);
        auto it = last_ts.find(tid);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second);
        }
        last_ts[tid] = ts;
        if (ph == "B") {
            ++spans;
            stacks[tid].push_back(ev.string_or("name", ""));
        } else if (ph == "E") {
            ASSERT_FALSE(stacks[tid].empty()) << "dangling E";
            stacks[tid].pop_back();
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(ev.string_or("s", ""), "t");
        }
    }
    for (const auto& [tid, stack] : stacks) EXPECT_TRUE(stack.empty()) << "unclosed B";
    EXPECT_EQ(spans, 3);    // job, attempt, trial
    EXPECT_EQ(instants, 1);
    EXPECT_GE(metas, 2);    // both named tracks
    EXPECT_EQ(last_ts.size(), 2u); // two tracks: main + worker
    std::remove(path.c_str());
}

TEST_F(ObsTest, TraceEventCapDropsWithoutDanglingEnds) {
    const std::string path = temp_path("capped", ".json");
    {
        obs::TraceSink sink(path, /*max_events=*/4);
        obs::install_trace(&sink);
        for (int i = 0; i < 10; ++i) {
            const obs::Span span("busy");
        }
        obs::install_trace(nullptr);
        EXPECT_GT(sink.dropped(), 0u);
        EXPECT_TRUE(sink.close());
    }
    const xp::JsonValue doc = load_trace(path);
    const xp::JsonValue* other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_GT(other->u64_or("dropped_events", 0), 0u);
    int opens = 0;
    for (const auto& ev : doc.find("traceEvents")->as_array()) {
        const std::string ph = ev.string_or("ph", "?");
        if (ph == "B") ++opens;
        if (ph == "E") {
            ASSERT_GT(opens, 0) << "dangling E after cap";
            --opens;
        }
    }
    EXPECT_EQ(opens, 0);
    std::remove(path.c_str());
}

TEST_F(ObsTest, TraceCloseAutoClosesOpenSpans) {
    const std::string path = temp_path("autoclose", ".json");
    {
        obs::TraceSink sink(path);
        obs::install_trace(&sink);
        sink.begin("left.open");
        sink.begin("nested.open");
        obs::install_trace(nullptr);
        EXPECT_TRUE(sink.close());
    }
    const xp::JsonValue doc = load_trace(path);
    int b = 0, e = 0;
    for (const auto& ev : doc.find("traceEvents")->as_array()) {
        const std::string ph = ev.string_or("ph", "?");
        if (ph == "B") ++b;
        if (ph == "E") ++e;
    }
    EXPECT_EQ(b, 2);
    EXPECT_EQ(e, 2);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Progress reporter
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ProgressRenderShowsJobsThroughputAndCounts) {
    obs::Registry reg;
    reg.set(reg.gauge("xp.jobs_total"), 56.0);
    reg.add(reg.counter("xp.jobs_done"), 37.0);
    reg.add(reg.counter("xp.retries"), 3.0);
    reg.add(reg.counter("xp.jobs_quarantined"), 1.0);
    reg.add(reg.counter("campaign.trials"), 1234.0);
    const obs::ProgressReporter reporter(reg);
    const std::string line = reporter.render(reg.snapshot());
    EXPECT_NE(line.find("38/56"), std::string::npos) << line; // done + quarantined
    EXPECT_NE(line.find("retries 3"), std::string::npos) << line;
    EXPECT_NE(line.find("quarantined 1"), std::string::npos) << line;
}

TEST_F(ObsTest, ProgressHeartbeatWritesToItsStream) {
    obs::Registry reg;
    obs::install(&reg);
    reg.set(reg.gauge("xp.jobs_total"), 4.0);
    const std::string path = temp_path("progress", ".txt");
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    {
        obs::ProgressReporter::Config config;
        config.out = out;
        config.interval_s = 0.01;
        config.ansi = false;
        obs::ProgressReporter reporter(reg, config);
        reporter.start();
        reg.add(reg.counter("xp.jobs_done"), 2.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        reporter.stop();
        reporter.stop(); // idempotent
    }
    std::fclose(out);
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("jobs"), std::string::npos) << buf.str();
    std::remove(path.c_str());
}

TEST_F(ObsTest, ProgressResumeEtaMatchesFreshRunRate) {
    // Regression: a resumed run credits its skip set into xp.jobs_done in
    // one pre-loop burst (uniform accounting). The EMA rate basis must
    // subtract xp.jobs_skipped, or the first moving tick of a resumed run
    // reads the burst as throughput and the ETA collapses toward zero.
    //
    // Fresh run: 0 of 100 done, then 5 jobs land in one 1 s tick.
    obs::Registry fresh;
    fresh.set(fresh.gauge("xp.jobs_total"), 100.0);
    obs::ProgressReporter fresh_reporter(fresh);
    fresh_reporter.observe(fresh.snapshot(), 0.0); // baseline tick
    fresh.add(fresh.counter("xp.jobs_done"), 5.0);
    fresh_reporter.observe(fresh.snapshot(), 1.0);
    const std::string fresh_line = fresh_reporter.render(fresh.snapshot());

    // Resumed run on the same host: 60 jobs already complete (credited to
    // both counters at dispatch), then the same 5 executed jobs in 1 s.
    obs::Registry resumed;
    resumed.set(resumed.gauge("xp.jobs_total"), 100.0);
    resumed.add(resumed.counter("xp.jobs_done"), 60.0);
    resumed.add(resumed.counter("xp.jobs_skipped"), 60.0);
    obs::ProgressReporter resumed_reporter(resumed);
    resumed_reporter.observe(resumed.snapshot(), 0.0); // baseline tick
    resumed.add(resumed.counter("xp.jobs_done"), 5.0);
    resumed_reporter.observe(resumed.snapshot(), 1.0);
    const std::string resumed_line = resumed_reporter.render(resumed.snapshot());

    // Both runs executed 5 jobs in 1 s: identical rate, and the resumed
    // ETA is remaining / that real rate (35 / 5 = 7 s), not a figure
    // computed from the 60-job credit burst.
    EXPECT_NE(fresh_line.find("5.0 job/s"), std::string::npos) << fresh_line;
    EXPECT_NE(resumed_line.find("5.0 job/s"), std::string::npos) << resumed_line;
    EXPECT_NE(fresh_line.find("eta 0:19"), std::string::npos) << fresh_line;    // 95/5
    EXPECT_NE(resumed_line.find("eta 0:07"), std::string::npos) << resumed_line; // 35/5
    EXPECT_NE(resumed_line.find("jobs 65/100"), std::string::npos) << resumed_line;
}

// ---------------------------------------------------------------------------
// The determinism + overhead contract, end to end
// ---------------------------------------------------------------------------

constexpr const char* kSpecText =
    "name = obs_contract\n"
    "scenarios = seqpair/swap, fuzzy/reference\n"
    "sigma_noise_mhz = 0.02, 0.05\n"
    "trials = 2\n"
    "master_seed = 3\n";

std::vector<std::string> deterministic_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.emplace_back(xp::deterministic_prefix(line));
    }
    return lines;
}

void run_plan_into(const xp::Plan& plan, const std::string& path, int workers = 1) {
    xp::ResultWriter writer(path, /*truncate=*/true);
    xp::RunOptions opts;
    opts.workers = workers;
    (void)xp::execute_plan(plan, attack::default_registry(), {}, writer, opts);
}

// The determinism contract on one worker and on a four-worker pool, where
// several jobs' trials — and so several jobs' obs scopes — are live at once.
class ObsExecutorTest : public ObsTest, public testing::WithParamInterface<int> {
protected:
    void run_plan_into(const xp::Plan& plan, const std::string& path) const {
        ::run_plan_into(plan, path, GetParam());
    }
};

INSTANTIATE_TEST_SUITE_P(, ObsExecutorTest, testing::Values(1, 4),
                         [](const testing::TestParamInfo<int>& info) {
                             std::string name = "w";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST_P(ObsExecutorTest, ObsOnRunIsBitwiseIdenticalToObsOffAndCarriesObsKeys) {
    const xp::SweepSpec spec = xp::parse_spec(kSpecText);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    const std::string off_path = temp_path("obsoff");
    const std::string on_path = temp_path("obson");
    const std::string trace_path = temp_path("obstrace", ".json");

    run_plan_into(plan, off_path); // no registry installed

    {
        obs::Registry reg;
        obs::TraceSink sink(trace_path);
        obs::install(&reg);
        obs::install_trace(&sink);
        run_plan_into(plan, on_path);
        obs::install_trace(nullptr);
        obs::install(nullptr);
        EXPECT_TRUE(sink.close());
        // The instrumented run recorded real work.
        const obs::Snapshot snap = reg.snapshot();
        EXPECT_DOUBLE_EQ(snap.counter_or("xp.jobs_done", -1.0), 4.0);
        EXPECT_DOUBLE_EQ(snap.counter_or("campaign.trials", -1.0), 8.0);
        EXPECT_NE(snap.find_hist("campaign.trial_wall_ms"), nullptr);
        EXPECT_GT(sink.events(), 0u);
    }

    // The hard contract: obs-on deterministic content == obs-off.
    EXPECT_EQ(deterministic_lines(off_path), deterministic_lines(on_path));

    // Obs-off records carry no obs key; obs-on records each carry one, and
    // it parses back with the per-job trial counter.
    std::ifstream off_in(off_path);
    std::string line;
    while (std::getline(off_in, line)) {
        EXPECT_EQ(line.find("\"obs\":"), std::string::npos);
    }
    std::ifstream on_in(on_path);
    int with_obs = 0;
    while (std::getline(on_in, line)) {
        if (line.empty()) continue;
        EXPECT_NE(line.find("\"obs\":"), std::string::npos) << line;
        const xp::JobRecord record = xp::parse_record(line);
        ASSERT_TRUE(record.obs.present);
        EXPECT_DOUBLE_EQ(record.obs.counters.at("campaign.trials"), 2.0);
        ++with_obs;
    }
    EXPECT_EQ(with_obs, 4);

    // The trace the run produced is structurally sound and shows the
    // executor's job/attempt spans plus the workers' trial spans.
    const xp::JsonValue doc = load_trace(trace_path);
    std::map<std::uint64_t, int> depth;
    bool saw_job = false, saw_attempt = false, saw_trial = false;
    for (const auto& ev : doc.find("traceEvents")->as_array()) {
        const std::string ph = ev.string_or("ph", "?");
        const std::uint64_t tid = ev.u64_or("tid", 9999);
        const std::string name = ev.string_or("name", "");
        if (ph == "B") {
            ++depth[tid];
            saw_job |= name == "job";
            saw_attempt |= name == "attempt";
            saw_trial |= name == "trial";
        } else if (ph == "E") {
            ASSERT_GT(depth[tid], 0);
            --depth[tid];
        }
    }
    for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0);
    EXPECT_TRUE(saw_job);
    EXPECT_TRUE(saw_attempt);
    EXPECT_TRUE(saw_trial);

    std::remove(off_path.c_str());
    std::remove(on_path.c_str());
    std::remove(trace_path.c_str());
}

TEST_P(ObsExecutorTest, MixedPlanSideKeysCountOnlyTheirOwnJobsTrials) {
    // Jobs of 1, 4 and 40 trials share the pool; each record's side-key is
    // its own job's scope, so it counts exactly that job's trials however
    // the pool interleaved them. Obs-on content equals obs-off.
    const xp::Plan plan = xp::plan_spec(xp::parse_spec("name = mixed_obs\n"
                                                       "scenarios = seqpair/swap, fuzzy/reference\n"
                                                       "trials = 1, 4, 40\n"
                                                       "master_seed = 5\n"),
                                        attack::default_registry());
    const std::string off_path = temp_path("mixedoff");
    const std::string on_path = temp_path("mixedon");
    run_plan_into(plan, off_path);
    {
        obs::Registry reg;
        obs::install(&reg);
        run_plan_into(plan, on_path);
        obs::install(nullptr);
        EXPECT_DOUBLE_EQ(reg.snapshot().counter_or("campaign.trials", -1.0), 2.0 * 45.0);
    }
    EXPECT_EQ(deterministic_lines(off_path), deterministic_lines(on_path));
    const std::vector<xp::JobRecord> records = xp::read_results(on_path);
    ASSERT_EQ(records.size(), 6u);
    for (const xp::JobRecord& record : records) {
        ASSERT_TRUE(record.obs.present) << record.job_id;
        EXPECT_DOUBLE_EQ(record.obs.counters.at("campaign.trials"), record.trials)
            << record.job_id;
        EXPECT_EQ(record.obs.hists.at("campaign.trial_wall_ms").count,
                  static_cast<std::uint64_t>(record.trials))
            << record.job_id;
    }
    std::remove(off_path.c_str());
    std::remove(on_path.c_str());
}

TEST_P(ObsExecutorTest, RetriedJobSideKeyCountsItsSuccessfulAttemptsTrials) {
    // Every job's attempt 1 throws at its job seam (trial 0), so each record
    // comes from attempt 2, whose trials run on a pool of the job's width.
    // They must count into the job's scope at every worker count. At one
    // worker attempt 1's other trials never start, so the count is exact;
    // on a wider pool some of them may have run before the throw.
    const xp::Plan plan = xp::plan_spec(xp::parse_spec(kSpecText), attack::default_registry());
    const std::string path = temp_path("obsretry");
    fi::Injector injector(fi::parse_fault_plan("job_throw(times=1)"));
    {
        obs::Registry reg;
        obs::install(&reg);
        xp::ResultWriter writer(path, /*truncate=*/true);
        xp::RunOptions opts;
        opts.workers = GetParam();
        opts.retry.backoff_base_ms = 0.0;
        opts.injector = &injector;
        EXPECT_TRUE(
            xp::execute_plan(plan, attack::default_registry(), {}, writer, opts).complete());
        obs::install(nullptr);
    }
    const std::vector<xp::JobRecord> records = xp::read_results(path);
    ASSERT_EQ(records.size(), 4u);
    for (const xp::JobRecord& record : records) {
        EXPECT_EQ(record.attempts, 2) << record.job_id;
        ASSERT_TRUE(record.obs.present) << record.job_id;
        const auto trials = record.obs.counters.find("campaign.trials");
        ASSERT_NE(trials, record.obs.counters.end()) << record.job_id;
        EXPECT_GE(trials->second, record.trials) << record.job_id;
        if (GetParam() == 1) {
            EXPECT_DOUBLE_EQ(trials->second, record.trials) << record.job_id;
        }
    }
    std::remove(path.c_str());
}

TEST_F(ObsTest, InstalledRegistryOverheadIsBounded) {
    // Sanity bound, not the real perf gate (CI's bench compare holds the
    // 3% contract on release binaries): an installed registry must not make
    // the measurement hot path pathologically slower even in debug builds.
    // The generous 2.5x ceiling catches accidental locks/allocations on the
    // update path while staying robust to CI noise.
    const xp::SweepSpec spec = xp::parse_spec(kSpecText);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    const std::string path = temp_path("overhead");

    auto timed_run = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        run_plan_into(plan, path);
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };
    timed_run(); // warm-up: page in code + data once
    const double off_s = timed_run();
    obs::Registry reg;
    obs::install(&reg);
    const double on_s = timed_run();
    obs::install(nullptr);
    EXPECT_LT(on_s, off_s * 2.5 + 0.05)
        << "obs-on " << on_s << "s vs obs-off " << off_s << "s";
    std::remove(path.c_str());
}

} // namespace

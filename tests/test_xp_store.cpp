// Result store + executor: JSONL record round trips, crash-tolerant
// reading, resume idempotence (interrupted + resumed == uninterrupted,
// bitwise, modulo the isolated timing key), and the golden-file determinism
// contract: a fixed spec + fixed seeds must reproduce the committed records
// byte for byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

// The golden grid: small enough to run in milliseconds, wide enough to
// cover two constructions, a noise axis and the negative-result scenario.
// Changing this text, the spec grammar's canonical form, the record schema,
// the campaign seed derivation, or the attacks' determinism will (and
// should) fail the golden test — regenerate tests/data/golden_smoke.jsonl
// with `ropuf run` and inspect the diff before committing it.
constexpr const char* kGoldenSpecText =
    "name = golden\n"
    "scenarios = seqpair/swap, fuzzy/reference\n"
    "sigma_noise_mhz = 0.02, 0.05\n"
    "trials = 2\n"
    "master_seed = 3\n";

std::string temp_path(const char* stem) {
    return testing::TempDir() + stem + std::to_string(::getpid()) + ".jsonl";
}

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

xp::RunStats run_plan_into(int workers, const xp::Plan& plan, const std::string& path,
                           int max_jobs = -1, bool resume = false) {
    const std::set<std::string> skip =
        resume ? xp::completed_job_ids(path, plan.hash) : std::set<std::string>{};
    xp::ResultWriter writer(path, /*truncate=*/!resume);
    xp::RunOptions opts;
    opts.workers = workers;
    opts.max_jobs = max_jobs;
    return xp::execute_plan(plan, attack::default_registry(), skip, writer, opts);
}

// ---------------------------------------------------------------------------
// Record serialization
// ---------------------------------------------------------------------------

xp::JobRecord sample_record() {
    xp::JobRecord r;
    r.spec_name = "sample";
    r.spec_hash = "0123456789abcdef";
    r.job_id = "0123456789abcdef-00007";
    r.index = 7;
    r.scenario = "seqpair/swap";
    r.params.cols = 16;
    r.params.rows = 8;
    r.params.sigma_noise_mhz = 0.125;
    r.params.ambient_c = -20.0;
    r.params.majority_wins = 3;
    r.params.ecc_m = 6;
    r.params.ecc_t = 5;
    r.trials = 10;
    // Full-width 64-bit values: both exceed 2^53, so a double-based reader
    // would corrupt them — the round trip below guards the exact path.
    r.root_seed = 0xfedcba9876543210ULL;
    r.campaign_seed = 0xdeadbeefcafef00dULL;
    r.key_recovered_count = 9;
    r.success_rate = 0.9;
    r.mean_accuracy = 0.9875;
    r.total_measurements = (1LL << 53) + 3;
    r.queries = {100.5, 3.25, 90.0, 110.0, 108.0};
    r.measurements = {1000.5, 32.5, 900.0, 1100.0, 1080.0};
    r.workers = 4;
    r.wall_ms = 12.5;
    r.trial_wall_ms_sum = 48.0;
    r.measurements_per_s = 1e7;
    return r;
}

TEST(JobRecord, JsonlRoundTripPreservesEveryField) {
    const xp::JobRecord r = sample_record();
    const xp::JobRecord back = xp::parse_record(xp::to_jsonl(r));
    EXPECT_EQ(back.spec_name, r.spec_name);
    EXPECT_EQ(back.spec_hash, r.spec_hash);
    EXPECT_EQ(back.job_id, r.job_id);
    EXPECT_EQ(back.index, r.index);
    EXPECT_EQ(back.scenario, r.scenario);
    EXPECT_EQ(back.params.cols, r.params.cols);
    EXPECT_EQ(back.params.rows, r.params.rows);
    EXPECT_DOUBLE_EQ(back.params.sigma_noise_mhz, r.params.sigma_noise_mhz);
    EXPECT_DOUBLE_EQ(back.params.ambient_c, r.params.ambient_c);
    EXPECT_EQ(back.params.majority_wins, r.params.majority_wins);
    EXPECT_EQ(back.params.ecc_m, r.params.ecc_m);
    EXPECT_EQ(back.params.ecc_t, r.params.ecc_t);
    EXPECT_EQ(back.trials, r.trials);
    EXPECT_EQ(back.root_seed, r.root_seed);
    EXPECT_EQ(back.campaign_seed, r.campaign_seed);
    EXPECT_EQ(back.key_recovered_count, r.key_recovered_count);
    EXPECT_DOUBLE_EQ(back.success_rate, r.success_rate);
    EXPECT_DOUBLE_EQ(back.mean_accuracy, r.mean_accuracy);
    EXPECT_EQ(back.total_measurements, r.total_measurements);
    EXPECT_DOUBLE_EQ(back.queries.mean, r.queries.mean);
    EXPECT_DOUBLE_EQ(back.queries.stddev, r.queries.stddev);
    EXPECT_DOUBLE_EQ(back.queries.p95, r.queries.p95);
    EXPECT_DOUBLE_EQ(back.measurements.max, r.measurements.max);
    EXPECT_EQ(back.workers, r.workers);
    EXPECT_DOUBLE_EQ(back.wall_ms, r.wall_ms);
    EXPECT_DOUBLE_EQ(back.measurements_per_s, r.measurements_per_s);
}

TEST(JobRecord, TimingIsIsolatedInTheFinalKey) {
    const std::string line = xp::to_jsonl(sample_record());
    const std::string_view prefix = xp::deterministic_prefix(line);
    EXPECT_LT(prefix.size(), line.size());
    EXPECT_EQ(prefix.find("wall_ms"), std::string_view::npos);
    EXPECT_EQ(prefix.find("workers"), std::string_view::npos);
    EXPECT_EQ(prefix.find("measurements_per_s"), std::string_view::npos);
    EXPECT_NE(prefix.find("\"campaign_seed\""), std::string_view::npos);
    // A line with no timing key is returned whole.
    EXPECT_EQ(xp::deterministic_prefix("{\"a\":1}"), "{\"a\":1}");
}

// Full-byte pins: golden files compare deterministic prefixes only, so
// these are what fix the side-keys' exact spelling — key order, number
// forms, escapes — for an ok record carrying fault and obs side-keys and
// for a quarantine record.
TEST(JobRecord, OkRecordWithSideKeysSerializesToExactBytes) {
    xp::JobRecord r = sample_record();
    r.simd = "avx2";
    r.hardware_concurrency = 4;
    r.attempts = 2;
    r.obs.present = true;
    r.obs.counters["campaign.trials"] = 10.0;
    r.obs.counters["store.flush_ms"] = 0.1;
    r.obs.hists["campaign.trial_wall_ms"] = {10, 4.5, 4.0, 8.0, 9.0, 9.5};
    EXPECT_EQ(xp::to_jsonl(r),
              "{\"v\":1,\"spec\":\"sample\",\"spec_hash\":\"0123456789abcdef\","
              "\"job\":\"0123456789abcdef-00007\",\"index\":7,"
              "\"scenario\":\"seqpair/swap\",\"point\":{\"cols\":16,\"rows\":8,"
              "\"sigma_noise_mhz\":0.125,\"ambient_c\":-20,\"majority_wins\":3,\"ecc_m\":6,"
              "\"ecc_t\":5,\"query_budget\":0,\"defense\":\"none\",\"trials\":10,"
              "\"root_seed\":18364758544493064720,\"campaign_seed\":16045690984503111693},"
              "\"result\":{\"key_recovered_count\":9,\"success_rate\":0.90000000000000002,"
              "\"mean_accuracy\":0.98750000000000004,\"outcomes\":{\"recovered\":0,"
              "\"gave_up\":0,\"budget_exhausted\":0,\"refused_by_defense\":0,"
              "\"locked_out\":0},\"total_measurements\":9007199254740995,"
              "\"queries\":{\"mean\":100.5,\"stddev\":3.25,\"min\":90,\"max\":110,"
              "\"p95\":108},\"measurements\":{\"mean\":1000.5,\"stddev\":32.5,\"min\":900,"
              "\"max\":1100,\"p95\":1080}},\"timing\":{\"workers\":4,\"wall_ms\":12.5,"
              "\"trial_wall_ms_sum\":48,\"measurements_per_s\":10000000,\"simd\":\"avx2\","
              "\"hardware_concurrency\":4},\"fault\":{\"attempts\":2},"
              "\"obs\":{\"counters\":{\"campaign.trials\":10,"
              "\"store.flush_ms\":0.10000000000000001},"
              "\"hist\":{\"campaign.trial_wall_ms\":{\"count\":10,\"mean\":4.5,\"p50\":4,"
              "\"p95\":8,\"p99\":9,\"max\":9.5}}}}");
}

TEST(JobRecord, FailedRecordSerializesToExactBytes) {
    xp::JobRecord r = sample_record();
    r.outcome = "job_failed";
    r.attempts = 3;
    r.error_class = "watchdog_timeout";
    r.error_message = "job \"7\" hung:\n\tC:\\tmp\x01";
    r.params.defense = "lockout(3)";
    EXPECT_EQ(xp::to_jsonl(r),
              "{\"v\":1,\"spec\":\"sample\",\"spec_hash\":\"0123456789abcdef\","
              "\"job\":\"0123456789abcdef-00007\",\"index\":7,"
              "\"scenario\":\"seqpair/swap\",\"outcome\":\"job_failed\","
              "\"point\":{\"cols\":16,\"rows\":8,\"sigma_noise_mhz\":0.125,"
              "\"ambient_c\":-20,\"majority_wins\":3,\"ecc_m\":6,\"ecc_t\":5,"
              "\"query_budget\":0,\"defense\":\"lockout(3)\",\"trials\":10,"
              "\"root_seed\":18364758544493064720,\"campaign_seed\":16045690984503111693},"
              "\"timing\":{\"workers\":4,\"wall_ms\":12.5,\"trial_wall_ms_sum\":48,"
              "\"measurements_per_s\":10000000,\"simd\":\"\",\"hardware_concurrency\":0},"
              "\"fault\":{\"attempts\":3,\"class\":\"watchdog_timeout\","
              "\"message\":\"job \\\"7\\\" hung:\\n\\tC:\\\\tmp\\u0001\"}}");
}

TEST(JobRecord, ParseRejectsTornAndForeignLines) {
    const std::string line = xp::to_jsonl(sample_record());
    EXPECT_THROW((void)xp::parse_record(line.substr(0, line.size() / 2)), xp::JsonError);
    EXPECT_THROW((void)xp::parse_record("[1,2,3]"), std::logic_error);
    EXPECT_THROW((void)xp::parse_record("{\"v\":1}"), std::logic_error);
}

// ---------------------------------------------------------------------------
// Writer / reader / resume skip set
// ---------------------------------------------------------------------------

TEST(ResultStore, ReaderSkipsTornTailAndCountsIt) {
    const std::string path = temp_path("torn");
    {
        xp::ResultWriter writer(path, /*truncate=*/true);
        writer.append(sample_record());
        writer.append(sample_record());
    }
    {
        // Simulate a crash mid-append: a torn, unterminated record line.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << xp::to_jsonl(sample_record()).substr(0, 40);
    }
    xp::ReadStats stats;
    const auto records = xp::read_results(path, &stats);
    EXPECT_EQ(records.size(), 2u);
    EXPECT_EQ(stats.skipped_lines, 1);
    EXPECT_GT(stats.last_good_offset, 0);

    // Re-opening for append (what resume does) must newline-terminate the
    // torn fragment first: the next record may never merge into it.
    {
        xp::ResultWriter writer(path, /*truncate=*/false);
        writer.append(sample_record());
    }
    stats = {};
    const auto after_resume = xp::read_results(path, &stats);
    EXPECT_EQ(after_resume.size(), 3u);
    EXPECT_EQ(stats.skipped_lines, 1);
    std::remove(path.c_str());
}

TEST(ResultStore, SalvageWarningNamesSkippedCountAndOffset) {
    const std::string path = temp_path("salvage");
    std::string good_line;
    {
        xp::ResultWriter writer(path, /*truncate=*/true);
        writer.append(sample_record());
        writer.append(sample_record());
    }
    {
        // Truncate the file mid-record: keep line 1 whole, cut line 2 short.
        std::ifstream in(path);
        ASSERT_TRUE(std::getline(in, good_line));
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << good_line << "\n" << good_line.substr(0, 50);
    }
    xp::ReadStats stats;
    const auto records = xp::read_results(path, &stats);
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(stats.skipped_lines, 1);
    EXPECT_EQ(stats.last_good_offset, static_cast<long long>(good_line.size()) + 1);

    // The user-facing warning must name both figures — a torn file is only
    // salvageable if the report tells the operator where to truncate.
    const std::string warning = xp::salvage_warning(stats);
    EXPECT_NE(warning.find("1 unparseable line"), std::string::npos) << warning;
    EXPECT_NE(warning.find(std::to_string(stats.last_good_offset)), std::string::npos)
        << warning;
    EXPECT_TRUE(xp::salvage_warning(xp::ReadStats{}).empty());
    std::remove(path.c_str());
}

TEST(ResultStore, ObsSideKeyRoundTripsAndStaysOutOfThePrefix) {
    xp::JobRecord r = sample_record();
    r.attempts = 2; // force a fault key so obs must serialize after it
    r.obs.present = true;
    r.obs.counters["campaign.trials"] = 10.0;
    r.obs.counters["simd.calls.measure_scans"] = 640.0;
    r.obs.hists["campaign.trial_wall_ms"] = {10, 4.5, 4.0, 8.0, 9.0, 9.5};
    const std::string line = xp::to_jsonl(r);

    // Side-key order: timing, then fault, then obs — deterministic_prefix
    // cuts at timing, so obs can never leak into the compared content.
    const auto timing_pos = line.find("\"timing\":");
    const auto fault_pos = line.find("\"fault\":");
    const auto obs_pos = line.find("\"obs\":");
    ASSERT_NE(timing_pos, std::string::npos);
    ASSERT_NE(fault_pos, std::string::npos);
    ASSERT_NE(obs_pos, std::string::npos);
    EXPECT_LT(timing_pos, fault_pos);
    EXPECT_LT(fault_pos, obs_pos);
    EXPECT_EQ(xp::deterministic_prefix(line).find("\"obs\":"), std::string_view::npos);

    const xp::JobRecord back = xp::parse_record(line);
    ASSERT_TRUE(back.obs.present);
    EXPECT_DOUBLE_EQ(back.obs.counters.at("campaign.trials"), 10.0);
    EXPECT_DOUBLE_EQ(back.obs.counters.at("simd.calls.measure_scans"), 640.0);
    const obs::HistSummary& h = back.obs.hists.at("campaign.trial_wall_ms");
    EXPECT_EQ(h.count, 10u);
    EXPECT_DOUBLE_EQ(h.mean, 4.5);
    EXPECT_DOUBLE_EQ(h.p50, 4.0);
    EXPECT_DOUBLE_EQ(h.p95, 8.0);
    EXPECT_DOUBLE_EQ(h.p99, 9.0);
    EXPECT_DOUBLE_EQ(h.max, 9.5);

    // An obs-off record has no obs key and parses with present == false.
    const xp::JobRecord plain = xp::parse_record(xp::to_jsonl(sample_record()));
    EXPECT_FALSE(plain.obs.present);
}

TEST(ResultStore, PreObsRecordsTolerateASplicedObsKey) {
    // Forward-compat guard: a reader from before this PR would have choked
    // on an unknown key only if parsing were strict — ours ignores unknown
    // members. The inverse (this reader on a future record with extra obs
    // content) must also hold: splice an obs key into a plain record and
    // parse it.
    std::string line = xp::to_jsonl(sample_record());
    ASSERT_EQ(line.back(), '}');
    line.insert(line.size() - 1,
                ",\"obs\":{\"counters\":{\"campaign.trials\":20},\"hist\":{},"
                "\"future_field\":[1,2]}");
    const xp::JobRecord back = xp::parse_record(line);
    ASSERT_TRUE(back.obs.present);
    EXPECT_DOUBLE_EQ(back.obs.counters.at("campaign.trials"), 20.0);
    EXPECT_TRUE(back.obs.hists.empty());
}

TEST(ResultStore, ExactIntegerReadsRejectOutOfRangeDoubles) {
    // A hand-edited/corrupted seed in exponent form exceeds 2^64: the read
    // must fall back (here to 0), never feed an out-of-range double into a
    // cast (undefined behavior).
    xp::JobRecord r = sample_record();
    std::string line = xp::to_jsonl(r);
    const std::string needle = "\"root_seed\":" + std::to_string(r.root_seed);
    const auto pos = line.find(needle);
    ASSERT_NE(pos, std::string::npos);
    line.replace(pos, needle.size(), "\"root_seed\":1e20");
    const xp::JobRecord back = xp::parse_record(line);
    EXPECT_EQ(back.root_seed, 0u);
    EXPECT_EQ(back.campaign_seed, r.campaign_seed); // untouched field intact
}

TEST(ResultStore, CompletedJobIdsFiltersBySpecHash) {
    const std::string path = temp_path("ids");
    {
        xp::ResultWriter writer(path, /*truncate=*/true);
        xp::JobRecord r = sample_record();
        writer.append(r);
        r.spec_hash = "ffffffffffffffff";
        r.job_id = "ffffffffffffffff-00000";
        writer.append(r);
    }
    const auto ids = xp::completed_job_ids(path, "0123456789abcdef");
    EXPECT_EQ(ids, (std::set<std::string>{"0123456789abcdef-00007"}));
    // A missing file is an empty skip set, not an error.
    EXPECT_TRUE(xp::completed_job_ids("/nonexistent/none.jsonl", "x").empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Executor: interruption + resume == one uninterrupted run — on one worker
// and on a four-worker pool that runs several jobs' trials at once.
// ---------------------------------------------------------------------------

class Executor : public testing::TestWithParam<int> {
protected:
    xp::RunStats run_plan_into(const xp::Plan& plan, const std::string& path, int max_jobs = -1,
                               bool resume = false) const {
        return ::run_plan_into(GetParam(), plan, path, max_jobs, resume);
    }
};

INSTANTIATE_TEST_SUITE_P(, Executor, testing::Values(1, 4),
                         [](const testing::TestParamInfo<int>& info) {
                             std::string name = "w";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST_P(Executor, InterruptedThenResumedMatchesUninterruptedBitwise) {
    const xp::SweepSpec spec = xp::parse_spec(kGoldenSpecText);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    ASSERT_EQ(plan.jobs.size(), 4u);

    const std::string full_path = temp_path("full");
    const std::string part_path = temp_path("part");
    const auto full = run_plan_into(plan, full_path);
    EXPECT_EQ(full.executed, 4);

    // "Kill" the run after 2 jobs, then resume twice (the second resume
    // must be a no-op).
    const auto part = run_plan_into(plan, part_path, /*max_jobs=*/2);
    EXPECT_EQ(part.executed, 2);
    // The quota leaves the plan's first two jobs, whatever else the pool ran.
    const auto prefix = xp::read_results(part_path);
    ASSERT_EQ(prefix.size(), 2u);
    EXPECT_EQ(prefix[0].index, 0);
    EXPECT_EQ(prefix[1].index, 1);
    const auto resumed = run_plan_into(plan, part_path, /*max_jobs=*/-1, /*resume=*/true);
    EXPECT_EQ(resumed.executed, 2);
    EXPECT_EQ(resumed.skipped, 2);
    const auto again = run_plan_into(plan, part_path, /*max_jobs=*/-1, /*resume=*/true);
    EXPECT_EQ(again.executed, 0);
    EXPECT_EQ(again.skipped, 4);

    EXPECT_EQ(deterministic_lines(full_path), deterministic_lines(part_path));
    std::remove(full_path.c_str());
    std::remove(part_path.c_str());
}

TEST_P(Executor, RepeatedRunsAreByteIdentical) {
    const xp::SweepSpec spec = xp::parse_spec(kGoldenSpecText);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    const std::string a = temp_path("runa");
    const std::string b = temp_path("runb");
    run_plan_into(plan, a);
    run_plan_into(plan, b);
    const auto lines_a = deterministic_lines(a);
    EXPECT_EQ(lines_a, deterministic_lines(b));
    EXPECT_EQ(lines_a.size(), 4u);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// A plan mixing job sizes — 1, 4 and 40 trials — puts short and long
// jobs' trials on the pool together: the records must not depend on the
// worker count.
TEST(ExecutorMixedPlan, DeterministicLinesAreEqualAt1And2And4Workers) {
    const xp::Plan plan = xp::plan_spec(xp::parse_spec("name = mixed\n"
                                                       "scenarios = seqpair/swap, fuzzy/reference\n"
                                                       "trials = 1, 4, 40\n"
                                                       "master_seed = 5\n"),
                                        attack::default_registry());
    ASSERT_EQ(plan.jobs.size(), 6u);
    const std::string w1 = temp_path("mixed_w1");
    EXPECT_TRUE(run_plan_into(1, plan, w1).complete());
    const auto expected = deterministic_lines(w1);
    ASSERT_EQ(expected.size(), 6u);
    for (const int workers : {2, 4}) {
        const std::string path = temp_path("mixed_wn");
        EXPECT_TRUE(run_plan_into(workers, plan, path).complete());
        EXPECT_EQ(deterministic_lines(path), expected) << workers << " workers";
        std::remove(path.c_str());
    }
    std::remove(w1.c_str());
}

// ---------------------------------------------------------------------------
// Golden file: fixed spec + fixed master seed -> byte-identical records
// ---------------------------------------------------------------------------

TEST_P(Executor, GoldenFileRecordsReproduceByteForByte) {
    const xp::SweepSpec spec = xp::parse_spec(kGoldenSpecText);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    const std::string fresh = temp_path("golden");
    run_plan_into(plan, fresh);

    const std::string golden_path =
        std::string(ROPUF_SOURCE_DIR) + "/tests/data/golden_smoke.jsonl";
    const auto golden = deterministic_lines(golden_path);
    const auto current = deterministic_lines(fresh);
    ASSERT_EQ(golden.size(), current.size())
        << "golden record count changed — regenerate tests/data/golden_smoke.jsonl";
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(current[i], golden[i]) << "record " << i << " drifted from the golden file";
    }
    std::remove(fresh.c_str());
}

} // namespace

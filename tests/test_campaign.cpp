// Campaign runner: parallel Monte-Carlo execution must be bitwise
// reproducible — the same master seed yields the same per-trial reports and
// the same aggregates regardless of worker count or repetition. Also the
// contract of the pool underneath it, core::parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/core/parallel.hpp"

namespace {

using ropuf::core::AttackEngine;
using ropuf::core::AttackReport;
using ropuf::core::CampaignConfig;
using ropuf::core::CampaignRunner;
using ropuf::core::CampaignSummary;
using ropuf::core::MetricSummary;
using ropuf::core::ScenarioParams;
using ropuf::core::summarize_metric;

/// Everything except wall-clock fields, which measure the host.
void expect_reports_identical(const AttackReport& a, const AttackReport& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.construction, b.construction);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.paper_ref, b.paper_ref);
    EXPECT_EQ(a.key_bits, b.key_bits);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.key_recovered, b.key_recovered);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.notes, b.notes);
}

void expect_summaries_identical(const CampaignSummary& a, const CampaignSummary& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.master_seed, b.master_seed);
    EXPECT_EQ(a.key_recovered_count, b.key_recovered_count);
    EXPECT_EQ(a.success_rate, b.success_rate);
    EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
    EXPECT_EQ(a.total_measurements, b.total_measurements);
    EXPECT_EQ(a.queries.mean, b.queries.mean);
    EXPECT_EQ(a.queries.stddev, b.queries.stddev);
    EXPECT_EQ(a.queries.min, b.queries.min);
    EXPECT_EQ(a.queries.max, b.queries.max);
    EXPECT_EQ(a.queries.p95, b.queries.p95);
    EXPECT_EQ(a.measurements.mean, b.measurements.mean);
    EXPECT_EQ(a.measurements.p95, b.measurements.p95);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        expect_reports_identical(a.reports[i], b.reports[i]);
    }
}

TEST(TrialSeeds, DeterministicAndDistinct) {
    const auto a = CampaignRunner::trial_seeds(99, 64);
    const auto b = CampaignRunner::trial_seeds(99, 64);
    EXPECT_EQ(a, b);
    const std::set<std::uint64_t> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), a.size());
    // A different master seed yields a different schedule.
    const auto c = CampaignRunner::trial_seeds(100, 64);
    EXPECT_NE(a, c);
    // Prefixes are stable: a longer campaign extends, not reshuffles.
    const auto prefix = CampaignRunner::trial_seeds(99, 8);
    for (std::size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], a[i]);
}

TEST(ScenarioDeterminism, SameSeedSameReportAcrossRepeatedRuns) {
    const AttackEngine engine(ropuf::attack::default_registry());
    ScenarioParams params;
    params.seed = 7;
    const auto first = engine.run("seqpair/swap", params);
    const auto second = engine.run("seqpair/swap", params);
    expect_reports_identical(first, second);
    EXPECT_GT(first.queries, 0);
}

TEST(Campaign, BitwiseIdenticalAcrossWorkerCounts) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 12;
    config.master_seed = 5;

    config.workers = 1;
    const auto serial = runner.run("seqpair/swap", config);

    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) hw = 4; // still exercise the pool on single-core hosts
    config.workers = static_cast<int>(hw);
    const auto parallel = runner.run("seqpair/swap", config);

    EXPECT_EQ(serial.workers, 1);
    EXPECT_GT(parallel.workers, 1);
    expect_summaries_identical(serial, parallel);
}

TEST(Campaign, RepeatedRunsIdentical) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 6;
    config.workers = 3;
    config.master_seed = 17;
    const auto a = runner.run("seqpair/swap", config);
    const auto b = runner.run("seqpair/swap", config);
    expect_summaries_identical(a, b);
}

TEST(Campaign, AggregatesMatchPerTrialReports) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 10;
    config.workers = 2;
    config.master_seed = 23;
    const auto summary = runner.run("seqpair/swap", config);

    ASSERT_EQ(summary.reports.size(), 10u);
    ASSERT_EQ(summary.trials, 10);
    std::int64_t total_meas = 0;
    int recovered = 0;
    double qmin = summary.reports[0].queries;
    double qmax = qmin;
    for (const auto& r : summary.reports) {
        EXPECT_EQ(r.scenario, "seqpair/swap");
        total_meas += r.measurements;
        recovered += r.key_recovered ? 1 : 0;
        qmin = std::min(qmin, static_cast<double>(r.queries));
        qmax = std::max(qmax, static_cast<double>(r.queries));
    }
    EXPECT_EQ(summary.total_measurements, total_meas);
    EXPECT_EQ(summary.key_recovered_count, recovered);
    EXPECT_EQ(summary.success_rate, recovered / 10.0);
    EXPECT_EQ(summary.queries.min, qmin);
    EXPECT_EQ(summary.queries.max, qmax);
    // The seqpair attack succeeds on the overwhelming majority of chips.
    EXPECT_GE(summary.success_rate, 0.8);
}

TEST(Campaign, TrialsSeeDistinctChips) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 8;
    config.workers = 2;
    config.master_seed = 31;
    const auto summary = runner.run("seqpair/swap", config);
    // Independently manufactured chips cannot all cost the same number of
    // queries; a degenerate schedule would make every trial identical.
    std::set<std::int64_t> distinct;
    for (const auto& r : summary.reports) distinct.insert(r.queries);
    EXPECT_GT(distinct.size(), 1u);
}

TEST(Campaign, KeepReportsFalseDropsPerTrialData) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 4;
    config.workers = 2;
    config.keep_reports = false;
    const auto summary = runner.run("seqpair/swap", config);
    EXPECT_TRUE(summary.reports.empty());
    EXPECT_EQ(summary.trials, 4);
    EXPECT_GT(summary.total_measurements, 0);
}

TEST(Campaign, UnknownScenarioThrows) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    EXPECT_THROW(runner.run("no/such", CampaignConfig{}), std::out_of_range);
}

TEST(Campaign, JsonIsWellFormed) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 3;
    config.workers = 1;
    const auto summary = runner.run("seqpair/swap", config);
    const auto json = ropuf::core::to_json(summary, /*include_reports=*/true);
    EXPECT_NE(json.find("\"scenario\":\"seqpair/swap\""), std::string::npos);
    EXPECT_NE(json.find("\"trials\":3"), std::string::npos);
    EXPECT_NE(json.find("\"reports\":["), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

// Full-byte pin of the summary with its nested per-trial reports: the
// fixed-decimal rates, the 64-bit master seed and the metric sub-objects.
TEST(Campaign, JsonWithReportsIsPinnedToExactBytes) {
    ropuf::core::CampaignSummary s;
    s.scenario = "seqpair/swap";
    s.trials = 2;
    s.workers = 4;
    s.master_seed = 0xfedcba9876543210ULL;
    s.key_recovered_count = 1;
    s.success_rate = 0.5;
    s.mean_accuracy = 0.9921875;
    s.outcomes.recovered = 1;
    s.outcomes.gave_up = 1;
    s.queries = {165.5, 2.25, 160.0, 171.0, 171.0};
    s.measurements = {21184.0, 288.0, 20480.0, 21888.0, 21888.0};
    s.total_measurements = 42368;
    s.wall_ms = 3.14159;
    s.trial_wall_ms_sum = 6.0;
    s.measurements_per_s = 13486200.4;
    ropuf::core::AttackReport a;
    a.scenario = "seqpair/swap";
    a.key_bits = 64;
    a.queries = 160;
    a.accuracy = 1.0;
    a.key_recovered = true;
    a.complete = true;
    a.outcome = ropuf::core::AttackOutcome::recovered;
    ropuf::core::AttackReport b = a;
    b.queries = 171;
    b.accuracy = 0.984375;
    b.key_recovered = false;
    b.outcome = ropuf::core::AttackOutcome::gave_up;
    s.reports = {a, b};
    EXPECT_EQ(ropuf::core::to_json(s, /*include_reports=*/true),
              "{\"scenario\":\"seqpair/swap\",\"trials\":2,\"workers\":4,"
              "\"master_seed\":18364758544493064720,\"key_recovered_count\":1,"
              "\"success_rate\":0.5000,\"mean_accuracy\":0.992188,"
              "\"outcomes\":{\"recovered\":1,\"gave_up\":1,\"budget_exhausted\":0,"
              "\"refused_by_defense\":0,\"locked_out\":0},\"total_measurements\":42368,"
              "\"wall_ms\":3.142,\"trial_wall_ms_sum\":6.000,"
              "\"measurements_per_s\":13486200,\"queries\":{\"mean\":165.500,"
              "\"stddev\":2.250,\"min\":160,\"max\":171,\"p95\":171},"
              "\"measurements\":{\"mean\":21184.000,\"stddev\":288.000,\"min\":20480,"
              "\"max\":21888,\"p95\":21888},\"reports\":[{\"scenario\":\"seqpair/swap\","
              "\"construction\":\"\",\"attack\":\"\",\"paper_ref\":\"\",\"key_bits\":64,"
              "\"queries\":160,\"measurements\":0,\"refused\":0,\"accuracy\":1.000000,"
              "\"key_recovered\":true,\"complete\":true,\"outcome\":\"recovered\","
              "\"wall_ms\":0.000,\"notes\":\"\"},{\"scenario\":\"seqpair/swap\","
              "\"construction\":\"\",\"attack\":\"\",\"paper_ref\":\"\",\"key_bits\":64,"
              "\"queries\":171,\"measurements\":0,\"refused\":0,\"accuracy\":0.984375,"
              "\"key_recovered\":false,\"complete\":true,\"outcome\":\"gave_up\","
              "\"wall_ms\":0.000,\"notes\":\"\"}]}");
}

// Regression: one-trial campaigns (spec smoke points, golden tests) must
// produce well-defined statistics — zero spread, every order statistic equal
// to the single sample — and never divide by zero or index past the end.
TEST(Campaign, SingleTrialStatisticsAreWellDefined) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 1;
    config.workers = 1;
    config.master_seed = 77;
    const auto summary = runner.run("seqpair/swap", config);
    ASSERT_EQ(summary.trials, 1);
    ASSERT_EQ(summary.reports.size(), 1u);
    const double q = static_cast<double>(summary.reports[0].queries);
    EXPECT_DOUBLE_EQ(summary.queries.mean, q);
    EXPECT_DOUBLE_EQ(summary.queries.min, q);
    EXPECT_DOUBLE_EQ(summary.queries.max, q);
    EXPECT_DOUBLE_EQ(summary.queries.p95, q);
    EXPECT_DOUBLE_EQ(summary.queries.stddev, 0.0);
    EXPECT_DOUBLE_EQ(summary.measurements.stddev, 0.0);
    EXPECT_EQ(summary.success_rate, summary.reports[0].key_recovered ? 1.0 : 0.0);
    // And the JSON emitter must not choke on the degenerate summary.
    const auto json = ropuf::core::to_json(summary, true);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Campaign, ZeroTrialsYieldEmptyButFiniteSummary) {
    const CampaignRunner runner(ropuf::attack::default_registry());
    CampaignConfig config;
    config.trials = 0;
    config.workers = 1;
    const auto summary = runner.run("seqpair/swap", config);
    EXPECT_EQ(summary.trials, 0);
    EXPECT_TRUE(summary.reports.empty());
    EXPECT_DOUBLE_EQ(summary.success_rate, 0.0);
    EXPECT_DOUBLE_EQ(summary.mean_accuracy, 0.0);
    EXPECT_DOUBLE_EQ(summary.queries.mean, 0.0);
    EXPECT_DOUBLE_EQ(summary.queries.p95, 0.0);
}

TEST(ParallelFor, RunsEachItemOnceThenStopsClaimingAfterAFailure) {
    for (const int workers : {1, 4}) {
        std::vector<std::atomic<int>> hits(64);
        ropuf::core::parallel_for(hits.size(), workers,
                                  [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " workers";

        // Item 2 throws at once; every other item takes a millisecond, so
        // the pool must stop claiming long before it could drain the list.
        std::atomic<int> ran{0};
        EXPECT_THROW(ropuf::core::parallel_for(1000, workers,
                                               [&](std::size_t i) {
                                                   ran.fetch_add(1);
                                                   if (i == 2) throw std::runtime_error("x");
                                                   std::this_thread::sleep_for(
                                                       std::chrono::milliseconds(1));
                                               }),
                     std::runtime_error);
        EXPECT_LT(ran.load(), 100) << workers << " workers";
    }
}

TEST(ParallelFor, ResolveWorkersClampsToTheCeiling) {
    // Pure arithmetic: no pool is started at these counts.
    using ropuf::core::kMaxWorkers;
    using ropuf::core::resolve_workers;
    EXPECT_EQ(resolve_workers(1 << 20), kMaxWorkers);
    EXPECT_EQ(resolve_workers(kMaxWorkers + 1), kMaxWorkers);
    EXPECT_EQ(resolve_workers(kMaxWorkers), kMaxWorkers);
    EXPECT_EQ(resolve_workers(3), 3);
    EXPECT_GE(resolve_workers(0), 1);
    EXPECT_LE(resolve_workers(0), kMaxWorkers);
    EXPECT_EQ(resolve_workers(-5), resolve_workers(0));
}

TEST(Campaign, RunIsRunTrialPlusSummarizeCampaign) {
    // The executor's plan-wide pool builds a job's summary from run_trial
    // and summarize_campaign; the runner must mean the same thing.
    CampaignConfig config;
    config.trials = 3;
    config.workers = 2;
    config.master_seed = 11;
    const CampaignRunner runner(ropuf::attack::default_registry());
    const CampaignSummary whole = runner.run("seqpair/swap", config);
    const auto seeds = CampaignRunner::trial_seeds(config.master_seed, config.trials);
    std::vector<AttackReport> reports;
    for (int t = 0; t < config.trials; ++t) {
        reports.push_back(ropuf::core::run_trial(runner.scenario("seqpair/swap"), config,
                                                 seeds[static_cast<std::size_t>(t)], t));
        // Wall clock measures the host: take the runner's, compare the rest.
        reports.back().wall_ms = whole.reports[static_cast<std::size_t>(t)].wall_ms;
    }
    const CampaignSummary pieces = ropuf::core::summarize_campaign(
        "seqpair/swap", config, whole.workers, whole.wall_ms, std::move(reports));
    EXPECT_EQ(ropuf::core::to_json(pieces), ropuf::core::to_json(whole));
    ASSERT_EQ(pieces.reports.size(), whole.reports.size());
    for (std::size_t t = 0; t < whole.reports.size(); ++t) {
        expect_reports_identical(pieces.reports[t], whole.reports[t]);
    }
}

TEST(SummarizeMetric, KnownValues) {
    const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
    const MetricSummary m = summarize_metric(values);
    EXPECT_DOUBLE_EQ(m.mean, 2.5);
    EXPECT_DOUBLE_EQ(m.min, 1.0);
    EXPECT_DOUBLE_EQ(m.max, 4.0);
    EXPECT_NEAR(m.stddev, 1.118033988749895, 1e-12); // population sd
    EXPECT_DOUBLE_EQ(m.p95, 4.0);                    // nearest rank of 4 values
    EXPECT_DOUBLE_EQ(summarize_metric({}).mean, 0.0);
    const MetricSummary single = summarize_metric({7.0});
    EXPECT_DOUBLE_EQ(single.p95, 7.0);
    EXPECT_DOUBLE_EQ(single.stddev, 0.0);
}

} // namespace

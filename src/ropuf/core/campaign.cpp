#include "ropuf/core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "ropuf/core/parallel.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/json_writer.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::core {

// Planning a sweep runs this once per master seed over every job, so its
// jump loop is most of a large plan's set-up time. That loop ran about 20%
// slower when the function started 16 bytes past a cache line than at one,
// and where it lands moves with unrelated code: pin it to a line.
[[gnu::aligned(64)]] std::vector<std::uint64_t> CampaignRunner::trial_seeds(std::uint64_t master_seed, int trials) {
    rng::Xoshiro256pp master(master_seed);
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(std::max(trials, 0)));
    for (auto& seed : seeds) {
        rng::Xoshiro256pp stream = master.split();
        seed = stream.next();
    }
    return seeds;
}

std::uint64_t CampaignRunner::job_seed(std::uint64_t root, int index) {
    const auto seeds = trial_seeds(root, index + 1);
    return seeds.back();
}

CampaignSummary CampaignRunner::run(std::string_view scenario_name,
                                    const CampaignConfig& config) const {
    const Scenario& scenario = registry_->at(scenario_name);
    const int trials = std::max(config.trials, 0);
    const int workers = std::min(resolve_workers(config.workers), std::max(trials, 1));

    // Seed schedule first, sequentially, so trial t's randomness does not
    // depend on which worker claims it.
    const std::vector<std::uint64_t> seeds = trial_seeds(config.master_seed, trials);
    std::vector<AttackReport> reports(static_cast<std::size_t>(trials));

    const auto t0 = std::chrono::steady_clock::now();
    parallel_for(seeds.size(), workers, [&](std::size_t t) {
        reports[t] = run_trial(scenario, config, seeds[t], static_cast<int>(t));
    });
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    return summarize_campaign(scenario_name, config, workers, wall_ms, std::move(reports));
}

AttackReport run_trial(const Scenario& scenario, const CampaignConfig& config,
                       std::uint64_t seed, int trial) {
    if (config.injector != nullptr) {
        config.injector->trial_probe(config.fi_job_index, trial, config.fi_attempt);
    }
    ScenarioParams params = config.base;
    params.seed = seed;
    AttackReport report;
    {
        const obs::Span trial_span("trial");
        report = run_scenario(scenario, params);
    }
    ROPUF_OBS_COUNT("campaign.trials", 1);
    ROPUF_OBS_OBSERVE("campaign.trial_wall_ms", report.wall_ms);
    return report;
}

CampaignSummary summarize_campaign(std::string_view scenario_name, const CampaignConfig& config,
                                   int workers, double wall_ms,
                                   std::vector<AttackReport> reports) {
    const int trials = static_cast<int>(reports.size());
    CampaignSummary summary;
    summary.scenario = std::string(scenario_name);
    summary.trials = trials;
    summary.workers = workers;
    summary.master_seed = config.master_seed;
    summary.wall_ms = wall_ms;

    std::vector<double> queries;
    std::vector<double> measurements;
    queries.reserve(reports.size());
    measurements.reserve(reports.size());
    for (const auto& report : reports) {
        if (report.key_recovered) ++summary.key_recovered_count;
        switch (report.outcome) {
            case AttackOutcome::recovered: ++summary.outcomes.recovered; break;
            case AttackOutcome::gave_up: ++summary.outcomes.gave_up; break;
            case AttackOutcome::budget_exhausted: ++summary.outcomes.budget_exhausted; break;
            case AttackOutcome::refused_by_defense:
                ++summary.outcomes.refused_by_defense;
                break;
            case AttackOutcome::locked_out: ++summary.outcomes.locked_out; break;
        }
        summary.mean_accuracy += report.accuracy;
        summary.trial_wall_ms_sum += report.wall_ms;
        summary.total_measurements += report.measurements;
        queries.push_back(static_cast<double>(report.queries));
        measurements.push_back(static_cast<double>(report.measurements));
    }
    if (trials > 0) {
        summary.success_rate =
            static_cast<double>(summary.key_recovered_count) / static_cast<double>(trials);
        summary.mean_accuracy /= static_cast<double>(trials);
    }
    summary.queries = summarize_metric(queries);
    summary.measurements = summarize_metric(measurements);
    if (summary.wall_ms > 0.0) {
        summary.measurements_per_s =
            static_cast<double>(summary.total_measurements) / (summary.wall_ms / 1000.0);
    }
    if (config.keep_reports) summary.reports = std::move(reports);
    return summary;
}

MetricSummary summarize_metric(const std::vector<double>& values) {
    MetricSummary stat;
    if (values.empty()) return stat;
    if (values.size() == 1) {
        // One-trial campaigns are legitimate (spec smoke points, golden
        // tests); every order statistic collapses to the single sample and
        // the spread is zero by definition — no divisions by (n - 1), no
        // rank arithmetic that could index past the end.
        stat.mean = stat.min = stat.max = stat.p95 = values.front();
        return stat;
    }
    const auto n = static_cast<double>(values.size());
    double sum = 0.0;
    stat.min = values.front();
    stat.max = values.front();
    for (double v : values) {
        sum += v;
        stat.min = std::min(stat.min, v);
        stat.max = std::max(stat.max, v);
    }
    stat.mean = sum / n;
    double ss = 0.0;
    for (double v : values) ss += (v - stat.mean) * (v - stat.mean);
    stat.stddev = std::sqrt(ss / n);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank p95, clamped to [1, n] so the index below stays in range
    // for every n >= 1.
    const auto rank = std::min<std::size_t>(
        sorted.size(),
        std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(sorted.size())))));
    stat.p95 = sorted[rank - 1];
    return stat;
}

namespace {

void write_metric(obs::JsonWriter& w, std::string_view name, const MetricSummary& m) {
    w.key(name).begin_object().key("mean").fixed(m.mean, 3).key("stddev").fixed(m.stddev, 3);
    w.key("min").fixed(m.min, 0).key("max").fixed(m.max, 0).key("p95").fixed(m.p95, 0);
    w.end_object();
}

} // namespace

std::string to_json(const CampaignSummary& s, bool include_reports) {
    obs::JsonWriter w;
    w.begin_object().key("scenario").str(s.scenario).key("trials").integer(s.trials);
    w.key("workers").integer(s.workers).key("master_seed").integer(s.master_seed);
    w.key("key_recovered_count").integer(s.key_recovered_count);
    w.key("success_rate").fixed(s.success_rate, 4).key("mean_accuracy").fixed(s.mean_accuracy, 6);
    w.key("outcomes").begin_object().key("recovered").integer(s.outcomes.recovered);
    w.key("gave_up").integer(s.outcomes.gave_up);
    w.key("budget_exhausted").integer(s.outcomes.budget_exhausted);
    w.key("refused_by_defense").integer(s.outcomes.refused_by_defense);
    w.key("locked_out").integer(s.outcomes.locked_out).end_object();
    w.key("total_measurements").integer(s.total_measurements);
    w.key("wall_ms").fixed(s.wall_ms, 3).key("trial_wall_ms_sum").fixed(s.trial_wall_ms_sum, 3);
    w.key("measurements_per_s").fixed(s.measurements_per_s, 0);
    write_metric(w, "queries", s.queries);
    write_metric(w, "measurements", s.measurements);
    if (include_reports) {
        w.key("reports").begin_array();
        for (const AttackReport& report : s.reports) w.raw(to_json(report));
        w.end_array();
    }
    w.end_object();
    return w.release();
}

std::string campaign_table_header() {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%-24s %7s %7s %8s %10s %10s %10s %12s", "scenario", "trials",
                  "workers", "success", "queries", "q-p95", "wall ms", "meas/s");
    return buf;
}

std::string campaign_table_row(const CampaignSummary& s) {
    char buf[240];
    std::snprintf(buf, sizeof buf, "%-24s %7d %7d %8.3f %10.1f %10.0f %10.1f %12.3e",
                  s.scenario.c_str(), s.trials, s.workers, s.success_rate, s.queries.mean,
                  s.queries.p95, s.wall_ms, s.measurements_per_s);
    return buf;
}

} // namespace ropuf::core

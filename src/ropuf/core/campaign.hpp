// Parallel Monte-Carlo campaign runner.
//
// The paper's attack-cost claims are statistical: queries per recovered key
// bit, success probability, measurement budget — all distributions over a
// population of independently manufactured chips, not properties of one
// device. A campaign runs one registered scenario across N trials, each
// trial a fresh chip / enrollment / victim derived from its own seed, and
// aggregates the per-trial AttackReports into a CampaignSummary.
//
// Reproducibility contract: per-trial seeds are derived from the master
// seed via rng::Xoshiro256pp::split() — a sequential walk of jump()-spaced
// streams computed *before* any worker starts. Trial t therefore sees the
// same seed whether the campaign runs on 1 worker or 64, and every
// aggregate is folded in trial order, so campaign results are bitwise
// identical for a fixed master seed regardless of worker count (wall-clock
// fields excepted, as they measure the host, not the experiment).
//
// Independence caveat: ScenarioParams::seed is 64 bits, so each trial keeps
// only the first word of its split() stream and re-expands it through
// splitmix64. Trials are distinct/independent with overwhelming probability
// (64-bit birthday bound), not disjoint-by-construction the way the full
// 2^128-spaced streams are.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ropuf/core/attack_engine.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::core {

/// Knobs of one campaign.
struct CampaignConfig {
    int trials = 100;             ///< independent chips to manufacture
    int workers = 0;              ///< worker threads; 0 = hardware_concurrency
    std::uint64_t master_seed = 1;///< root of the per-trial seed streams
    ScenarioParams base;          ///< shared scenario knobs (seed is overridden per trial)
    bool keep_reports = true;     ///< retain the per-trial reports in the summary

    // Fault-injection seam (chaos testing). When set, run_trial consults
    // the injector before running its trial; a fired trial_throw rule
    // throws out of run_trial like any scenario failure. Decisions key on
    // (job index, trial, attempt), so they are independent of worker
    // scheduling.
    const fi::Injector* injector = nullptr;
    int fi_job_index = 0; ///< plan job index for injector decisions
    int fi_attempt = 1;   ///< executor attempt number (1-based)
};

/// Order-stable aggregate of one per-trial metric.
struct MetricSummary {
    double mean = 0.0;
    double stddev = 0.0;   ///< population standard deviation
    double min = 0.0;
    double max = 0.0;
    double p95 = 0.0;      ///< nearest-rank 95th percentile
};

/// Per-outcome trial counts (AttackOutcome as a histogram).
struct OutcomeCounts {
    int recovered = 0;
    int gave_up = 0;
    int budget_exhausted = 0;
    int refused_by_defense = 0;
    int locked_out = 0;

    bool operator==(const OutcomeCounts&) const = default;
};

/// Aggregated outcome of a campaign.
struct CampaignSummary {
    std::string scenario;
    int trials = 0;
    int workers = 0;               ///< workers actually used
    std::uint64_t master_seed = 0;
    int key_recovered_count = 0;   ///< trials with exact full-key recovery
    double success_rate = 0.0;     ///< key_recovered_count / trials
    double mean_accuracy = 0.0;    ///< mean recovered-bit accuracy
    OutcomeCounts outcomes;        ///< how the trials ended, as a histogram
    MetricSummary queries;         ///< oracle queries per trial
    MetricSummary measurements;    ///< oscillator measurements per trial
    std::int64_t total_measurements = 0;
    double wall_ms = 0.0;          ///< whole-campaign wall clock
    double trial_wall_ms_sum = 0.0;///< summed per-trial wall clock (CPU-side work)
    double measurements_per_s = 0.0; ///< total_measurements / campaign wall time
    std::vector<AttackReport> reports; ///< per-trial, in trial order (may be empty)
};

/// Runs registered scenarios over trial populations on a worker pool.
class CampaignRunner {
public:
    explicit CampaignRunner(const ScenarioRegistry& registry) : registry_(&registry) {}

    /// The per-trial seed schedule for a master seed: trial t's seed is the
    /// first output of the t-th split() stream. Exposed so tests and
    /// external drivers can reproduce single trials of a campaign.
    static std::vector<std::uint64_t> trial_seeds(std::uint64_t master_seed, int trials);

    /// Per-job seeding hook for external drivers (the xp::Planner): the
    /// campaign master seed of job `index` under root seed `root` is the
    /// first output of the index-th split() stream of Xoshiro256pp(root) —
    /// the same schedule trial_seeds walks, so job seeds are stable under
    /// resume and independent across job indices.
    static std::uint64_t job_seed(std::uint64_t root, int index);

    /// The registered scenario `name`; throws std::out_of_range for
    /// unknown names.
    const Scenario& scenario(std::string_view name) const { return registry_->at(name); }

    /// Runs `trials` independent instances of one scenario on
    /// core::parallel_for; throws std::out_of_range for unknown names. The
    /// first trial exception stops further trials from starting and is
    /// rethrown once the pool has joined.
    CampaignSummary run(std::string_view scenario_name,
                        const CampaignConfig& config = {}) const;

private:
    const ScenarioRegistry* registry_;
};

/// One campaign trial, the body every trial runs through — whether
/// CampaignRunner::run or an attempt at an xp job schedules it: the
/// fi trial_probe seam, the `trial` span around the scenario run with
/// `seed`, and the campaign.trials / campaign.trial_wall_ms metrics.
AttackReport run_trial(const Scenario& scenario, const CampaignConfig& config,
                       std::uint64_t seed, int trial);

/// Folds per-trial reports (in trial order) into a campaign summary;
/// `wall_ms` is the campaign's wall clock and `workers` the threads it ran
/// on. Reports are kept in the summary when config.keep_reports.
CampaignSummary summarize_campaign(std::string_view scenario_name, const CampaignConfig& config,
                                   int workers, double wall_ms,
                                   std::vector<AttackReport> reports);

/// Order-stable aggregation helper (mean/stddev/min/max/p95 over `values`
/// as given; p95 by nearest rank on a sorted copy).
MetricSummary summarize_metric(const std::vector<double>& values);

/// One-line JSON object (without the per-trial reports unless included).
std::string to_json(const CampaignSummary& summary, bool include_reports = false);

/// Fixed-width table rendering for benches and demos.
std::string campaign_table_header();
std::string campaign_table_row(const CampaignSummary& summary);

} // namespace ropuf::core

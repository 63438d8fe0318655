// paper_attacks and defense_matrix: sweep specs through the entry points
// behind `ropuf run`.
//
// Untraced run (bench.cpp's measure_passes): set-up (registry + spec parse +
// plan) several times, one warm-up pass on the canonical spec whose output
// digest is pinned, then passes over the set-up's plan, whose master_seed
// axis derives from the workload seed, until the time is spent; every pass
// must repeat the first one's digest. After each pass the chips of the
// canonical spec's trials are manufactured and enrolled again on one
// thread, which is what enroll_devices_per_s times: the same chips after
// every pass of every run, so the figure does not depend on the seed.
//
// Traced run: a few untraced passes (xp records, baseline CPU), the
// registry's per-trial reports for the plan, then every trial rebuilt
// with layer timers (traced.hpp) on the same worker count, and replays of
// ResultWriter::append and read_results on the run's own records.
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "traced.hpp"

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace e2e {

namespace {

using namespace ropuf;

/// One sweep workload. `spec_name`, `scenarios` and `defense` are the
/// committed spec's (specs/paper_all.spec, specs/fig_matrix.spec) and
/// `pin_seed` is its master_seed, so the canonical pass writes the same
/// records as `ropuf run` on the committed spec; its digest is pinned.
struct Shape {
    const char* name;
    const char* spec_name;
    const char* scenarios;
    const char* defense; ///< nullptr = no defense axis
    int trials;
    int smoke_trials;
    std::uint64_t pin_seed;
    int seeds_per_pass; ///< master_seed axis values of a measured pass
    int enroll_reps;    ///< enrollment replays of the canonical trials per pass
};

// defense_matrix keeps fig_matrix's 4 trials per job — short jobs are what
// it measures — and lengthens each pass with more master seeds instead: one
// pass is the grid over 8 derived seeds (448 jobs), so every pass of a run
// does the same work and a run's work is the mean of 8 seeds', not one. Its
// enrollment replay runs 8 times over (1792 chips, about paper_attacks'
// 1700), so the replay is long enough to time.
constexpr Shape kPaperAttacks{"paper_attacks", "paper_all", "all", nullptr, 100, 2, 2014, 1, 1};
constexpr Shape kDefenseMatrix{
    "defense_matrix",
    "fig_matrix",
    "seqpair/swap, tempaware/substitution, group/sortmerge, maskedchain/distiller, "
    "overlapchain/distiller, group/sortmerge-adaptive, maskedchain/distiller-adaptive, "
    "overlapchain/distiller-adaptive",
    "none, sanity, crc, mac, lockout(8), ratelimit(200,64), noisyrefusal(0.5)",
    4,
    1,
    42,
    8,
    8};

/// Spans below the trial level cover one trial in this many.
constexpr int kTraceSampleEvery = 64;
constexpr int kReadReps = 5;
constexpr int kAppendReps = 20;
constexpr double kAccountingTolerance = 0.05;

std::string spec_text(const Shape& s, const std::vector<std::uint64_t>& master_seeds,
                      bool smoke) {
    std::string text = std::string("name = ") + s.spec_name + "\nscenarios = " + s.scenarios + "\n";
    if (s.defense != nullptr) text += std::string("defense = ") + s.defense + "\n";
    text += "trials = " + std::to_string(smoke ? s.smoke_trials : s.trials) + "\n";
    text += "master_seed = ";
    for (std::size_t i = 0; i < master_seeds.size(); ++i) {
        text += (i == 0 ? "" : ", ") + std::to_string(master_seeds[i]);
    }
    return text + "\n";
}

/// The master seeds of the measured passes of a run seeded with `seed`.
std::vector<std::uint64_t> pass_seeds(const Shape& s, std::uint64_t seed) {
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < s.seeds_per_pass; ++i) seeds.push_back(derive_seed(seed, i));
    return seeds;
}

struct Setup {
    core::ScenarioRegistry registry;
    xp::Plan plan;
};

/// The set-up a user of `ropuf run` pays before the first job: build the
/// scenario registry, parse the spec, expand the plan.
std::shared_ptr<Setup> set_up(const std::string& text) {
    auto setup = std::make_shared<Setup>();
    attack::register_builtin_scenarios(setup->registry);
    setup->plan = xp::plan_spec(xp::parse_spec(text), setup->registry);
    return setup;
}

struct Pass {
    PassResult result;         ///< digest over every record's deterministic prefix
    double job_wall_s = 0.0;   ///< sum of the records' job wall_ms
    double trial_wall_s = 0.0; ///< sum of the records' trial_wall_ms_sum
};

/// One execute_plan over `plan` into a fresh results file at `path`; the
/// file stays for the caller.
Pass run_pass(const core::ScenarioRegistry& registry, const xp::Plan& plan, int workers,
              const std::string& path) {
    Pass pass;
    PassResult& r = pass.result;
    {
        xp::ResultWriter writer(path, /*truncate=*/true);
        xp::RunOptions options;
        options.workers = workers;
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        const xp::RunStats stats = xp::execute_plan(plan, registry, {}, writer, options);
        r.wall_s = seconds_between(t0, Clock::now());
        r.cpu_s = process_cpu_s() - cpu0;
        r.attempted = stats.total;
        r.quarantined = stats.failed + (stats.total - stats.executed - stats.failed);
    }
    Digest digest;
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
        digest.add(xp::deterministic_prefix(line));
        digest.add("\n");
        const xp::JobRecord rec = xp::parse_record(line);
        if (rec.failed()) continue;
        r.queries += std::llround(rec.queries.mean * rec.trials);
        r.measurements += rec.total_measurements;
        pass.job_wall_s += rec.wall_ms / 1000.0;
        pass.trial_wall_s += rec.trial_wall_ms_sum / 1000.0;
    }
    r.digest = digest.hex();
    return pass;
}

/// One (job, trial) of a plan, with the registry's report for it in the
/// traced run.
struct TrialTask {
    const xp::Job* job;
    core::ScenarioParams params;
    const core::AttackReport* reference = nullptr;
};

/// Every (job, trial) of `plan` with its trial seed, in job order.
std::vector<TrialTask> trial_tasks(const xp::Plan& plan) {
    std::vector<TrialTask> tasks;
    for (const xp::Job& job : plan.jobs) {
        const auto seeds = core::CampaignRunner::trial_seeds(job.campaign_seed, job.trials);
        for (const std::uint64_t seed : seeds) {
            core::ScenarioParams params = job.params;
            params.seed = seed;
            tasks.push_back({&job, params});
        }
    }
    return tasks;
}

struct TracedRun {
    LayerTotals totals;              ///< summed over passes and workers
    int passes = 0;
    std::vector<double> cpu_per_pass; ///< process CPU of each pass, replay excluded
    std::vector<std::string> errors;  ///< trials that threw
};

/// Rebuilds every trial of the plan on `workers` threads, pass after pass,
/// until `seconds` have gone by since `run_start` (at least one pass). The
/// trace sink installed by the caller is uninstalled after the first pass.
TracedRun traced_passes(const std::vector<TrialTask>& tasks, int workers, double seconds,
                        Clock::time_point run_start) {
    TracedRun run;
    do {
        std::vector<LayerTotals> per_worker(static_cast<std::size_t>(workers));
        std::atomic<std::size_t> next{0};
        std::mutex error_mutex;
        const auto worker = [&](int w) {
            if (obs::TraceSink* sink = obs::trace()) sink->set_thread_name("traced-worker");
            LayerTotals& acc = per_worker[static_cast<std::size_t>(w)];
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= tasks.size()) return;
                const TrialTask& task = tasks[i];
                std::string error;
                try {
                    run_traced_trial(task.job->scenario, task.params, *task.reference, acc,
                                     i % kTraceSampleEvery == 0);
                } catch (const std::exception& e) {
                    error = e.what();
                } catch (...) {
                    error = "non-standard exception";
                }
                if (!error.empty()) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    run.errors.push_back(task.job->scenario + ": traced trial threw: " + error);
                }
            }
        };
        const double cpu0 = process_cpu_s();
        std::vector<std::thread> pool;
        for (int w = 0; w < workers; ++w) pool.emplace_back(worker, w);
        for (std::thread& t : pool) t.join();
        LayerTotals pass;
        for (const LayerTotals& acc : per_worker) pass.merge(acc);
        // The encode replay is benchmark work outside the trials: keep it
        // out of the traced CPU that the overhead ratio compares.
        run.cpu_per_pass.push_back(process_cpu_s() - cpu0 - pass.encode);
        run.totals.merge(pass);
        // Spans cover the first pass, timers every pass: the trace stays a
        // few MB however many passes fit in the run.
        if (run.passes++ == 0) obs::install_trace(nullptr);
    } while (seconds_between(run_start, Clock::now()) < seconds);
    return run;
}

void set_traced_metrics(Outcome& out, const LayerTotals& t, int passes, double traced_cpu,
                        double untraced_cpu_us_per_query) {
    const double n = passes;
    std::vector<double> regen_us(t.regen_us.begin(), t.regen_us.end());
    out.set("attack.step_s", t.step / n);
    out.set("attack.batches", static_cast<double>(t.batches) / n);
    out.set("attack.probes", static_cast<double>(t.probes) / n);
    out.set("ecc.regen_s", t.regen / n);
    out.set("ecc.regen_calls", static_cast<double>(t.regen_calls) / n);
    out.set("ecc.regen_us_p50", quantile(regen_us, 0.50));
    out.set("ecc.regen_us_p99", quantile(regen_us, 0.99));
    out.set("helperdata.parse_s", t.parse / n);
    out.set("helperdata.check_s", t.check / n);
    out.set("helperdata.encode_s", t.encode / n);
    out.set("helperdata.blob_bytes", static_cast<double>(t.blob_bytes) / n);
    out.set("sim.measure_s", t.measure / n);
    out.set("sim.measurements", static_cast<double>(t.sim_measurements) / n);
    out.set("sim.meas_per_s",
            t.measure > 0.0 ? static_cast<double>(t.sim_measurements) / t.measure : 0.0);
    out.set("defense.self_s", (t.stack - t.victim) / n);
    out.set("defense.refused_frac",
            t.queries > 0 ? static_cast<double>(t.refused) / static_cast<double>(t.queries)
                          : 0.0);
    out.set("core.oracle_other_s", (t.victim - t.parse - t.check - t.measure - t.regen) / n);
    out.set("traced.other_s", t.other / n);
    const double traced_us_per_query =
        t.queries > 0 ? traced_cpu * 1e6 / (static_cast<double>(t.queries) / n) : 0.0;
    out.set("traced.overhead_frac", untraced_cpu_us_per_query > 0.0
                                        ? traced_us_per_query / untraced_cpu_us_per_query - 1.0
                                        : 0.0);
}

/// Manufactures and enrolls the chip of every task on this thread, `reps`
/// times over; returns the wall time.
double replay_enrollment(const std::vector<TrialTask>& tasks, int reps) {
    const auto t0 = Clock::now();
    for (int rep = 0; rep < reps; ++rep) {
        for (const TrialTask& task : tasks) enroll_trial(task.job->scenario, task.params);
    }
    return seconds_between(t0, Clock::now());
}

} // namespace

Outcome run_xp_workload(const Options& opts) {
    const Shape& shape = opts.workload == "paper_attacks" ? kPaperAttacks : kDefenseMatrix;
    Outcome out;
    const std::string results = opts.work_dir + "/results.jsonl";

    // The first set-up serves every pass: its registry, and its plan over
    // the run's master seeds. Measured passes keep their own records for
    // the xp.* metrics.
    const std::string text = spec_text(shape, pass_seeds(shape, opts.seed), opts.smoke);
    std::shared_ptr<Setup> setup;
    xp::Plan canonical_plan;
    std::vector<TrialTask> canonical_tasks;
    std::vector<Pass> passes;
    Workload workload;
    workload.set_up = [&]() -> std::shared_ptr<const void> {
        std::shared_ptr<Setup> made = set_up(text);
        if (!setup) setup = made;
        return made;
    };
    workload.canonical = [&] {
        canonical_plan = xp::plan_spec(xp::parse_spec(spec_text(shape, {shape.pin_seed}, opts.smoke)),
                                       setup->registry);
        canonical_tasks = trial_tasks(canonical_plan);
        return run_pass(setup->registry, canonical_plan, opts.workers, results).result;
    };
    workload.pass = [&] {
        Pass pass = run_pass(setup->registry, setup->plan, opts.workers, results);
        pass.result.enrolled = static_cast<long long>(canonical_tasks.size()) * shape.enroll_reps;
        pass.result.enroll_s = replay_enrollment(canonical_tasks, shape.enroll_reps);
        passes.push_back(pass);
        return pass.result;
    };
    const Measured measured = measure_passes(opts, workload, out);
    if (!opts.trace) return out;

    // ---- traced run, on the measured passes' plan
    const core::ScenarioRegistry& registry = setup->registry;
    const xp::Plan& plan = setup->plan;
    std::vector<std::vector<core::AttackReport>> reference;
    for (const xp::Job& job : plan.jobs) {
        core::CampaignConfig config;
        config.trials = job.trials;
        config.workers = opts.workers;
        config.master_seed = job.campaign_seed;
        config.base = job.params;
        config.keep_reports = true;
        reference.push_back(core::CampaignRunner(registry).run(job.scenario, config).reports);
    }
    std::vector<TrialTask> tasks = trial_tasks(plan);
    std::size_t next = 0;
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        for (const core::AttackReport& report : reference[j]) tasks[next++].reference = &report;
    }

    const std::string trace_path = opts.work_dir + "/trace.json";
    TracedRun traced;
    {
        obs::TraceSink sink(trace_path);
        obs::install_trace(&sink);
        sink.set_thread_name("e2ebench");
        traced = traced_passes(tasks, opts.workers, opts.seconds, measured.start);
        if (!sink.close()) out.fail("could not write " + trace_path);
    }
    const LayerTotals& totals = traced.totals;
    out.detail["trace"] = trace_path;
    out.detail["traced_passes"] = std::to_string(traced.passes);
    out.attempted += totals.trials;
    for (const std::string& e : traced.errors) out.fail(e);
    for (std::size_t i = 0; i < totals.parity_errors.size(); ++i) {
        if (i < 5) {
            out.fail("parity: " + totals.parity_errors[i]);
        } else {
            out.correct = false;
            ++out.failed;
        }
    }
    const auto expected_trials = static_cast<long long>(tasks.size()) * traced.passes;
    if (totals.trials != expected_trials) {
        out.fail("traced run finished " + std::to_string(totals.trials) + " of " +
                 std::to_string(expected_trials) + " trials");
    }
    // The layer self times partition the trial: step + stack (defense, victim
    // and everything below) + set-up/report. What they miss is loop glue.
    const double accounted = totals.step + totals.stack + totals.other;
    const double gap = (totals.trial_wall - accounted) / totals.trial_wall;
    out.detail["accounting_gap_frac"] = std::to_string(gap);
    if (std::abs(gap) > kAccountingTolerance) {
        out.fail("layer self times account for " + std::to_string(accounted) + " s of " +
                 std::to_string(totals.trial_wall) + " s traced trial wall (tolerance " +
                 std::to_string(kAccountingTolerance) + ")");
    }
    std::vector<double> untraced_cpu_us;
    for (const PassResult& p : measured.passes) untraced_cpu_us.push_back(cpu_us_per_query(p));
    set_traced_metrics(out, totals, traced.passes, median(traced.cpu_per_pass),
                       median(untraced_cpu_us));

    // xp layer, from the untraced passes' records and replays on them.
    double trial_wall = 0.0;
    double job_wall = 0.0;
    std::vector<double> gaps;
    for (const Pass& p : passes) {
        trial_wall += p.trial_wall_s;
        job_wall += p.job_wall_s;
        gaps.push_back(p.result.wall_s - p.job_wall_s);
    }
    out.set("xp.busy_frac", trial_wall / (opts.workers * job_wall));
    out.set("xp.gap_s", median(gaps));

    std::vector<double> read_s;
    std::vector<xp::JobRecord> records;
    for (int rep = 0; rep < kReadReps; ++rep) {
        const auto t0 = Clock::now();
        records = xp::read_results(results);
        read_s.push_back(seconds_between(t0, Clock::now()));
    }
    out.set("xp.read_s", median(read_s));
    std::vector<double> append_us;
    for (int rep = 0; rep < kAppendReps; ++rep) {
        xp::ResultWriter writer(opts.work_dir + "/append_replay.jsonl", /*truncate=*/true);
        for (const xp::JobRecord& rec : records) {
            const auto t0 = Clock::now();
            writer.append(rec);
            append_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        }
    }
    out.set("xp.append_us", median(append_us));

    set_absent(out, {"fleet.enroll_s", "fleet.store_mb_per_s", "fleet.map_open_s",
                     "fleet.campaign_s", "fleet.steals", "fleet.measure_s", "fleet.shard_ms_p50",
                     "fleet.shard_ms_p95"});
    return out;
}

} // namespace e2e

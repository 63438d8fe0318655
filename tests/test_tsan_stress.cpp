// ThreadSanitizer stress surface: every threaded seam the repo owns,
// deliberately overlapped so a ROPUF_SANITIZE=thread build gets real
// interleavings to bite on — concurrent campaign worker pools, the xp
// executor's plan-wide pool with several jobs' obs scopes live at once and
// its in-order record committer, cross-thread obs registry snapshots
// racing owner-thread slot updates, trace emission from many tracks racing
// close(), the progress heartbeat, the shared AttemptRunner's watchdog +
// zombie parking + reaper with a late-finishing abandoned attempt (xp
// jobs, and fleet shards on the pool), parallel fleet enrollment's
// in-order committer, and the SIGINT-style cooperative stop flag.
//
// The assertions are intentionally light: on a plain build this is a smoke
// test of orderly teardown; under TSan the pass/fail signal is the
// sanitizer report itself (ctest wires halt_on_error=1, so any race fails
// the test). Counts are sized to finish in seconds even at TSan's ~10x
// slowdown.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/core/sanitizer.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/progress.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

std::string temp_path(const char* stem) {
    return testing::TempDir() + stem + std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// RAII install/uninstall of the full obs stack, so every exit path of a
/// test restores the obs-off default before the sink/registry die (the
/// install contract: quiesce instrumented threads first — each test joins
/// everything before this goes out of scope).
struct ObsStack {
    obs::Registry registry;
    obs::TraceSink sink;

    explicit ObsStack(const std::string& trace_path, std::size_t max_events = 1 << 16)
        : sink(trace_path, max_events) {
        obs::install(&registry);
        obs::install_trace(&sink);
    }
    ~ObsStack() {
        obs::install_trace(nullptr);
        obs::install(nullptr);
    }
};

// A campaign small enough to loop but wide enough that the pool actually
// overlaps workers on a multi-core host.
core::CampaignConfig stress_campaign_config(int trials, int workers) {
    core::CampaignConfig config;
    config.trials = trials;
    config.workers = workers;
    config.master_seed = 17;
    config.keep_reports = false;
    return config;
}

// ---------------------------------------------------------------------------
// Campaign pool x snapshot x trace x progress, all live at once.
// ---------------------------------------------------------------------------

TEST(TsanStress, CampaignPoolVsSnapshotVsTraceVsProgress) {
    ObsStack obs_stack(temp_path("tsan_stress_trace") + ".json");
    obs::ProgressReporter::Config progress_config;
    progress_config.interval_s = 0.01; // hammer snapshot() from the heartbeat
    progress_config.ansi = false;
    std::FILE* devnull = std::fopen("/dev/null", "w");
    ASSERT_NE(devnull, nullptr);
    progress_config.out = devnull;
    obs::ProgressReporter progress(obs_stack.registry, progress_config);
    progress.start();

    const core::CampaignRunner runner(attack::default_registry());
    std::atomic<bool> done{false};

    // Reader side: merged snapshots + JSON rendering race the owner-thread
    // relaxed slot updates of every campaign worker.
    std::thread snapshotter([&] {
        std::size_t bytes = 0;
        while (!done.load(std::memory_order_acquire)) {
            const obs::Snapshot snap = obs_stack.registry.snapshot();
            bytes += snap.to_json().size();
        }
        EXPECT_GT(bytes, 0u);
    });

    // A second emitter thread keeps the trace mutex contended from a track
    // that is not a campaign worker.
    std::thread tracer([&] {
        while (!done.load(std::memory_order_acquire)) {
            const obs::Span span("tsan_stress_tick");
            if (obs::TraceSink* sink = obs::trace())
                sink->instant("tsan_stress_instant");
        }
    });

    const int rounds = ROPUF_TSAN_ENABLED ? 3 : 6;
    for (int round = 0; round < rounds; ++round) {
        const core::CampaignSummary summary =
            runner.run("seqpair/swap", stress_campaign_config(/*trials=*/8, /*workers=*/4));
        EXPECT_EQ(summary.trials, 8);
    }
    done.store(true, std::memory_order_release);
    snapshotter.join();
    tracer.join();
    progress.stop();
    std::fclose(devnull);

    const obs::Snapshot final_snap = obs_stack.registry.snapshot();
    EXPECT_GE(final_snap.counter_or("campaign.trials", 0.0), 8.0 * rounds);
    EXPECT_TRUE(obs_stack.sink.close());
}

// ---------------------------------------------------------------------------
// Thread churn: short-lived instrumented threads exercising the TLS shard /
// tid recycling destructors concurrently with snapshots and other births.
// ---------------------------------------------------------------------------

TEST(TsanStress, ShardAndTidRecyclingUnderThreadChurn) {
    ObsStack obs_stack(temp_path("tsan_churn_trace") + ".json");
    const int generations = ROPUF_TSAN_ENABLED ? 8 : 16;
    const int threads_per_generation = 6;

    std::atomic<bool> done{false};
    std::thread snapshotter([&] {
        while (!done.load(std::memory_order_acquire)) {
            (void)obs_stack.registry.snapshot();
        }
    });

    for (int g = 0; g < generations; ++g) {
        std::vector<std::thread> gen;
        gen.reserve(threads_per_generation);
        for (int i = 0; i < threads_per_generation; ++i) {
            gen.emplace_back([&] {
                for (int k = 0; k < 64; ++k) {
                    ROPUF_OBS_COUNT("tsan.churn", 1);
                    ROPUF_OBS_OBSERVE("tsan.churn_value", static_cast<double>(k));
                    const obs::Span span("churn");
                }
            });
        }
        for (auto& t : gen) t.join();
    }
    done.store(true, std::memory_order_release);
    snapshotter.join();

    // Recycling bound: shards track peak concurrency (+ the snapshotter's
    // branch-only reads which never acquire one), not total threads started.
    EXPECT_LE(obs_stack.registry.shard_count(),
              static_cast<std::size_t>(threads_per_generation + 2));
    const obs::Snapshot snap = obs_stack.registry.snapshot();
    EXPECT_EQ(snap.counter_or("tsan.churn", 0.0), 64.0 * generations * threads_per_generation);
}

// ---------------------------------------------------------------------------
// Executor watchdog + zombie parking + reaper, with obs/trace live: the
// injected hang trips the watchdog, the retry attempt runs CONCURRENTLY
// with the abandoned zombie (both full campaigns over the same shared
// runner/registry/sink), and the reaper joins the stragglers before
// execute_plan returns.
// ---------------------------------------------------------------------------

constexpr const char* kStressSpec =
    "name = tsan_stress\n"
    "scenarios = seqpair/swap, fuzzy/reference\n"
    "sigma_noise_mhz = 0.02, 0.05\n"
    "trials = 2\n"
    "master_seed = 3\n";

TEST(TsanStress, WatchdogZombieReaperVsRetryAttempt) {
    ObsStack obs_stack(temp_path("tsan_zombie_trace") + ".json");
    const xp::Plan plan = xp::plan_spec(xp::parse_spec(kStressSpec), attack::default_registry());

    // Every job hangs long past the watchdog on attempt 1, so every job's
    // attempt 2 overlaps its own still-running zombie. Both spans scale
    // with the sanitizer slowdown so an honest attempt always fits the
    // budget and the hang never does (hang >> timeout >> honest attempt).
    const double scale = core::sanitized_build() ? 10.0 : 1.0;
    char hang_plan[48];
    std::snprintf(hang_plan, sizeof hang_plan, "job_hang(ms=%d,times=1)",
                  static_cast<int>(300 * scale));
    fi::Injector injector(fi::parse_fault_plan(hang_plan));
    const std::string out = temp_path("tsan_zombie") + ".jsonl";
    xp::ResultWriter writer(out, /*truncate=*/true);
    xp::RunOptions options;
    options.workers = 2;
    options.retry.max_attempts = 3;
    options.retry.backoff_base_ms = 0.0;
    options.retry.job_timeout_ms = 30.0 * scale;
    options.injector = &injector;

    std::atomic<bool> done{false};
    std::thread snapshotter([&] {
        while (!done.load(std::memory_order_acquire)) {
            (void)obs_stack.registry.snapshot();
        }
    });

    const xp::RunStats stats =
        xp::execute_plan(plan, attack::default_registry(), {}, writer, options);
    done.store(true, std::memory_order_release);
    snapshotter.join();

    EXPECT_EQ(stats.executed, 4);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_GE(stats.retries, 4); // each job burned attempt 1 on the hang
}

// The fleet twin: the same watchdog / zombie / retry interleaving on the
// shared pool. Enrollment runs its shards on four pool workers, whose
// in-order committer appends while a snapshotter reads the counters they
// write; the store must equal a one-worker enrollment. Then several
// workers each abandon a hung shard attempt and retry it concurrently with
// their own zombie, all parking into one reaper, while the snapshotter
// reads the registry the attempts write.
TEST(TsanStress, FleetWatchdogZombiesVsRetriesOnThePool) {
    ObsStack obs_stack(temp_path("tsan_fleet_trace") + ".json");
    const fleet::Population population(fleet::parse_fleet_spec(
        "name = tsan_fleet\n"
        "devices = 256\n"
        "wafer_size = 128\n"
        "wafer_cols = 16\n"
        "geometry = 8x4\n"
        "key_bits = 8\n"
        "enroll_samples = 3\n"
        "majority_wins = 3\n"
        "trials = 2\n"
        "base_seed = 5\n"));
    const std::string store = temp_path("tsan_fleet") + ".fleet";
    const std::string store_w1 = temp_path("tsan_fleet_w1") + ".fleet";
    std::atomic<bool> done{false};
    std::thread snapshotter([&] {
        while (!done.load(std::memory_order_acquire)) {
            (void)obs_stack.registry.snapshot();
        }
    });
    for (const auto& [path, workers] : {std::pair{store_w1, 1}, std::pair{store, 4}}) {
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(population.spec()),
                                       /*truncate=*/true);
        fleet::enroll_population(population, writer, /*stop=*/nullptr, workers);
    }
    EXPECT_EQ(read_file(store), read_file(store_w1));
    // Every shard hangs past the watchdog on attempt 1 (hang >> timeout >>
    // an honest shard, scaled for the sanitizer slowdown).
    const double scale = core::sanitized_build() ? 10.0 : 1.0;
    char hang_plan[48];
    std::snprintf(hang_plan, sizeof hang_plan, "job_hang(ms=%d,times=1)",
                  static_cast<int>(300 * scale));
    fi::Injector injector(fi::parse_fault_plan(hang_plan));
    const std::string out = temp_path("tsan_fleet") + ".jsonl";

    fleet::FleetRunStats stats;
    {
        const fleet::EnrollmentMap enrollment(store);
        xp::ResultWriter writer(out, /*truncate=*/true);
        fleet::FleetCampaignOptions options;
        options.workers = 3;
        options.retry.backoff_base_ms = 0.0;
        options.retry.job_timeout_ms = 30.0 * scale;
        options.injector = &injector;
        stats = fleet::run_fleet_campaign(population, enrollment, writer, options);
    }
    done.store(true, std::memory_order_release);
    snapshotter.join();

    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, 4u); // each shard burned attempt 1 on the hang
    std::remove(store.c_str());
    std::remove(store_w1.c_str());
    std::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// SIGINT-style cooperative stop: the stop flag flips from another thread
// mid-run (the signal handler's exact store), racing dispatch's relaxed
// checks; a fault-free resume then completes the file.
// ---------------------------------------------------------------------------

TEST(TsanStress, CooperativeStopFlagMidRunThenResume) {
    const xp::Plan plan = xp::plan_spec(xp::parse_spec(kStressSpec), attack::default_registry());
    const std::string out = temp_path("tsan_stop") + ".jsonl";

    std::atomic<bool> stop{false};
    {
        fi::Injector injector(fi::parse_fault_plan("job_hang(ms=40,times=1)"));
        xp::ResultWriter writer(out, /*truncate=*/true);
        xp::RunOptions options;
        options.workers = 2;
        options.retry.backoff_base_ms = 0.0;
        options.injector = &injector; // the hang gives the stopper a window
        options.stop = &stop;

        std::thread stopper([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            stop.store(true, std::memory_order_relaxed); // as on_sigint() does
        });
        const xp::RunStats stats =
            xp::execute_plan(plan, attack::default_registry(), {}, writer, options);
        stopper.join();
        // Whether the flag landed between jobs or after the last one is
        // timing; either way nothing may be quarantined by a mere stop.
        EXPECT_EQ(stats.failed, 0);
        EXPECT_LE(stats.executed, stats.total);
    }

    const std::set<std::string> done_ids = xp::completed_job_ids(out, plan.hash);
    xp::ResultWriter writer(out, /*truncate=*/false);
    const xp::RunStats resumed =
        xp::execute_plan(plan, attack::default_registry(), done_ids, writer, {});
    EXPECT_EQ(static_cast<std::size_t>(resumed.skipped), done_ids.size());
    EXPECT_EQ(resumed.executed + resumed.skipped, resumed.total);
}

// ---------------------------------------------------------------------------
// The executor's plan-wide pool: several jobs' trials at once, each worker
// installing its job's obs scope, with the registry, the trace sink, the
// progress heartbeat and a snapshotter live. Job 1's attempt 1 hangs past
// the watchdog on trial 0 and is abandoned (its zombie keeps its job's
// scope alive); job 4's trial 0 sleeps within budget, holding the run open
// while the stop flag flips; the retry of job 1 sees the stop, so nothing
// from job 1 on is written. A resume on the same obs stack completes the
// file, and every record's side-key counts only its own job's trials.
// ---------------------------------------------------------------------------

TEST(TsanStress, ConcurrentJobsWithScopesTraceProgressWatchdogAndStop) {
    ObsStack obs_stack(temp_path("tsan_pool_trace") + ".json");
    obs::ProgressReporter::Config progress_config;
    progress_config.interval_s = 0.01;
    progress_config.ansi = false;
    std::FILE* devnull = std::fopen("/dev/null", "w");
    ASSERT_NE(devnull, nullptr);
    progress_config.out = devnull;
    obs::ProgressReporter progress(obs_stack.registry, progress_config);
    progress.start();
    std::atomic<bool> done{false};
    std::thread snapshotter([&] {
        while (!done.load(std::memory_order_acquire)) {
            (void)obs_stack.registry.snapshot();
        }
    });

    const xp::Plan plan = xp::plan_spec(xp::parse_spec("name = tsan_pool\n"
                                                       "scenarios = seqpair/swap, fuzzy/reference\n"
                                                       "trials = 1, 4, 8\n"
                                                       "master_seed = 9\n"),
                                        attack::default_registry());
    ASSERT_EQ(plan.jobs.size(), 6u);
    const std::string out = temp_path("tsan_pool") + ".jsonl";
    // hang >> timeout > in-budget sleep > stop delay >> an honest trial,
    // all scaled for the sanitizer slowdown.
    const double scale = core::sanitized_build() ? 10.0 : 1.0;
    char fault_plan[96];
    std::snprintf(fault_plan, sizeof fault_plan,
                  "job_hang(ids=1,ms=%d,times=1);job_hang(ids=4,ms=%d,times=1)",
                  static_cast<int>(600 * scale), static_cast<int>(150 * scale));
    std::atomic<bool> stop{false};
    {
        fi::Injector injector(fi::parse_fault_plan(fault_plan));
        xp::ResultWriter writer(out, /*truncate=*/true);
        xp::RunOptions options;
        options.workers = 4;
        options.retry.backoff_base_ms = 0.0;
        options.retry.job_timeout_ms = 200.0 * scale;
        options.injector = &injector;
        options.stop = &stop;
        std::thread stopper([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(static_cast<int>(50 * scale)));
            stop.store(true, std::memory_order_relaxed); // as on_sigint() does
        });
        const xp::RunStats stats =
            xp::execute_plan(plan, attack::default_registry(), {}, writer, options);
        stopper.join();
        EXPECT_TRUE(stats.stopped);
        EXPECT_EQ(stats.failed, 0);
        EXPECT_LE(stats.executed, 1); // job 1 blocks every later record
    }
    const std::vector<xp::JobRecord> partial = xp::read_results(out);
    for (std::size_t i = 0; i < partial.size(); ++i) {
        EXPECT_EQ(partial[i].index, static_cast<int>(i)); // a plan-order prefix
    }

    const std::set<std::string> done_ids = xp::completed_job_ids(out, plan.hash);
    {
        xp::ResultWriter writer(out, /*truncate=*/false);
        xp::RunOptions options;
        options.workers = 4;
        const xp::RunStats resumed =
            xp::execute_plan(plan, attack::default_registry(), done_ids, writer, options);
        EXPECT_TRUE(resumed.complete());
    }
    done.store(true, std::memory_order_release);
    snapshotter.join();
    progress.stop();
    std::fclose(devnull);

    const std::vector<xp::JobRecord> records = xp::read_results(out);
    ASSERT_EQ(records.size(), 6u);
    for (const xp::JobRecord& record : records) {
        ASSERT_TRUE(record.obs.present);
        EXPECT_DOUBLE_EQ(record.obs.counters.at("campaign.trials"), record.trials);
    }
    std::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// Trace close() racing live emitters: close is allowed while other threads
// emit — late begin/end/instant land as no-ops, and the written file stays
// balanced. (The CLI guarantees orderly teardown; this pins the harder
// contract so a future caller that doesn't is still race-free.)
// ---------------------------------------------------------------------------

TEST(TsanStress, TraceCloseRacesLiveEmitters) {
    const int rounds = ROPUF_TSAN_ENABLED ? 4 : 8;
    for (int round = 0; round < rounds; ++round) {
        obs::TraceSink sink(temp_path("tsan_close_trace") + ".json", 1 << 12);
        obs::install_trace(&sink);
        std::atomic<bool> done{false};
        std::vector<std::thread> emitters;
        for (int i = 0; i < 4; ++i) {
            emitters.emplace_back([&] {
                while (!done.load(std::memory_order_acquire)) {
                    const obs::Span span("close_race");
                    if (obs::TraceSink* s = obs::trace()) s->instant("tick");
                }
            });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_TRUE(sink.close());
        done.store(true, std::memory_order_release);
        for (auto& t : emitters) t.join();
        obs::install_trace(nullptr);
    }
}

} // namespace

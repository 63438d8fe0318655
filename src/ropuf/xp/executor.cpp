#include "ropuf/xp/executor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ropuf/core/campaign.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/simd/simd.hpp"

namespace ropuf::xp {

namespace {

/// Deterministic exponential backoff before retry `completed_attempts + 1`:
/// base * 2^(attempts-1) ms, capped at one second. Wall-clock only — it
/// never feeds any RNG, so records stay bit-identical across retry counts.
void backoff_sleep(double base_ms, int completed_attempts) {
    if (base_ms <= 0.0) return;
    const int shift = std::min(completed_attempts - 1, 10);
    const double ms = std::min(1000.0, base_ms * static_cast<double>(1 << shift));
    ROPUF_OBS_COUNT("xp.backoff_ms", ms);
    const obs::Span backoff_span("backoff");
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

bool stop_requested(const RunOptions& options) {
    return options.stop != nullptr && options.stop->load(std::memory_order_relaxed);
}

struct AttemptResult {
    bool ok = false;
    core::CampaignSummary summary;
    core::JobError error;
};

/// Runs one attempt of one job on the calling thread and classifies any
/// exception it throws.
AttemptResult attempt_job(const core::CampaignRunner& runner, const std::string& scenario,
                          const core::CampaignConfig& config, fi::Injector* injector,
                          int job_index) {
    AttemptResult result;
    try {
        if (injector != nullptr) {
            // The per-job seam: job_throw fires here; job_hang sleeps
            // here, squarely under the watchdog when one is armed.
            const int hang_ms = injector->job_fault(job_index, config.fi_attempt);
            if (hang_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(hang_ms));
        }
        result.summary = runner.run(scenario, config);
        result.ok = true;
    } catch (const fi::InjectedFault& e) {
        result.error = {core::JobErrorClass::injected_fault, e.what()};
    } catch (const std::exception& e) {
        result.error = {core::JobErrorClass::scenario_exception, e.what()};
    } catch (...) {
        result.error = {core::JobErrorClass::unknown, "non-standard exception escaped the job"};
    }
    return result;
}

/// Runs one attempt of one job. Without a watchdog it runs inline; with one
/// it runs on its own thread so the watchdog can abandon it. A timed-out
/// thread is parked in `zombies` (joined before execute_plan returns — the
/// injected job_hang is finite, and a genuinely wedged job then blocks exit
/// instead of corrupting state); its late result lands in shared state
/// nobody reads.
AttemptResult run_attempt(const core::CampaignRunner& runner, const Job& job,
                          const core::CampaignConfig& config, const RunOptions& options,
                          std::vector<std::thread>& zombies) {
    if (options.job_timeout_ms <= 0.0) {
        return attempt_job(runner, job.scenario, config, options.injector, job.index);
    }
    struct Shared {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        AttemptResult result;
    };
    auto shared = std::make_shared<Shared>();
    std::thread worker([shared, &runner, scenario = job.scenario, config,
                        injector = options.injector, job_index = job.index] {
        AttemptResult result = attempt_job(runner, scenario, config, injector, job_index);
        const std::lock_guard<std::mutex> lock(shared->mutex);
        shared->result = std::move(result);
        shared->done = true;
        shared->cv.notify_all();
    });

    std::unique_lock<std::mutex> lock(shared->mutex);
    const bool done =
        shared->cv.wait_for(lock,
                            std::chrono::duration<double, std::milli>(options.job_timeout_ms),
                            [&] { return shared->done; });
    if (done) {
        lock.unlock();
        worker.join();
        return std::move(shared->result);
    }
    lock.unlock();
    zombies.push_back(std::move(worker));
    AttemptResult timed_out;
    timed_out.error = {core::JobErrorClass::timeout,
                       "attempt " + std::to_string(config.fi_attempt) + " exceeded the " +
                           std::to_string(options.job_timeout_ms) + " ms watchdog"};
    return timed_out;
}

/// Appends with the same bounded-retry policy as job execution. The writer
/// newline-terminates any torn tail between attempts, so a retried record
/// never merges into the failed fragment. A store that keeps failing after
/// the retry budget is fatal — nothing durable can come of the run.
void append_with_retry(ResultWriter& writer, const JobRecord& record,
                       const RunOptions& options, RunStats& stats) {
    const int max_attempts = std::max(1, options.max_attempts);
    for (int attempt = 1;; ++attempt) {
        try {
            writer.append(record);
            return;
        } catch (const std::exception& e) {
            if (obs::TraceSink* sink = obs::trace()) {
                std::string args = "{\"what\":\"";
                obs::append_trace_escaped(args, e.what());
                args += "\"}";
                sink->instant(dynamic_cast<const fi::InjectedFault*>(&e) != nullptr
                                  ? "fi:store_fault"
                                  : "store_error",
                              std::move(args));
            }
            if (attempt >= max_attempts) throw;
            ++stats.store_retries;
            ROPUF_OBS_COUNT("xp.store_append_retries", 1);
            backoff_sleep(options.backoff_base_ms, attempt);
        }
    }
}

} // namespace

RunStats execute_plan(const Plan& plan, const core::ScenarioRegistry& registry,
                      const std::set<std::string>& skip, ResultWriter& writer,
                      const RunOptions& options) {
    const core::CampaignRunner runner(registry);
    RunStats stats;
    stats.total = static_cast<int>(plan.jobs.size());
    const int max_attempts = std::max(1, options.max_attempts);

    obs::Registry* const reg = obs::registry();
    if (reg != nullptr) {
        int will_skip = 0;
        for (const Job& job : plan.jobs) {
            if (skip.count(job.id) != 0) ++will_skip;
        }
        reg->set(reg->gauge("xp.jobs_total"), static_cast<double>(stats.total));
        // Skipped-completed jobs finish "for free" at dispatch: count them
        // into xp.jobs_done so progress accounting is uniform (every
        // finished job increments jobs_done exactly once), and into
        // xp.jobs_skipped so rate consumers can exclude the resume burst
        // from throughput — the ProgressReporter subtracts it from its EMA
        // basis, else a resumed run's first heartbeat reads the skip burst
        // as executed work and the ETA collapses to near zero.
        reg->add(reg->counter("xp.jobs_done"), static_cast<double>(will_skip));
        reg->add(reg->counter("xp.jobs_skipped"), static_cast<double>(will_skip));
        // One 0/1 gauge per dispatch path keeps path identity greppable in
        // snapshots without a string-valued metric type.
        reg->set(reg->gauge("simd.path." +
                            std::string(simd::path_name(simd::active_path()))),
                 1.0);
    }
    if (obs::TraceSink* sink = obs::trace()) sink->set_thread_name("executor");

    // Timed-out attempt threads; joined (reverse declaration order) before
    // `runner` dies, so a late-finishing attempt never touches a dead runner.
    std::vector<std::thread> zombies;
    struct Reaper {
        std::vector<std::thread>& threads;
        ~Reaper() {
            for (std::thread& t : threads) {
                if (t.joinable()) t.join();
            }
        }
    } reaper{zombies};

    for (const Job& job : plan.jobs) {
        if (skip.count(job.id) != 0) {
            ++stats.skipped;
            continue;
        }
        if (options.max_jobs >= 0 && stats.executed >= options.max_jobs) break;
        if (stop_requested(options)) {
            stats.stopped = true;
            break;
        }
        if (options.injector != nullptr &&
            options.injector->abort_due(stats.executed + stats.failed)) {
            stats.aborted = true; // crash-equivalent early exit: resume completes it
            break;
        }

        core::CampaignConfig config;
        config.trials = job.trials;
        config.workers = options.workers;
        config.master_seed = job.campaign_seed;
        config.base = job.params;
        config.keep_reports = false; // records carry aggregates, not trials
        config.injector = options.injector;
        config.fi_job_index = job.index;

        std::string job_args;
        if (obs::trace() != nullptr) {
            job_args = "{\"job\":\"";
            obs::append_trace_escaped(job_args, job.id);
            job_args += "\",\"scenario\":\"";
            obs::append_trace_escaped(job_args, job.scenario);
            job_args += "\",\"trials\":" + std::to_string(job.trials) + "}";
        }
        const obs::Span job_span("job", std::move(job_args));
        obs::Snapshot obs_before;
        if (reg != nullptr) obs_before = reg->snapshot();

        bool ok = false;
        bool stopped_mid_job = false;
        int attempts_used = 0;
        core::CampaignSummary summary;
        core::JobError last_error;
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
            attempts_used = attempt;
            config.fi_attempt = attempt;
            AttemptResult result;
            {
                std::string attempt_args;
                if (obs::trace() != nullptr) {
                    attempt_args = "{\"attempt\":" + std::to_string(attempt) + "}";
                }
                const obs::Span attempt_span("attempt", std::move(attempt_args));
                result = run_attempt(runner, job, config, options, zombies);
            }
            if (result.ok) {
                summary = std::move(result.summary);
                ok = true;
                break;
            }
            last_error = std::move(result.error);
            if (last_error.cls == core::JobErrorClass::timeout) {
                ROPUF_OBS_COUNT("xp.watchdog_timeouts", 1);
                if (obs::TraceSink* sink = obs::trace()) {
                    std::string args = "{\"what\":\"";
                    obs::append_trace_escaped(args, last_error.message);
                    args += "\"}";
                    sink->instant("watchdog_timeout", std::move(args));
                }
            } else if (last_error.cls == core::JobErrorClass::injected_fault) {
                ROPUF_OBS_COUNT("fi.injected_faults", 1);
                if (obs::TraceSink* sink = obs::trace()) {
                    std::string args = "{\"what\":\"";
                    obs::append_trace_escaped(args, last_error.message);
                    args += "\"}";
                    sink->instant("fi:injected_fault", std::move(args));
                }
            }
            if (attempt < max_attempts) {
                ++stats.retries;
                ROPUF_OBS_COUNT("xp.retries", 1);
                backoff_sleep(options.backoff_base_ms, attempt);
                if (stop_requested(options)) {
                    stopped_mid_job = true;
                    break;
                }
            }
        }
        if (!ok && stopped_mid_job) {
            // Interrupted between retries: write nothing — resume retries
            // the job from attempt one.
            stats.stopped = true;
            break;
        }

        JobRecord record = ok ? make_record(plan, job, summary)
                              : make_failed_record(plan, job, last_error, attempts_used);
        record.attempts = attempts_used;
        if (reg != nullptr) {
            // This job's slice of the metrics: everything the attempts (and
            // their campaign workers) recorded since the pre-job snapshot.
            const obs::Snapshot delta = obs::diff(reg->snapshot(), obs_before);
            record.obs.present = true;
            for (const auto& c : delta.counters) {
                if (c.value != 0.0) record.obs.counters[c.name] = c.value;
            }
            for (const auto& h : delta.hists) {
                if (h.count == 0) continue;
                record.obs.hists[h.name] =
                    ObsHistSummary{h.count,          h.mean(),
                                   h.quantile(0.50), h.quantile(0.95),
                                   h.quantile(0.99), h.max};
            }
        }
        append_with_retry(writer, record, options, stats);
        if (ok) {
            ++stats.executed;
            ROPUF_OBS_COUNT("xp.jobs_done", 1);
            ROPUF_OBS_OBSERVE("xp.job_wall_ms", summary.wall_ms);
        } else {
            ++stats.failed;
            ROPUF_OBS_COUNT("xp.jobs_quarantined", 1);
            if (obs::TraceSink* sink = obs::trace()) {
                std::string args = "{\"class\":\"";
                obs::append_trace_escaped(
                    args, core::job_error_class_name(last_error.cls));
                args += "\",\"what\":\"";
                obs::append_trace_escaped(args, last_error.message);
                args += "\"}";
                sink->instant("quarantined", std::move(args));
            }
        }

        if (options.progress != nullptr) {
            if (ok) {
                char retry_note[32] = "";
                if (attempts_used > 1) {
                    std::snprintf(retry_note, sizeof retry_note, " [attempt %d]",
                                  attempts_used);
                }
                std::fprintf(options.progress,
                             "[%d/%d] %s %-24s trials=%-4d success=%.3f queries=%.1f "
                             "(%.0f ms)%s\n",
                             job.index + 1, stats.total, job.id.c_str(), job.scenario.c_str(),
                             job.trials, summary.success_rate, summary.queries.mean,
                             summary.wall_ms, retry_note);
            } else {
                std::fprintf(options.progress, "[%d/%d] %s %-24s QUARANTINED %s: %s (%d attempts)\n",
                             job.index + 1, stats.total, job.id.c_str(), job.scenario.c_str(),
                             std::string(core::job_error_class_name(last_error.cls)).c_str(),
                             last_error.message.c_str(), attempts_used);
            }
            std::fflush(options.progress);
        }
    }
    return stats;
}

namespace {

std::atomic<bool> g_sigint_stop{false};

void on_sigint(int) {
    // Async-signal-safe: one lock-free store. Restoring the default action
    // means a second ^C kills a run wedged inside a job.
    g_sigint_stop.store(true, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
}

} // namespace

std::atomic<bool>& sigint_stop_flag() { return g_sigint_stop; }

void install_sigint_handler() { std::signal(SIGINT, on_sigint); }

} // namespace ropuf::xp

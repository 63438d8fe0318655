#include "ropuf/xp/executor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>

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

bool stop_requested(const std::atomic<bool>* stop) {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
}

void trace_instant(const char* name, const core::JobError& error, bool with_class = false) {
    obs::TraceSink* sink = obs::trace();
    if (sink == nullptr) return;
    obs::JsonWriter args;
    args.begin_object();
    if (with_class) args.key("class").str(core::job_error_class_name(error.cls));
    args.key("what").str(error.message).end_object();
    sink->instant(name, args.release());
}

} // namespace

AttemptRunner::AttemptRunner(const RetryPolicy& policy, fi::Injector* injector,
                             const std::atomic<bool>* stop)
    : policy_(policy), injector_(injector), stop_(stop) {
    policy_.max_attempts = std::max(1, policy_.max_attempts);
}

AttemptRunner::~AttemptRunner() {
    for (std::thread& t : zombies_) {
        if (t.joinable()) t.join();
    }
}

std::optional<core::JobError> AttemptRunner::attempt_once(int job_index, int attempt,
                                                          std::function<void()> work) {
    auto guarded = [injector = injector_, job_index, attempt,
                    work = std::move(work)]() -> std::optional<core::JobError> {
        try {
            if (injector != nullptr) {
                // The per-job seam: job_throw fires here; job_hang sleeps
                // here, squarely under the watchdog when one is armed.
                const int hang_ms = injector->job_fault(job_index, attempt);
                if (hang_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(hang_ms));
            }
            work();
            return std::nullopt;
        } catch (const fi::InjectedFault& e) {
            return core::JobError{core::JobErrorClass::injected_fault, e.what()};
        } catch (const std::exception& e) {
            return core::JobError{core::JobErrorClass::scenario_exception, e.what()};
        } catch (...) {
            return core::JobError{core::JobErrorClass::unknown,
                                  "non-standard exception escaped the job"};
        }
    };
    if (policy_.job_timeout_ms <= 0.0) return guarded();

    // Watchdogged: the attempt runs on its own thread so it can be
    // abandoned. A timed-out thread is parked in zombies_; its late verdict
    // lands in shared state nobody reads.
    struct Shared {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        std::optional<core::JobError> error;
    };
    auto shared = std::make_shared<Shared>();
    std::thread thread([shared, guarded = std::move(guarded)] {
        std::optional<core::JobError> error = guarded();
        const std::lock_guard<std::mutex> lock(shared->mutex);
        shared->error = std::move(error);
        shared->done = true;
        shared->cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(shared->mutex);
    if (shared->cv.wait_for(lock,
                            std::chrono::duration<double, std::milli>(policy_.job_timeout_ms),
                            [&] { return shared->done; })) {
        lock.unlock();
        thread.join();
        return std::move(shared->error);
    }
    lock.unlock();
    {
        const std::lock_guard<std::mutex> zombie_lock(zombie_mutex_);
        zombies_.push_back(std::move(thread));
    }
    return core::JobError{core::JobErrorClass::timeout,
                          "attempt " + std::to_string(attempt) + " exceeded the " +
                              std::to_string(policy_.job_timeout_ms) + " ms watchdog"};
}

Attempts AttemptRunner::run_attempts(
    int job_index, const std::function<std::function<void()>(int)>& make_attempt) {
    Attempts out;
    for (int attempt = 1;; ++attempt) {
        out.count = attempt;
        std::optional<core::JobError> error;
        {
            obs::JsonWriter args;
            if (obs::trace() != nullptr)
                args.begin_object().key("attempt").integer(attempt).end_object();
            const obs::Span attempt_span("attempt", args.release());
            error = attempt_once(job_index, attempt, make_attempt(attempt));
        }
        if (!error) {
            out.ok = true;
            return out;
        }
        out.error = std::move(*error);
        if (out.error.cls == core::JobErrorClass::timeout) {
            ROPUF_OBS_COUNT("xp.watchdog_timeouts", 1);
            trace_instant("watchdog_timeout", out.error);
        } else if (out.error.cls == core::JobErrorClass::injected_fault) {
            ROPUF_OBS_COUNT("fi.injected_faults", 1);
            trace_instant("fi:injected_fault", out.error);
        }
        if (attempt >= policy_.max_attempts) break;
        backoff_sleep(policy_.backoff_base_ms, attempt);
        if (stop_requested(stop_)) {
            // Interrupted between retries: the caller writes nothing, and
            // resume retries the job from attempt one.
            out.stopped = true;
            return out;
        }
        ROPUF_OBS_COUNT("xp.retries", 1);
    }
    ROPUF_OBS_COUNT("xp.jobs_quarantined", 1);
    trace_instant("quarantined", out.error, /*with_class=*/true);
    return out;
}

int append_with_retry(ResultWriter& writer, const std::string& line, const RetryPolicy& policy) {
    for (int attempt = 1;; ++attempt) {
        try {
            writer.append_line(line);
            return attempt - 1;
        } catch (const std::exception& e) {
            if (obs::TraceSink* sink = obs::trace()) {
                obs::JsonWriter args;
                args.begin_object().key("what").str(e.what()).end_object();
                sink->instant(dynamic_cast<const fi::InjectedFault*>(&e) != nullptr
                                  ? "fi:store_fault"
                                  : "store_error",
                              args.release());
            }
            if (attempt >= policy.max_attempts) throw;
            ROPUF_OBS_COUNT("xp.store_append_retries", 1);
            backoff_sleep(policy.backoff_base_ms, attempt);
        }
    }
}

RunStats execute_plan(const Plan& plan, const core::ScenarioRegistry& registry,
                      const std::set<std::string>& skip, ResultWriter& writer,
                      const RunOptions& options) {
    const core::CampaignRunner runner(registry);
    RunStats stats;
    stats.total = static_cast<int>(plan.jobs.size());

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

    // Declared after `runner`, so abandoned attempts are joined before the
    // runner they reference dies.
    AttemptRunner attempts(options.retry, options.injector, options.stop);

    for (const Job& job : plan.jobs) {
        if (skip.count(job.id) != 0) {
            ++stats.skipped;
            continue;
        }
        if (options.max_jobs >= 0 && stats.executed >= options.max_jobs) break;
        if (stop_requested(options.stop)) {
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

        obs::JsonWriter job_args;
        if (obs::trace() != nullptr) {
            job_args.begin_object().key("job").str(job.id).key("scenario").str(job.scenario);
            job_args.key("trials").integer(job.trials).end_object();
        }
        const obs::Span job_span("job", job_args.release());
        obs::Snapshot obs_before;
        if (reg != nullptr) obs_before = reg->snapshot();

        const Retried<core::CampaignSummary> result =
            attempts.run(job.index, [&runner, scenario = job.scenario, config](int attempt) {
                core::CampaignConfig attempt_config = config;
                attempt_config.fi_attempt = attempt;
                return runner.run(scenario, attempt_config);
            });
        if (result.stopped) {
            stats.stopped = true;
            break;
        }
        stats.retries += result.count - 1;

        JobRecord record = result.ok ? make_record(plan, job, result.value)
                                     : make_failed_record(plan, job, result.error, result.count);
        record.attempts = result.count;
        if (reg != nullptr) {
            // This job's slice of the metrics: everything the attempts (and
            // their campaign workers) recorded since the pre-job snapshot.
            const obs::Snapshot delta = obs::diff(reg->snapshot(), obs_before);
            record.obs.present = true;
            for (const auto& c : delta.counters) {
                if (c.value != 0.0) record.obs.counters[c.name] = c.value;
            }
            for (const auto& h : delta.hists) {
                if (h.count != 0) record.obs.hists[h.name] = h.summary();
            }
        }
        stats.store_retries += append_with_retry(writer, to_jsonl(record), options.retry);
        if (result.ok) {
            ++stats.executed;
            ROPUF_OBS_COUNT("xp.jobs_done", 1);
            ROPUF_OBS_OBSERVE("xp.job_wall_ms", result.value.wall_ms);
        } else {
            ++stats.failed;
        }

        if (options.progress != nullptr) {
            if (result.ok) {
                char retry_note[32] = "";
                if (result.count > 1) {
                    std::snprintf(retry_note, sizeof retry_note, " [attempt %d]", result.count);
                }
                std::fprintf(options.progress,
                             "[%d/%d] %s %-24s trials=%-4d success=%.3f queries=%.1f "
                             "(%.0f ms)%s\n",
                             job.index + 1, stats.total, job.id.c_str(), job.scenario.c_str(),
                             job.trials, result.value.success_rate, result.value.queries.mean,
                             result.value.wall_ms, retry_note);
            } else {
                std::fprintf(options.progress, "[%d/%d] %s %-24s QUARANTINED %s: %s (%d attempts)\n",
                             job.index + 1, stats.total, job.id.c_str(), job.scenario.c_str(),
                             std::string(core::job_error_class_name(result.error.cls)).c_str(),
                             result.error.message.c_str(), result.count);
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

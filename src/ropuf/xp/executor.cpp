#include "ropuf/xp/executor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <map>
#include <memory>
#include <utility>

#include "ropuf/core/campaign.hpp"
#include "ropuf/core/parallel.hpp"
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

std::optional<core::JobError> AttemptRunner::run_once(
    int job_index, int attempt, bool job_seam, std::chrono::steady_clock::time_point started,
    std::function<void()> work) {
    obs::JsonWriter args;
    if (obs::trace() != nullptr) args.begin_object().key("attempt").integer(attempt).end_object();
    const obs::Span attempt_span("attempt", args.release());
    auto guarded = [injector = job_seam ? injector_ : nullptr, job_index, attempt,
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

    const core::JobError timeout{core::JobErrorClass::timeout,
                                 "attempt " + std::to_string(attempt) + " exceeded the " +
                                     std::to_string(policy_.job_timeout_ms) + " ms watchdog"};
    const double budget_ms =
        policy_.job_timeout_ms -
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
            .count();
    if (budget_ms <= 0.0) return timeout;

    // Watchdogged: the attempt runs on its own thread, in its caller's obs
    // scope, so it can be abandoned. A timed-out thread is parked in
    // zombies_; its late verdict lands in shared state nobody reads.
    struct Shared {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        std::optional<core::JobError> error;
    };
    auto shared = std::make_shared<Shared>();
    std::thread thread([shared, guarded = std::move(guarded), scope = obs::current_scope()] {
        const obs::ScopeGuard in_scope(scope);
        std::optional<core::JobError> error = guarded();
        const std::lock_guard<std::mutex> lock(shared->mutex);
        shared->error = std::move(error);
        shared->done = true;
        shared->cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(shared->mutex);
    if (shared->cv.wait_for(lock, std::chrono::duration<double, std::milli>(budget_ms),
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
    return timeout;
}

AttemptRunner::Next AttemptRunner::after_failure(int attempt, const core::JobError& error) {
    if (error.cls == core::JobErrorClass::timeout) {
        ROPUF_OBS_COUNT("xp.watchdog_timeouts", 1);
        trace_instant("watchdog_timeout", error);
    } else if (error.cls == core::JobErrorClass::injected_fault) {
        ROPUF_OBS_COUNT("fi.injected_faults", 1);
        trace_instant("fi:injected_fault", error);
    }
    if (attempt >= policy_.max_attempts) {
        ROPUF_OBS_COUNT("xp.jobs_quarantined", 1);
        trace_instant("quarantined", error, /*with_class=*/true);
        return Next::quarantine;
    }
    backoff_sleep(policy_.backoff_base_ms, attempt);
    if (stop_requested(stop_)) return Next::stop;
    ROPUF_OBS_COUNT("xp.retries", 1);
    return Next::retry;
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

namespace {

using Clock = std::chrono::steady_clock;

/// One dispatched job while its current attempt's trials run.
struct JobRun {
    const Job* job = nullptr;
    int attempt = 1;
    /// The current attempt's campaign, shared with its trials: an abandoned
    /// trial keeps its own attempt's config alive.
    std::shared_ptr<const core::CampaignConfig> config;
    std::once_flag started;      ///< the job's first trial to start sets up:
    Clock::time_point t0{};      ///<   when that was (the watchdog budget's start),
    std::vector<std::uint64_t> seeds;        ///<   the trial seeds,
    std::vector<core::AttackReport> reports; ///<   the report slots (trial order)
    std::shared_ptr<obs::Scope> scope;       ///<   and the job's obs slice (obs on)
    std::atomic<int> unretired{0};   ///< attempt 1's trials not yet retired; the last finishes
    std::atomic<bool> failed{false}; ///< the attempt failed: its other trials skip
    std::atomic<bool> cut{false};    ///< a trial never ran (stop flag, closed committer)
    std::mutex error_mutex;
    core::JobError error; ///< the attempt's first failure, guarded by error_mutex
};

/// What the worker that retires a job hands the committer.
struct Finished {
    bool stopped = false; ///< cut short: no record, and nothing after it either
    const Job* job = nullptr;
    int attempts = 0;
    std::optional<core::CampaignSummary> summary; ///< the successful attempt's (none: quarantined)
    core::JobError error;                         ///< the last failure, when quarantined
    std::string line;                             ///< the record
};

/// The `job` span's args: the job and the trial the span covers.
std::string job_span_args(const Job& job, int trial) {
    if (obs::trace() == nullptr) return {};
    obs::JsonWriter args;
    args.begin_object().key("job").str(job.id).key("scenario").str(job.scenario);
    args.key("trial").integer(trial).key("trials").integer(job.trials).end_object();
    return args.release();
}

void print_progress(std::FILE* out, const Job& job, int total, const Finished& done) {
    if (const auto& s = done.summary) {
        char retry_note[32] = "";
        if (done.attempts > 1)
            std::snprintf(retry_note, sizeof retry_note, " [attempt %d]", done.attempts);
        std::fprintf(out, "[%d/%d] %s %-24s trials=%-4d success=%.3f queries=%.1f (%.0f ms)%s\n",
                     job.index + 1, total, job.id.c_str(), job.scenario.c_str(), job.trials,
                     s->success_rate, s->queries.mean, s->wall_ms, retry_note);
    } else {
        std::fprintf(out, "[%d/%d] %s %-24s QUARANTINED %s: %s (%d attempts)\n", job.index + 1,
                     total, job.id.c_str(), job.scenario.c_str(),
                     std::string(core::job_error_class_name(done.error.cls)).c_str(),
                     done.error.message.c_str(), done.attempts);
    }
    std::fflush(out);
}

/// Appends finished jobs' records in plan order, whatever order their last
/// trials retire in — the reorder discipline of fleet's shard Committer.
/// Before each record it applies the gates a serial loop would apply before
/// each job: the max_jobs quota, the stop flag and an injected
/// worker_abort. The first gate that holds, or a job cut short, closes the
/// committer: nothing after it is written, so the file always holds a
/// plan-order prefix of the dispatch list, and closed() tells the pool to
/// start no more trials.
class Committer {
public:
    Committer(ResultWriter& writer, const RunOptions& options, std::size_t jobs,
              RunStats& stats)
        : writer_(writer), options_(options), jobs_(jobs), stats_(stats) {
        if (jobs_ > 0) gate();
    }

    bool closed() const { return closed_.load(std::memory_order_relaxed); }

    /// Commits slot `slot` of the dispatch list.
    void commit(std::size_t slot, Finished done) {
        const std::lock_guard<std::mutex> lock(mutex_);
        pending_.emplace(slot, std::move(done));
        while (!pending_.empty() && pending_.begin()->first == next_) {
            const Finished ready = std::move(pending_.begin()->second);
            pending_.erase(pending_.begin());
            ++next_;
            if (!closed()) write(ready);
        }
    }

private:
    void close() { closed_.store(true, std::memory_order_relaxed); }

    /// The checks made before dispatching the next job.
    void gate() {
        if (options_.max_jobs >= 0 && stats_.executed >= options_.max_jobs) {
            close();
        } else if (stop_requested(options_.stop)) {
            stats_.stopped = true;
            close();
        } else if (options_.injector != nullptr &&
                   options_.injector->abort_due(stats_.executed + stats_.failed)) {
            stats_.aborted = true; // crash-equivalent early exit: resume completes it
            close();
        }
    }

    void write(const Finished& done) {
        if (done.stopped || stop_requested(options_.stop)) {
            stats_.stopped = true;
            close();
            return;
        }
        try {
            stats_.store_retries += append_with_retry(writer_, done.line, options_.retry);
        } catch (...) {
            close(); // a dead store: the run is over, the pool drains
            throw;
        }
        stats_.retries += done.attempts - 1;
        if (done.summary) {
            ++stats_.executed;
            ROPUF_OBS_COUNT("xp.jobs_done", 1);
            ROPUF_OBS_OBSERVE("xp.job_wall_ms", done.summary->wall_ms);
        } else {
            ++stats_.failed;
        }
        if (options_.progress != nullptr) {
            print_progress(options_.progress, *done.job, stats_.total, done);
        }
        if (next_ < jobs_) gate();
    }

    ResultWriter& writer_;
    const RunOptions& options_;
    const std::size_t jobs_;
    RunStats& stats_; ///< guarded by mutex_ while the pool runs
    std::atomic<bool> closed_{false};
    std::mutex mutex_;
    std::map<std::size_t, Finished> pending_;
    std::size_t next_ = 0;
};

} // namespace

RunStats execute_plan(const Plan& plan, const core::ScenarioRegistry& registry,
                      const std::set<std::string>& skip, ResultWriter& writer,
                      const RunOptions& options) {
    RunStats stats;
    stats.total = static_cast<int>(plan.jobs.size());

    // The dispatch list, in plan order, and its (job, trial) items.
    std::vector<const Job*> dispatch;
    for (const Job& job : plan.jobs) {
        if (skip.count(job.id) == 0) dispatch.push_back(&job);
    }
    stats.skipped = stats.total - static_cast<int>(dispatch.size());

    obs::Registry* const reg = obs::registry();
    if (reg != nullptr) {
        reg->set(reg->gauge("xp.jobs_total"), static_cast<double>(stats.total));
        // Skipped-completed jobs finish "for free" at dispatch: count them
        // into xp.jobs_done so progress accounting is uniform (every
        // finished job increments jobs_done exactly once), and into
        // xp.jobs_skipped so rate consumers can exclude the resume burst
        // from throughput — the ProgressReporter subtracts it from its EMA
        // basis, else a resumed run's first heartbeat reads the skip burst
        // as executed work and the ETA collapses to near zero.
        reg->add(reg->counter("xp.jobs_done"), static_cast<double>(stats.skipped));
        reg->add(reg->counter("xp.jobs_skipped"), static_cast<double>(stats.skipped));
        // One 0/1 gauge per dispatch path keeps path identity greppable in
        // snapshots without a string-valued metric type.
        reg->set(reg->gauge("simd.path." +
                            std::string(simd::path_name(simd::active_path()))),
                 1.0);
    }
    if (obs::TraceSink* sink = obs::trace()) sink->set_thread_name("executor");

    const int workers = core::resolve_workers(options.workers);
    std::vector<JobRun> runs(dispatch.size());
    std::vector<std::pair<std::size_t, int>> items; // (dispatch slot, trial)
    for (std::size_t slot = 0; slot < dispatch.size(); ++slot) {
        const Job& job = *dispatch[slot];
        JobRun& run = runs[slot];
        run.job = &job;
        auto config = std::make_shared<core::CampaignConfig>();
        config->trials = job.trials;
        config->workers = std::min(workers, std::max(job.trials, 1));
        config->master_seed = job.campaign_seed;
        config->base = job.params;
        config->keep_reports = false; // records carry aggregates, not trials
        config->injector = options.injector;
        config->fi_job_index = job.index;
        run.config = std::move(config);
        // A trial-less job still gets one item, so it retires like any other.
        const int count = std::max(job.trials, 1);
        run.unretired.store(count, std::memory_order_relaxed);
        for (int t = 0; t < count; ++t) items.emplace_back(slot, t);
    }

    Committer committer(writer, options, dispatch.size(), stats);
    // Its destructor joins abandoned trials, which read the plan and the
    // registry, before execute_plan returns.
    AttemptRunner attempts(options.retry, options.injector, options.stop);

    // One trial of the job's current attempt — the body every attempt's
    // trials run through: fires the job seam on trial 0, runs in the job's
    // obs scope under the watchdog with what is left of the attempt's
    // budget, and fails the attempt (so its other trials skip) on the
    // first error.
    const auto run_item = [&](JobRun& run, int trial) {
        if (committer.closed() || stop_requested(options.stop)) {
            run.cut.store(true, std::memory_order_relaxed);
            return;
        }
        const Job& job = *run.job;
        std::call_once(run.started, [&] {
            run.t0 = Clock::now();
            run.seeds = core::CampaignRunner::trial_seeds(job.campaign_seed, job.trials);
            run.reports.resize(run.seeds.size());
            if (reg != nullptr) run.scope = std::make_shared<obs::Scope>(*reg);
        });
        if (trial >= job.trials || run.failed.load(std::memory_order_relaxed)) return;
        const obs::ScopeGuard in_job(run.scope);
        const obs::Span job_span("job", job_span_args(job, trial));
        // An abandoned trial writes into its own report, never into `run`.
        auto report = std::make_shared<core::AttackReport>();
        std::optional<core::JobError> error = attempts.run_once(
            job.index, run.attempt, /*job_seam=*/trial == 0, run.t0,
            [report, &registry, config = run.config, name = &job.scenario,
             seed = run.seeds[static_cast<std::size_t>(trial)], trial] {
                *report = core::run_trial(registry.at(*name), *config, seed, trial);
            });
        if (!error) {
            run.reports[static_cast<std::size_t>(trial)] = std::move(*report);
            return;
        }
        const std::lock_guard<std::mutex> lock(run.error_mutex);
        if (!run.failed.exchange(true, std::memory_order_relaxed)) run.error = std::move(*error);
    };

    // Attempt 1's last trial retired. While the attempt failed and the step
    // between attempts says retry, re-arm the job and run the next
    // attempt's trials through run_item on a pool of the job's width; then
    // fold the last attempt into the job's record.
    const auto finish = [&](JobRun& run) {
        Finished done;
        const Job& job = *run.job;
        auto next = AttemptRunner::Next::retry;
        {
            const obs::ScopeGuard in_job(run.scope);
            while (!run.cut.load(std::memory_order_relaxed) &&
                   run.failed.load(std::memory_order_relaxed) &&
                   (next = attempts.after_failure(run.attempt, run.error)) ==
                       AttemptRunner::Next::retry) {
                auto config = std::make_shared<core::CampaignConfig>(*run.config);
                config->fi_attempt = ++run.attempt;
                run.config = std::move(config);
                run.t0 = Clock::now();
                run.reports.assign(run.seeds.size(), {});
                run.failed.store(false, std::memory_order_relaxed);
                core::parallel_for(run.seeds.size(), run.config->workers,
                                   [&](std::size_t t) { run_item(run, static_cast<int>(t)); });
            }
        }
        if (run.cut.load(std::memory_order_relaxed) || next == AttemptRunner::Next::stop) {
            done.stopped = true;
            return done;
        }
        done.job = &job;
        done.attempts = run.attempt;
        JobRecord record;
        if (run.failed.load(std::memory_order_relaxed)) {
            done.error = run.error;
            record = make_failed_record(plan, job, run.error, run.attempt);
        } else {
            done.summary = core::summarize_campaign(
                job.scenario, *run.config, run.config->workers,
                std::chrono::duration<double, std::milli>(Clock::now() - run.t0).count(),
                std::move(run.reports));
            record = make_record(plan, job, *done.summary);
        }
        record.attempts = run.attempt;
        if (run.scope != nullptr) {
            // This job's own slice of the metrics: every update its trials
            // and attempts made, on whichever threads ran them.
            const obs::Snapshot mine = run.scope->snapshot();
            run.scope.reset();
            record.obs.present = true;
            for (const auto& c : mine.counters) {
                if (c.value != 0.0) record.obs.counters[c.name] = c.value;
            }
            for (const auto& h : mine.hists) {
                if (h.count != 0) record.obs.hists[h.name] = h.summary();
            }
        }
        done.line = to_jsonl(record);
        return done;
    };

    core::parallel_for(items.size(), workers, [&](std::size_t i) {
        const auto [slot, trial] = items[i];
        JobRun& run = runs[slot];
        run_item(run, trial);
        if (run.unretired.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            committer.commit(slot, finish(run));
        }
    });
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

// Plan execution: jobs -> one worker pool -> ResultWriter, plus the one
// fault policy every scheduler shares.
//
// The executor walks a Plan in index order and skips every job ID already
// in the skip set (resume). The trials of every other job go onto ONE
// core::parallel_for pool as (job, trial) items, in plan order, so a
// worker that finishes its share of a short job moves straight on to the
// next job's trials. The worker that retires a job's last trial folds its
// reports into the job's record, and a reorder committer appends the
// records in plan order, whatever order the jobs finish in. Per-job results
// depend only on (spec, job index): trials derive their seeds from the
// job's campaign_seed, never from which jobs ran before it or which worker
// ran them — so an interrupted run plus a resume produces the same records
// as one uninterrupted run, at any worker count.
//
// Fault tolerance: AttemptRunner survives, rather than propagates, a
// failure of one job — an xp job here, a fleet shard in
// fleet::run_fleet_campaign. Each gets up to RetryPolicy::max_attempts
// attempts; a thrown exception is captured and classified (core::JobError),
// an attempt that outlives the watchdog timeout is abandoned, and retries
// back off with a deterministic exponential schedule. Every attempt at an
// xp job is the same thing: the job's trials, each run through one
// per-trial body under the watchdog with what is left of that attempt's
// budget, in the job's obs scope. Attempt 1's trials run on the plan's
// pool; when an attempt fails, the worker that retires its last trial takes
// the step between attempts and runs the next attempt's trials on a pool of
// the job's own width. A job whose every attempt failed is quarantined as
// an `outcome=job_failed` record — the run completes with partial results,
// and resume retries exactly the quarantined/missing jobs. Store appends
// get the same budget through append_with_retry (the writer terminates
// torn tails between attempts). The max_jobs quota, a cooperative stop
// flag (SIGINT) and the injected worker_abort fault all close the
// committer between records, so the file always holds a plan-order prefix
// of the jobs that a resume completes to bit-identical records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ropuf/core/errors.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::xp {

/// The retry budget shared by xp jobs, fleet shards and store appends.
struct RetryPolicy {
    int max_attempts = 3;         ///< attempts before quarantine (>= 1)
    double backoff_base_ms = 5.0; ///< retry i sleeps base * 2^(i-1) ms (capped at 1 s)
    double job_timeout_ms = 0.0;  ///< per-attempt watchdog; 0 = no timeout
};

/// Runs the attempts at jobs under one RetryPolicy. xp jobs and fleet
/// shards share one loop shape:
///
///     int attempt = 0;
///     do {
///         ++attempt; // run_once() for the attempt, or for each trial of it
///     } while (failed && (next = after_failure(attempt, error)) == Next::retry);
///
/// run_once fires the fi job seam (job_throw, job_hang), runs the work — on
/// its own thread when the watchdog is armed, carrying the caller's
/// obs::Scope — and classifies what escaped. after_failure is the one step
/// between attempts. Together they emit the attempt span, the
/// fi:injected_fault / watchdog_timeout / quarantined trace instants and
/// the xp.retries / xp.watchdog_timeouts / fi.injected_faults /
/// xp.jobs_quarantined counters. Thread-safe: pool workers may run
/// attempts concurrently.
class AttemptRunner {
public:
    /// What follows a failed attempt.
    enum class Next {
        retry,      ///< run the next attempt
        quarantine, ///< max_attempts are spent: record the failure
        stop,       ///< the stop flag fired during backoff: record nothing
    };

    AttemptRunner(const RetryPolicy& policy, fi::Injector* injector,
                  const std::atomic<bool>* stop);
    /// Joins every watchdog-abandoned attempt (the injected job_hang is
    /// finite; a genuinely wedged job then blocks exit instead of running
    /// past the state it references).
    ~AttemptRunner();
    AttemptRunner(const AttemptRunner&) = delete;
    AttemptRunner& operator=(const AttemptRunner&) = delete;

    /// One attempt, or one trial of one, inside an `attempt` span: fires
    /// the job seam first when `job_seam`, runs `work` — on an abandonable
    /// thread when the watchdog is armed, within what is left of the budget
    /// since `started` — and classifies what escaped. An abandoned `work`
    /// keeps running until this runner dies, so it must own, or capture
    /// what outlives the runner; its result lands where nobody reads it.
    std::optional<core::JobError> run_once(int job_index, int attempt, bool job_seam,
                                           std::chrono::steady_clock::time_point started,
                                           std::function<void()> work);

    /// The step after attempt `attempt` failed with `error`: counts and
    /// traces the failure; quarantines (counted and traced) once
    /// max_attempts are spent; otherwise backs off, stops if the stop flag
    /// fired meanwhile (resume retries the job from attempt 1), and counts
    /// a retry.
    Next after_failure(int attempt, const core::JobError& error);

private:
    RetryPolicy policy_;
    fi::Injector* injector_;
    const std::atomic<bool>* stop_;
    std::mutex zombie_mutex_;
    std::vector<std::thread> zombies_; ///< watchdog-abandoned attempts
};

/// Appends one record line under the policy's budget, backing off between
/// attempts; the writer newline-terminates a torn tail first, so a retried
/// record never merges into the failed fragment. A store that keeps failing
/// past the budget rethrows — nothing durable can come of the run. Returns
/// the retries spent.
int append_with_retry(ResultWriter& writer, const std::string& line, const RetryPolicy& policy);

struct RunOptions {
    int workers = 0;       ///< pool threads for the plan's trials; 0 = hardware
                           ///< concurrency (core::resolve_workers)
    int max_jobs = -1;     ///< stop after executing this many jobs (< 0 = all);
                           ///< deterministically emulates an interrupted run
    std::FILE* progress = nullptr; ///< per-job progress lines, printed as records
                                   ///< commit (nullptr = silent)
    RetryPolicy retry;     ///< per-job attempts, backoff and watchdog
    fi::Injector* injector = nullptr;        ///< fault-injection seams (nullptr = none)
    const std::atomic<bool>* stop = nullptr; ///< cooperative stop (SIGINT); checked
                                             ///< before each trial, each record and
                                             ///< each retry
};

struct RunStats {
    int total = 0;    ///< jobs in the plan
    int skipped = 0;  ///< already present in the skip set
    int executed = 0; ///< run and appended this invocation
    int failed = 0;         ///< quarantined this invocation (job_failed records)
    int retries = 0;        ///< extra job attempts beyond the first, all jobs
    int store_retries = 0;  ///< record appends retried after store failures
    bool stopped = false;   ///< halted by the stop flag (SIGINT)
    bool aborted = false;   ///< halted by an injected worker_abort

    /// True when every plan job has a successful record after this
    /// invocation (nothing left for resume).
    bool complete() const {
        return !stopped && !aborted && failed == 0 && skipped + executed == total;
    }
};

/// Runs every plan job whose ID is not in `skip` on one pool of
/// options.workers threads, appending records to `writer` in plan order.
/// Scenario lookups go through `registry` (jobs were validated against it
/// at plan time). Per-job failures are retried then quarantined per
/// `options.retry`; only a store that keeps rejecting writes after retries
/// still throws (a dead disk is not survivable). With a metrics registry
/// installed, each record's "obs" side-key is read from the job's own
/// obs::Scope.
RunStats execute_plan(const Plan& plan, const core::ScenarioRegistry& registry,
                      const std::set<std::string>& skip, ResultWriter& writer,
                      const RunOptions& options = {});

/// The process-wide cooperative stop flag the SIGINT handler sets. Exposed
/// for tests and for drivers that stop runs programmatically.
std::atomic<bool>& sigint_stop_flag();

/// Installs the SIGINT handler (idempotent): first signal sets
/// sigint_stop_flag() so the executor stops dispatching, flushes, and the
/// CLI exits resumable; a second SIGINT falls back to the default action
/// (kill), so a hung job can still be interrupted.
void install_sigint_handler();

} // namespace ropuf::xp

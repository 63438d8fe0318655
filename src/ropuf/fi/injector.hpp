// The runtime half of fault injection: a FaultPlan turned into decisions.
//
// Every decision is deterministic in (plan seed, decision coordinates):
//
//   - store faults walk one mutex-guarded sequential stream — appends happen
//     in job-completion order on the executor thread, so the Nth append
//     attempt of a run always sees the same fault;
//   - per-job and per-trial faults are hash-keyed on (point, job index,
//     trial, attempt) instead of a shared stream, so decisions do not depend
//     on worker scheduling and a retried attempt re-rolls reproducibly.
//
// The seams consult an Injector* and treat nullptr as "no injection", so the
// fault-free hot path stays a single branch.
#pragma once

#include <mutex>
#include <stdexcept>
#include <string>

#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::fi {

/// What an injection point throws. Carries its point so the executor can
/// fold it into the job error taxonomy without string matching.
class InjectedFault : public std::runtime_error {
public:
    InjectedFault(FaultPoint point, const std::string& what)
        : std::runtime_error(what), point_(point) {}
    FaultPoint point() const { return point_; }

private:
    FaultPoint point_;
};

class Injector {
public:
    /// The action ResultWriter::append must take before writing.
    enum class StoreFault {
        none, ///< write normally
        fail, ///< throw without writing anything
        torn, ///< write half the line (no newline), then throw
    };

    explicit Injector(FaultPlan plan);

    const FaultPlan& plan() const { return plan_; }

    /// Consumes one store-append opportunity (thread-safe, sequential).
    /// torn_write rules win over store_write_fail when both fire.
    StoreFault next_store_fault();

    /// Executor per-job seam, called inside attempt `attempt` (1-based) of
    /// job `job_index`. Throws InjectedFault when a job_throw rule fires;
    /// otherwise returns the injected hang in milliseconds (0 = none).
    int job_fault(int job_index, int attempt) const;

    /// Per-trial seam, called by core::run_trial before trial `trial` of
    /// attempt `attempt` runs — on whichever pool runs it: the xp plan's,
    /// a retry's or CampaignRunner::run's. Throws InjectedFault when a
    /// trial_throw rule fires.
    void trial_probe(int job_index, int trial, int attempt) const;

    /// Executor dispatch seam: true once `completed_jobs` reaches a
    /// worker_abort rule's threshold.
    bool abort_due(int completed_jobs) const;

private:
    bool rule_fires(const FaultRule& rule, int job_index, int attempt,
                    std::uint64_t decision_key) const;

    FaultPlan plan_;
    mutable std::mutex store_mutex_;
    rng::Xoshiro256pp store_stream_;
    long long store_ops_ = 0;
};

} // namespace ropuf::fi

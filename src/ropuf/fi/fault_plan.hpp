// Deterministic fault-injection plans — chaos testing as data.
//
// A fault plan is a `;`-separated list of tokens naming injection points in
// the execution layer, each with `key=value` arguments:
//
//   seed(7)                         stream seed for probabilistic rules
//   store_write_fail(p=0.01)        each result append fails with prob. p
//   torn_write(every=3)             every 3rd append writes half a line, then fails
//   job_throw(ids=1|4,times=0)      throw inside the per-job call seam
//   job_hang(ids=2,ms=400,times=1)  sleep ms before the job runs (watchdog bait)
//   trial_throw(ids=0,p=0.5)        throw inside core::run_trial, before a trial runs
//   worker_abort(after=2)           stop dispatching after 2 completed jobs
//                                   (a crash-equivalent early exit)
//
// `ids` restricts a rule to those plan job indices (`|`-separated; empty =
// every job); `times=K` fires the rule on the first K attempts of a job only
// (0 = every attempt), so retry and quarantine paths are both reachable.
//
// Plans are content-addressed like defense tokens: canonical_fault_plan()
// renders rules in a fixed order with defaults filled in, and
// fault_plan_hash() is the FNV-1a 64 of that text. Every probabilistic
// decision is drawn from streams derived from the plan seed alone, so a
// chaos run is bit-reproducible: same plan + same spec = same faults.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ropuf::fi {

/// Parse/validation failure for fault-plan text.
class FaultPlanError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The injection points the execution layer exposes.
enum class FaultPoint {
    store_write_fail, ///< ResultWriter::append fails before writing
    torn_write,       ///< ResultWriter::append writes a torn half-line, then fails
    job_throw,        ///< executor per-job seam throws
    job_hang,         ///< executor per-job seam sleeps (watchdog/timeout bait)
    trial_throw,      ///< core::run_trial throws before its trial runs
    worker_abort,     ///< executor stops dispatching (crash-equivalent exit)
};

std::string_view fault_point_name(FaultPoint point);

/// One parsed rule. Only the fields meaningful for its point are used.
struct FaultRule {
    FaultPoint point = FaultPoint::job_throw;
    double p = 1.0;       ///< firing probability per opportunity (store/throw points)
    int every = 0;        ///< torn_write: every Nth append (>= 1)
    std::vector<int> ids; ///< restrict to these job indices (empty = all jobs)
    int ms = 0;           ///< job_hang: injected sleep, milliseconds
    int times = 1;        ///< fire on the first `times` attempts only (0 = every attempt)
    int after = 0;        ///< worker_abort: after this many completed jobs (>= 1)
};

/// A parsed plan: a seed plus its rules. An empty rule list means "inject
/// nothing" (the parse result of "", "none").
struct FaultPlan {
    std::uint64_t seed = 0x5eedf175u; ///< root of every decision stream
    std::vector<FaultRule> rules;

    bool empty() const { return rules.empty(); }
};

/// Parses plan text ("" and "none" yield an empty plan). Throws
/// FaultPlanError on unknown tokens/keys, malformed values, or out-of-range
/// arguments (p outside [0,1] or NaN, every/after < 1, negative ms/times/ids,
/// any integer above INT_MAX, a negative or overflowing seed).
FaultPlan parse_fault_plan(std::string_view text);

/// Fixed-order rendering with defaults filled in — the hashing preimage.
/// Rules sort by injection point (parse order breaks ties), the seed token
/// always leads, and `parse(canonical(plan))` round-trips exactly.
std::string canonical_fault_plan(const FaultPlan& plan);

/// 16-hex-digit FNV-1a 64 content hash of canonical_fault_plan().
std::string fault_plan_hash(const FaultPlan& plan);

} // namespace ropuf::fi

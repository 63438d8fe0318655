// Fleet campaigns: reconstruction trials over an enrolled population,
// sharded over devices, run on the shared worker pool, aggregated streaming.
//
// Execution model
// ---------------
// The population splits into fixed shards of kShardDevices consecutive
// devices. Shards — not trials, not devices — are the scheduling unit. The
// run's pending shards form a fixed dispatch list that core::parallel_for
// (the pool CampaignRunner also runs on) drains through one atomic cursor:
// a slow shard (or a hang-injected one) holds only its own worker, and the
// others keep claiming the rest of the list.
//
// Determinism
// -----------
// Bitwise-identical output across worker counts and schedules, by
// construction:
//   * every measurement of device d draws from streams keyed on
//     (campaign phase, d) — never on the worker or the schedule;
//   * shard aggregates are integers, accumulated per shard;
//   * shard records are committed to the JSONL writer through a reorder
//     buffer in shard order, so the bytes on disk are schedule-independent.
// The {1, 2, 8}-worker and hang-skew pins in tests/test_fleet.cpp hold
// the property.
//
// Fault tolerance is xp's, not a copy of it: each shard's attempts run
// through the same xp::AttemptRunner loop as an xp job's, under the run's
// xp::RetryPolicy — the fi job seams (job_hang / job_throw keyed on shard
// index), the watchdog, classified retries with backoff, and a quarantine
// record (`outcome:"job_failed"`) once the budget is spent, which resume
// retries. Records append through
// xp::append_with_retry, so a store fault is retried and fatal past the
// budget. SIGINT stops dispatch between shards and the run stays
// resumable.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/xp/executor.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::fleet {

struct FleetCampaignOptions {
    int workers = 0; ///< pool threads; 0 = hardware concurrency (core::resolve_workers)
    /// Dispatch at most this many not-yet-done shards (< 0 = all): the
    /// deterministic interruption knob resume tests drive.
    long long max_shards = -1;
    xp::RetryPolicy retry; ///< per-shard attempts, backoff and watchdog; append budget
    fi::Injector* injector = nullptr;
    const std::atomic<bool>* stop = nullptr; ///< SIGINT flag (may be null)
};

/// Streaming aggregates of one run. All device/trial counts are exact
/// integers — associative and commutative, so worker count cannot change
/// them.
struct FleetRunStats {
    std::uint64_t total_shards = 0;
    std::uint64_t skipped = 0;    ///< already present (resume)
    std::uint64_t executed = 0;
    std::uint64_t failed = 0;     ///< quarantined shards
    std::uint64_t devices = 0;    ///< devices measured by this run
    std::uint64_t devices_ok = 0; ///< devices with every trial successful
    std::uint64_t trials = 0;
    std::uint64_t trials_ok = 0;
    std::uint64_t bit_errors = 0;
    std::uint64_t measurements = 0;
    std::uint64_t steals = 0;        ///< always 0: the shared pool has no per-worker queues
    std::uint64_t retries = 0;       ///< shard attempts beyond the first
    std::uint64_t store_retries = 0; ///< record appends retried after store faults
    /// success_hist[k] = devices for which exactly k trials succeeded.
    std::vector<std::uint64_t> success_hist;
    /// SIGINT stopped dispatch early. A max_shards quota does NOT set this
    /// (it is a clean, deterministic cut); remaining work is
    /// total_shards - skipped - executed - failed either way.
    bool stopped = false;
};

/// Shards of a population: ceil(devices / kShardDevices).
std::uint64_t shard_count(const Population& population);

/// The JSONL job id of shard s: "<spec_hash>-s<%05d>".
std::string shard_job_id(const FleetSpec& spec, std::uint64_t shard);

/// Shard ids already completed (outcome "ok") in a results file for this
/// spec — the resume skip set. Missing file = empty set. Torn lines and
/// quarantine records are ignored exactly like xp::completed_job_ids.
std::set<std::uint64_t> completed_shards(const std::string& path, const FleetSpec& spec);

/// Runs (or resumes) the campaign, appending one record per shard to
/// `writer`. Throws xp::SpecError on setup errors (store/spec mismatch),
/// and the store's own error when an append still fails after the retry
/// budget.
FleetRunStats run_fleet_campaign(const Population& population,
                                 const EnrollmentMap& enrollment,
                                 xp::ResultWriter& writer,
                                 const FleetCampaignOptions& options);

} // namespace ropuf::fleet

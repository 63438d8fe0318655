// Append-only JSONL result store.
//
// One line per completed campaign job. Each record carries three parts:
//
//   identity   — spec name, spec hash, job ID, job index, scenario;
//   point      — the fully resolved grid point (geometry, sigma, ambient,
//                majority_wins, ecc, query_budget, the canonical defense
//                token — "none" for undefended runs — trials, root/campaign
//                seeds);
//   result     — the deterministic CampaignSummary aggregates, including the
//                per-outcome histogram (recovered / gave_up /
//                budget_exhausted / refused_by_defense / locked_out).
//
// All of the above is bitwise-reproducible from the spec alone. Host-bound
// measurements (wall clock, workers used, throughput) are isolated in one
// trailing "timing" key so readers — and the golden-file tests — can
// compare records by their deterministic prefix. Fault-tolerance metadata
// (attempt counts, quarantine error class/message) lives in an optional
// "fault" key *after* timing: it describes how the job ran on this host,
// not what the experiment computed, so it is excluded from deterministic
// comparison exactly like timing — and first-attempt successes carry no
// fault key at all, keeping pre-existing records byte-identical.
//
// A job the executor quarantined (every attempt failed) still gets a line:
// identity + point + a top-level `"outcome":"job_failed"` + fault details,
// with no result object. Such records do not count as completed — resume
// retries them — and a later successful record for the same job ID
// supersedes them.
//
// A third optional side-key, "obs", rides after "fault": the job's own
// slice of the ropuf::obs metrics (its obs::Scope: counters plus histogram
// summaries), captured only when a registry is installed for the run. Like
// timing and fault it is host-bound and excluded from deterministic
// comparison; obs-off runs emit no obs key at all, so pre-obs records (and
// the golden files) stay byte-identical.
//
// Crash safety: the writer appends one flushed line per record, so a killed
// run loses at most its in-flight job; the reader skips unparseable lines
// (the torn tail of a crash) instead of failing, and resume re-runs exactly
// the job IDs not yet present.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ropuf/core/campaign.hpp"
#include "ropuf/core/errors.hpp"
#include "ropuf/obs/json_writer.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/xp/planner.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::xp {

/// The job's own metrics riding in the "obs" side-key. Absent (present
/// == false) for obs-off runs and for every pre-obs record.
struct ObsData {
    bool present = false;
    std::map<std::string, double> counters;         ///< nonzero counters only
    std::map<std::string, obs::HistSummary> hists;  ///< histograms with samples
};

/// One JSONL record: a job identity plus its campaign outcome.
struct JobRecord {
    // identity
    std::string spec_name;
    std::string spec_hash;
    std::string job_id;
    int index = 0;
    std::string scenario;
    // point
    core::ScenarioParams params;
    int trials = 0;
    std::uint64_t root_seed = 0;
    std::uint64_t campaign_seed = 0;
    // result (deterministic)
    int key_recovered_count = 0;
    double success_rate = 0.0;
    double mean_accuracy = 0.0;
    core::OutcomeCounts outcomes; ///< how the trials ended (budget/defense aware)
    std::int64_t total_measurements = 0;
    core::MetricSummary queries;
    core::MetricSummary measurements;
    // timing (host-bound, non-deterministic)
    int workers = 0;
    double wall_ms = 0.0;
    double trial_wall_ms_sum = 0.0;
    double measurements_per_s = 0.0;
    std::string simd;             ///< kernel dispatch path the run executed on
    int hardware_concurrency = 0; ///< host CPU count at record time
    // fault tolerance (host-bound side-fields, excluded like timing)
    std::string outcome = "ok";   ///< "ok" | "job_failed" (quarantined)
    int attempts = 1;             ///< executor attempts spent on this job
    std::string error_class;      ///< job_failed only: taxonomy class name
    std::string error_message;    ///< job_failed only: captured message
    // observability (host-bound side-key, excluded like timing/fault)
    ObsData obs;

    bool failed() const { return outcome == "job_failed"; }
};

/// Builds the record for one finished job.
JobRecord make_record(const Plan& plan, const Job& job, const core::CampaignSummary& summary);

/// Builds the quarantine record for a job whose every attempt failed:
/// identity + point + outcome=job_failed + the classified error.
JobRecord make_failed_record(const Plan& plan, const Job& job, const core::JobError& error,
                             int attempts);

/// Writes the "fault" side-key — `"fault":{"attempts":N}` plus the error
/// class and message when `failed` — or nothing for a first-attempt
/// success, which keeps pre-fault-era records byte-identical. The one
/// writer of the key, for xp job records and fleet shard records alike.
void write_fault_key(obs::JsonWriter& w, int attempts, bool failed,
                     std::string_view error_class, std::string_view message);

/// One-line JSON serialization; the host-bound side-keys always come last,
/// in the order timing, fault (if any), obs (if any).
std::string to_jsonl(const JobRecord& record);

/// The record line up to (excluding) its ",\"timing\":" suffix — the
/// deterministic comparison unit. Lines without a timing key are returned
/// whole.
std::string_view deterministic_prefix(std::string_view line);

/// Parses one JSONL line; throws JsonError/std::logic_error on malformed
/// input (readers that must tolerate torn lines catch per line).
JobRecord parse_record(std::string_view line);

/// What the reader saw besides the parseable records. skipped_lines counts
/// torn crash tails and foreign garbage; last_good_offset is the byte
/// offset just past the last line that parsed (0 when none did) — where a
/// salvage tool would truncate.
struct ReadStats {
    int skipped_lines = 0;
    long long last_good_offset = 0;
};

/// The user-facing salvage warning for a read that skipped lines, naming
/// both skipped_lines and last_good_offset (where a salvage tool would
/// truncate). Empty when nothing was skipped.
std::string salvage_warning(const ReadStats& stats);

/// Every parseable record of a results file, in file order. Unparseable
/// lines are counted into `*stats` (crash tails), never fatal. Throws
/// SpecError when the file cannot be opened.
std::vector<JobRecord> read_results(const std::string& path, ReadStats* stats = nullptr);

/// The job IDs already completed for `spec_hash` — the resume skip set.
/// Quarantined (`outcome=job_failed`) records do not count: resume retries
/// them. A missing file is an empty set (fresh run), not an error.
std::set<std::string> completed_job_ids(const std::string& path, std::string_view spec_hash);

/// Append-only writer: one flushed line per record.
class ResultWriter {
public:
    /// Opens for append (`truncate` = start fresh); throws SpecError on
    /// failure.
    explicit ResultWriter(const std::string& path, bool truncate = false);
    ~ResultWriter();
    ResultWriter(const ResultWriter&) = delete;
    ResultWriter& operator=(const ResultWriter&) = delete;

    /// Appends one flushed record line. Throws SpecError on real I/O
    /// failure and fi::InjectedFault when the installed injector fires; in
    /// both cases the writer remembers a possibly-torn tail and terminates
    /// it with a newline before the next append, so a retried record never
    /// merges into the fragment (the reader skips the fragment as a torn
    /// line, same as a crash tail).
    void append(const JobRecord& record);

    /// Appends one flushed pre-serialized JSONL line (no trailing newline).
    /// Same fault seam, torn-tail bookkeeping and error contract as
    /// append() — this is the raw unit append() is built on, exposed so
    /// other layers (fleet campaign shards) can share the writer's
    /// crash-safety semantics for their own record schemas.
    void append_line(const std::string& json_line);
    const std::string& path() const { return path_; }

    /// Installs (or clears, with nullptr) the store-seam fault injector.
    void set_fault_injector(fi::Injector* injector) { injector_ = injector; }

private:
    std::string path_;
    std::FILE* file_ = nullptr;
    fi::Injector* injector_ = nullptr;
    bool dirty_ = false; ///< last append left an unterminated torn line
};

/// Fixed-width per-record table plus a per-scenario rollup — the
/// `ropuf report` view. Quarantined records are kept out of the tables
/// (they carry no result) and surface in a fault-tolerance footer instead,
/// alongside the retry totals from the records' fault side-fields; a
/// quarantined job that a later record completed is reported as recovered.
std::string render_report(const std::vector<JobRecord>& records);

/// Per-scenario wall-time and retry profile — the `ropuf report --timings`
/// view. Job wall p50/p95/p99 are exact order statistics over the records'
/// timing side-keys; the attempts histogram comes from the fault side-keys;
/// per-trial wall percentiles are count-weighted aggregates of the obs
/// side-keys' bucketed summaries (approximate, labeled as such). Records
/// without an obs key — anything written obs-off or pre-obs — are skipped
/// from the trial section and counted.
std::string render_timings(const std::vector<JobRecord>& records);

/// Attack x defense outcome matrix — the `ropuf report --matrix` view.
/// Rows are scenarios, columns defenses (both in first-appearance order);
/// each cell aggregates every record of that (scenario, defense) pair into
/// its dominant outcome plus the trial-weighted key-recovery rate.
std::string render_matrix(const std::vector<JobRecord>& records);

} // namespace ropuf::xp

// Shared plumbing of the end-to-end benchmark: options, clocks, digests,
// host stamp, and the per-layer accumulators of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ropuf/hash/sha256.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds (getrusage RUSAGE_SELF).
double process_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mib();
/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// Aggregate CPU time counters from /proc/stat, for the host steal share.
struct HostCpu {
    bool ok = false;
    double steal = 0.0;
    double total = 0.0;
};
HostCpu read_host_cpu();

/// Wall seconds of a fixed reference computation (integer, float, sort and
/// table work, L2-resident) run once on each of `threads` threads. It is
/// the benchmark's own code, so it measures the host, not the program.
double host_ref_s(int threads);
/// About what host_ref_s takes, on any thread count up to the vCPUs, on an
/// unloaded 4-vCPU host; the scale the reported timings are brought to.
inline constexpr double kHostRefNominalS = 0.050;

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Incremental SHA-256 over a workload's deterministic output.
class Digest {
public:
    void add(std::string_view bytes) { sha_.update(bytes); }
    std::string hex() { return ropuf::hash::to_hex(sha_.finalize()); }

private:
    ropuf::hash::Sha256 sha_;
};

/// Seed of repetition `index` of a run seeded with `seed` (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Command-line options of one benchmark invocation.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;   ///< tiny sizes for the self-test
    int workers = 1;
    std::string work_dir; ///< scratch files (results, stores, trace)
    std::string pin;      ///< expected digest of the canonical pass ("" = unchecked)
};

/// What a workload hands back to main: the verdict plus named metrics.
struct Outcome {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::pair<std::string, double>> metrics; ///< emitted, in order
    std::map<std::string, std::string> detail;           ///< digests, notes
    double median_parallel_eff = -1.0; ///< for the starvation flag (< 0 = not measured)

    void fail(const std::string& why);
    void set(const std::string& name, double value) { metrics.emplace_back(name, value); }
};

/// One measured pass of a workload, in the terms of the end-to-end metrics.
struct PassResult {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    long long queries = 0;      ///< key regenerations (xp oracle queries, fleet trials)
    long long measurements = 0; ///< RO measurements
    long long enrolled = 0;     ///< devices manufactured and enrolled
    double enroll_s = 0.0;      ///< wall time of that enrollment
    long long attempted = 0;    ///< jobs or shards
    long long quarantined = 0;  ///< of those, quarantined
    std::string digest;         ///< SHA-256 of the pass's deterministic output
};

/// The workload-specific parts of a run; measure_passes does the rest.
struct Workload {
    /// One set-up as a user pays it; measure_passes times the call and
    /// drops the result afterwards.
    std::function<std::shared_ptr<const void>()> set_up;
    /// The pass on the committed spec, whose digest is pinned.
    std::function<PassResult()> canonical;
    /// One pass on the run's inputs, generated from opts.seed; every pass
    /// of a run does the same work.
    std::function<PassResult()> pass;
};

/// The measured passes of a run.
struct Measured {
    std::vector<PassResult> passes;
    Clock::time_point start; ///< when the measured passes began
};

/// Times set-up a few times, runs the canonical pass against opts.pin, then
/// passes until the untraced share of opts.seconds is spent (a third of it
/// in a traced run); set-up is timed again after every pass, and every pass
/// must repeat the first one's digest. Without opts.trace it emits the
/// end-to-end metrics, scaled to the reference host speed: for the passes,
/// medians of each pass's figures times kHostRefNominalS over the mean
/// host_ref_s(opts.workers) just before and after it; for the serial
/// set-up and enrollment, their fast end against the run's fastest
/// host_ref_s(1).
Measured measure_passes(const Options& opts, const Workload& workload, Outcome& out);

/// Counts the pass's jobs or shards as attempted and each quarantined one
/// as a failure.
void check_pass(Outcome& out, const PassResult& pass, const std::string& what);

/// Process CPU per key regeneration of one pass, in microseconds.
double cpu_us_per_query(const PassResult& pass);

/// Wall-clock self times of the layers, summed over the traced trials one
/// worker ran. Seconds unless noted.
struct LayerTotals {
    double trial_wall = 0.0; ///< traced trial wall (set-up to report)
    double other = 0.0;      ///< trial set-up and report assembly
    double step = 0.0;       ///< Session::step() + absorb()
    double stack = 0.0;      ///< defended stack evaluate (outermost oracle)
    double victim = 0.0;     ///< benchmark-side victim oracle evaluate
    double parse = 0.0;
    double check = 0.0;
    double measure = 0.0;
    double regen = 0.0;
    double encode = 0.0;     ///< Traits::store replay (outside the trial wall)
    long long trials = 0;
    long long batches = 0;
    long long probes = 0;
    long long queries = 0;
    long long refused = 0;
    long long regen_calls = 0;
    long long sim_measurements = 0;
    long long blob_bytes = 0;    ///< probe blob bytes the victim parsed
    long long encoded_bytes = 0; ///< bytes the encode replay produced
    std::vector<float> regen_us;
    std::vector<std::string> parity_errors;

    void merge(const LayerTotals& other);
};

/// paper_attacks / defense_matrix: xp::plan_spec -> xp::execute_plan ->
/// xp::ResultWriter, plus the traced trial rebuild when opts.trace.
Outcome run_xp_workload(const Options& opts);

/// fleet_population: fleet::enroll_population -> fleet::run_fleet_campaign,
/// plus the traced phase timers and shard replay when opts.trace.
Outcome run_fleet_workload(const Options& opts);

/// The per-layer metrics no workload of this kind exercises, reported as 0
/// so every workload emits the full per-layer set.
void set_absent(Outcome& out, const std::vector<std::string>& names);

} // namespace e2e

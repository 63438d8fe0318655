#include "ropuf/fleet/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "ropuf/core/errors.hpp"
#include "ropuf/core/parallel.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/json.hpp"

namespace ropuf::fleet {

namespace {

/// Everything one shard reports back: exact integer aggregates plus the
/// host-bound timing/fault side data.
struct ShardOutcome {
    std::uint64_t shard = 0;
    std::uint64_t device_first = 0;
    std::uint32_t device_count = 0;
    std::vector<std::uint32_t> success_hist; // trials+1 bins
    std::uint32_t devices_ok = 0;
    std::uint64_t trials_ok = 0;
    std::uint64_t bit_errors = 0;
    std::uint64_t measurements = 0;
    double wall_ms = 0.0;
    int attempts = 1;
    bool failed = false;
    core::JobError error;
};

ShardOutcome shard_identity(const FleetSpec& spec, std::uint64_t shard) {
    ShardOutcome o;
    o.shard = shard;
    o.device_first = shard * kShardDevices;
    o.device_count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kShardDevices, spec.devices - o.device_first));
    return o;
}

/// The deterministic record line for one completed shard, xp-style: the
/// deterministic prefix first, then the "timing" side-key (and "fault"
/// for quarantines) that diff_results.py / deterministic_prefix() strip.
std::string shard_record_line(const FleetSpec& spec, const std::string& hash,
                              const ShardOutcome& o, int workers) {
    obs::JsonWriter w;
    w.begin_object().key("spec").str(spec.name).key("spec_hash").str(hash);
    w.key("job").str(shard_job_id(spec, o.shard)).key("shard").integer(o.shard);
    w.key("device_first").integer(o.device_first).key("device_count").integer(o.device_count);
    if (!o.failed) {
        w.key("key_bits").integer(spec.key_bits).key("trials").integer(spec.trials);
        w.key("majority_wins").integer(spec.majority_wins).key("base_seed").integer(spec.base_seed);
        w.key("devices_ok").integer(o.devices_ok).key("trials_ok").integer(o.trials_ok);
        w.key("bit_errors").integer(o.bit_errors).key("success_hist").begin_array();
        for (const std::uint32_t n : o.success_hist) w.integer(n);
        w.end_array().key("measurements").integer(o.measurements).key("outcome").str("ok");
    } else {
        w.key("outcome").str("job_failed");
    }
    w.key("timing").begin_object().key("wall_ms").fixed(o.wall_ms, 3);
    w.key("workers").integer(workers);
    w.key("hardware_concurrency").integer(std::thread::hardware_concurrency());
    w.key("simd").str(simd::path_name(simd::active_path())).end_object();
    xp::write_fault_key(w, o.attempts, o.failed, core::job_error_class_name(o.error.cls),
                        o.error.message);
    w.end_object();
    return w.release();
}

/// Measures one shard and reduces it to integer aggregates. Bitwise
/// deterministic in (spec, shard): streams are keyed on global device
/// ids, never on the caller.
ShardOutcome run_shard(const Population& population, const EnrollmentMap& enrollment,
                       std::uint64_t shard) {
    const FleetSpec& spec = population.spec();
    ShardOutcome o = shard_identity(spec, shard);
    const std::uint64_t first = o.device_first;
    const std::size_t count = o.device_count;
    const std::size_t n = static_cast<std::size_t>(spec.ro_count());
    const int trials = spec.trials;
    const int wins = spec.majority_wins;
    o.success_hist.assign(static_cast<std::size_t>(trials) + 1, 0);

    // Per-thread measurement buffer: a pool worker reuses it across shards,
    // and a watchdogged attempt's own thread gets a fresh one, so an
    // abandoned attempt never shares it with its retry.
    thread_local std::vector<std::vector<double>> scratch;
    sim::RoFleet fleet =
        population.manufacture_shard(first, count, Population::Phase::campaign);
    fleet.measure_batch(sim::Condition{}, trials * wins, scratch);

    for (std::size_t i = 0; i < count; ++i) {
        const EnrollmentRecord rec = enrollment.record(first + i);
        const std::vector<double>& meas = scratch[i];
        int ok_trials = 0;
        for (int t = 0; t < trials; ++t) {
            std::uint64_t errs = 0;
            for (int j = 0; j < spec.key_bits; ++j) {
                const std::size_t p = rec.helper[static_cast<std::size_t>(j)];
                int votes = 0;
                for (int s = 0; s < wins; ++s) {
                    const std::size_t scan = static_cast<std::size_t>(t * wins + s);
                    votes += meas[scan * n + 2 * p] > meas[scan * n + 2 * p + 1] ? 1 : 0;
                }
                const int bit = 2 * votes > wins ? 1 : 0;
                errs += static_cast<std::uint64_t>(bit != rec.key_bit(j));
            }
            o.bit_errors += errs;
            if (errs == 0) ++ok_trials;
        }
        o.trials_ok += static_cast<std::uint64_t>(ok_trials);
        if (ok_trials == trials) ++o.devices_ok;
        ++o.success_hist[static_cast<std::size_t>(ok_trials)];
    }
    o.measurements = static_cast<std::uint64_t>(count) * n *
                     static_cast<std::uint64_t>(trials * wins);
    return o;
}

/// Commits shard records to the writer in shard order regardless of
/// completion order, and folds aggregates into the run stats. Pending
/// lines are bounded by scheduling skew (worst case the shard count, a
/// few hundred small strings — never O(fleet devices)). Appends go through
/// xp::append_with_retry, so a store fault is retried under the run's
/// policy and fatal past its budget — never a silently lost record.
class Committer {
public:
    Committer(xp::ResultWriter& writer, FleetRunStats& stats, int trials_per_device,
              const xp::RetryPolicy& policy)
        : writer_(writer), stats_(stats), trials_per_device_(trials_per_device),
          policy_(policy) {}

    /// Commits slot `order_index` of the dispatch list; a null outcome
    /// fills the slot with nothing to write (a shard the stop flag skipped).
    void commit(std::size_t order_index, const ShardOutcome* o, std::string line = {}) {
        const std::lock_guard<std::mutex> lock(mutex_);
        pending_.emplace(order_index, std::move(line));
        if (o != nullptr) fold(*o);
        while (!pending_.empty() && pending_.begin()->first == next_) {
            const std::string ready = std::move(pending_.begin()->second);
            pending_.erase(pending_.begin());
            ++next_;
            if (!ready.empty()) {
                stats_.store_retries += static_cast<std::uint64_t>(
                    xp::append_with_retry(writer_, ready, policy_));
            }
        }
    }

private:
    void fold(const ShardOutcome& o) {
        stats_.retries += static_cast<std::uint64_t>(o.attempts - 1);
        if (o.failed) {
            ++stats_.failed;
            return;
        }
        ++stats_.executed;
        stats_.devices += o.device_count;
        stats_.devices_ok += o.devices_ok;
        stats_.trials += static_cast<std::uint64_t>(o.device_count) *
                         static_cast<std::uint64_t>(trials_per_device_);
        stats_.trials_ok += o.trials_ok;
        stats_.bit_errors += o.bit_errors;
        stats_.measurements += o.measurements;
        for (std::size_t k = 0; k < o.success_hist.size() && k < stats_.success_hist.size();
             ++k) {
            stats_.success_hist[k] += o.success_hist[k];
        }
    }

private:
    xp::ResultWriter& writer_;
    FleetRunStats& stats_;
    int trials_per_device_;
    xp::RetryPolicy policy_;
    std::mutex mutex_;
    std::map<std::size_t, std::string> pending_;
    std::size_t next_ = 0;
};

} // namespace

std::uint64_t shard_count(const Population& population) {
    return (population.devices() + kShardDevices - 1) / kShardDevices;
}

std::string shard_job_id(const FleetSpec& spec, std::uint64_t shard) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "-s%05llu", static_cast<unsigned long long>(shard));
    return fleet_spec_hash(spec) + buf;
}

std::set<std::uint64_t> completed_shards(const std::string& path, const FleetSpec& spec) {
    std::set<std::uint64_t> done;
    std::ifstream in(path, std::ios::binary);
    if (!in) return done; // fresh run
    const std::string hash = fleet_spec_hash(spec);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        try {
            const xp::JsonValue v = xp::parse_json(line);
            if (v.string_or("spec_hash", "") != hash) continue;
            if (v.string_or("outcome", "") != "ok") continue;
            const double shard = v.number_or("shard", -1.0);
            if (shard >= 0) done.insert(static_cast<std::uint64_t>(shard));
        } catch (const std::exception&) {
            // torn tail / foreign garbage: skip, like the JSONL reader
        }
    }
    return done;
}

FleetRunStats run_fleet_campaign(const Population& population,
                                 const EnrollmentMap& enrollment,
                                 xp::ResultWriter& writer,
                                 const FleetCampaignOptions& options) {
    const FleetSpec& spec = population.spec();
    if (enrollment.header().spec_hash != fleet_spec_hash_u64(spec)) {
        throw xp::SpecError("enrollment store does not match this fleet spec");
    }
    if (enrollment.valid_records() < spec.devices) {
        throw xp::SpecError(
            "enrollment store is incomplete (" +
            std::to_string(enrollment.valid_records()) + " of " +
            std::to_string(spec.devices) + " devices) — run fleet enroll first");
    }

    FleetRunStats stats;
    stats.success_hist.assign(static_cast<std::size_t>(spec.trials) + 1, 0);
    stats.total_shards = shard_count(population);

    // The dispatch list: pending shards in shard order, optionally
    // truncated by max_shards — a deterministic interruption point that
    // does not depend on worker count (unlike "stop after K completions").
    const std::set<std::uint64_t> done = completed_shards(writer.path(), spec);
    std::vector<std::uint64_t> pending;
    for (std::uint64_t s = 0; s < stats.total_shards; ++s) {
        if (done.count(s) == 0) pending.push_back(s);
    }
    stats.skipped = stats.total_shards - pending.size();
    // A max_shards cut is a clean quota, not an interruption: the caller
    // sees the remaining shards via total_shards - skipped - executed and
    // `stopped` stays reserved for SIGINT (exit-code parity with xp's
    // --max-jobs semantics).
    if (options.max_shards >= 0 &&
        pending.size() > static_cast<std::size_t>(options.max_shards)) {
        pending.resize(static_cast<std::size_t>(options.max_shards));
    }

    obs::Registry* const reg = obs::registry();
    if (reg != nullptr) {
        reg->set(reg->gauge("xp.jobs_total"), static_cast<double>(stats.total_shards));
        // Same uniform accounting as the xp executor: skipped shards are
        // finished work credited at dispatch, excluded from the progress
        // EMA via the parallel xp.jobs_skipped counter.
        reg->add(reg->counter("xp.jobs_done"), static_cast<double>(stats.skipped));
        reg->add(reg->counter("xp.jobs_skipped"), static_cast<double>(stats.skipped));
    }

    const int workers = std::max(1, options.workers);
    Committer committer(writer, stats, spec.trials, options.retry);
    const std::string hash = fleet_spec_hash(spec);
    std::atomic<bool> sigint_seen{false};
    // Declared after everything its abandoned attempts reference.
    xp::AttemptRunner attempts(options.retry, options.injector, options.stop);

    // Slot i of `pending` is the reorder-buffer slot, so output bytes land
    // in shard order no matter who runs what when.
    core::parallel_for(pending.size(), workers, [&](std::size_t i) {
        const std::uint64_t shard = pending[i];
        const auto t0 = std::chrono::steady_clock::now();
        xp::Retried<ShardOutcome> r;
        r.stopped = options.stop != nullptr && options.stop->load();
        if (!r.stopped) {
            r = attempts.run(static_cast<int>(shard), [&population, &enrollment, shard](int) {
                obs::JsonWriter args;
                if (obs::trace() != nullptr)
                    args.begin_object().key("shard").integer(shard).end_object();
                const obs::Span span("fleet.shard", args.release());
                return run_shard(population, enrollment, shard);
            });
        }
        if (r.stopped) {
            // SIGINT: stop dispatch; the slot commits empty so shards that
            // already ran still land in order.
            sigint_seen.store(true);
            committer.commit(i, nullptr);
            return;
        }
        ShardOutcome o = r.ok ? std::move(r.value) : shard_identity(spec, shard);
        o.attempts = r.count;
        o.failed = !r.ok;
        o.error = std::move(r.error);
        o.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (r.ok) {
            ROPUF_OBS_COUNT("xp.jobs_done", 1);
            ROPUF_OBS_COUNT("fleet.shards_done", 1);
            ROPUF_OBS_COUNT("fleet.devices_done", o.device_count);
            ROPUF_OBS_COUNT("campaign.trials",
                            static_cast<double>(o.device_count) * spec.trials);
        }
        committer.commit(i, &o, shard_record_line(spec, hash, o, workers));
    });

    if (sigint_seen.load()) stats.stopped = true;
    return stats;
}

} // namespace ropuf::fleet

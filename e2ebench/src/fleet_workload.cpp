// fleet_population: a wafer-correlated device population through the entry
// points behind `ropuf fleet enroll` and `ropuf fleet campaign`.
//
// A pass enrolls the whole population into a fresh binary store
// (EnrollmentWriter + enroll_population), maps it (EnrollmentMap) and runs
// the work-stealing reconstruction campaign (run_fleet_campaign) into a
// fresh JSONL file. The measured population has specs/fleet_100k.spec's
// shape with devices and trials scaled up, because the committed spec's
// campaign phase is too short to time. The traced run adds spans and timers around those
// calls and replays every shard's manufacture + measure_batch.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/result_store.hpp"

namespace e2e {

namespace {

using namespace ropuf;

constexpr int kReplayReps = 3;
constexpr std::size_t kStoreChunk = 64 * 1024;

/// A population of specs/fleet_100k.spec's shape. The canonical pass is
/// that spec itself (100k devices, 3 trials, base_seed 7), so its digest is
/// the digest of `ropuf fleet enroll` + `ropuf fleet campaign` on it; the
/// measured passes double the devices and run ten times the trials.
std::string spec_text(const char* name, int devices, int trials, std::uint64_t base_seed) {
    return std::string("name = ") + name + "\ndevices = " + std::to_string(devices) +
           "\nwafer_size = 256\nwafer_cols = 16\ngeometry = 8x4\nkey_bits = 12\n"
           "enroll_samples = 5\nmajority_wins = 3\ntrials = " +
           std::to_string(trials) + "\nsigma_noise_mhz = 0.05\nbase_seed = " +
           std::to_string(base_seed) + "\n";
}

std::string canonical_text(bool smoke) {
    return spec_text("fleet_100k", smoke ? 2048 : 100000, 3, 7);
}

std::string measured_text(std::uint64_t base_seed, bool smoke) {
    return spec_text("fleet_population", smoke ? 2048 : 200000, smoke ? 3 : 30, base_seed);
}

struct Shard {
    std::uint64_t first = 0;
    std::size_t count = 0;
};

struct Pass {
    PassResult result; ///< queries = trials, enroll_s = the enroll phase
    double map_open_s = 0.0;
    double campaign_s = 0.0;
    long long steals = 0;
    long long store_bytes = 0;
    double shard_wall_s = 0.0; ///< sum of the shard records' wall_ms
    std::vector<Shard> shard_ranges;
};

Pass run_pass(const fleet::Population& population, int workers, const std::string& dir) {
    const fleet::FleetSpec& spec = population.spec();
    const std::string store = dir + "/population.fleet";
    const std::string results = dir + "/fleet.jsonl";
    std::remove(store.c_str());
    Pass pass;
    PassResult& r = pass.result;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    {
        const obs::Span span("fleet.enroll");
        fleet::EnrollmentWriter writer(store, fleet::make_store_header(spec), /*truncate=*/true);
        fleet::enroll_population(population, writer);
    }
    const auto t1 = Clock::now();
    fleet::FleetRunStats stats;
    {
        std::unique_ptr<fleet::EnrollmentMap> map;
        {
            const obs::Span span("fleet.map_open");
            map = std::make_unique<fleet::EnrollmentMap>(store);
        }
        const auto t2 = Clock::now();
        pass.map_open_s = seconds_between(t1, t2);
        const obs::Span span("fleet.campaign");
        xp::ResultWriter writer(results, /*truncate=*/true);
        fleet::FleetCampaignOptions options;
        options.workers = workers;
        stats = fleet::run_fleet_campaign(population, *map, writer, options);
        pass.campaign_s = seconds_between(t2, Clock::now());
    }
    r.wall_s = seconds_between(t0, Clock::now());
    r.cpu_s = process_cpu_s() - cpu0;
    r.enroll_s = seconds_between(t0, t1);

    r.attempted = static_cast<long long>(stats.total_shards);
    r.quarantined = static_cast<long long>(stats.total_shards - stats.executed);
    r.enrolled = static_cast<long long>(spec.devices);
    r.queries = static_cast<long long>(stats.trials);
    r.measurements = static_cast<long long>(stats.measurements) +
                     static_cast<long long>(spec.devices) * spec.ro_count() * spec.enroll_samples;
    pass.steals = static_cast<long long>(stats.steals);

    Digest digest;
    std::ifstream lines(results, std::ios::binary);
    std::string line;
    while (std::getline(lines, line)) {
        digest.add(xp::deterministic_prefix(line));
        digest.add("\n");
        const xp::JsonValue v = xp::parse_json(line);
        pass.shard_ranges.push_back(
            {v.u64_or("device_first", 0), static_cast<std::size_t>(v.u64_or("device_count", 0))});
        if (const xp::JsonValue* timing = v.find("timing")) {
            pass.shard_wall_s += timing->number_or("wall_ms", 0.0) / 1000.0;
        }
    }
    // The store in fixed-size chunks, so hashing it adds no whole-store copy
    // to the peak RSS the run reports.
    std::ifstream bytes(store, std::ios::binary);
    std::vector<char> chunk(kStoreChunk);
    while (bytes.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
           bytes.gcount() > 0) {
        const auto n = static_cast<std::size_t>(bytes.gcount());
        digest.add(std::string_view(chunk.data(), n));
        pass.store_bytes += static_cast<long long>(n);
    }
    r.digest = digest.hex();
    return pass;
}

template <typename F>
double median_of(const std::vector<Pass>& passes, F f) {
    std::vector<double> v;
    v.reserve(passes.size());
    for (const Pass& p : passes) v.push_back(f(p));
    return median(std::move(v));
}

} // namespace

Outcome run_fleet_workload(const Options& opts) {
    Outcome out;
    const double workers = opts.workers;

    // Set-up is spec parse + Population construction; the first set-up's
    // population serves every pass. Measured passes keep their own records
    // (the xp.* and traced metrics read them), without the shard ranges.
    const std::string text = measured_text(derive_seed(opts.seed, 0), opts.smoke);
    std::shared_ptr<const fleet::Population> population_ptr;
    std::vector<Pass> passes;
    Workload workload;
    workload.set_up = [&]() -> std::shared_ptr<const void> {
        auto made = std::make_shared<const fleet::Population>(fleet::parse_fleet_spec(text));
        if (!population_ptr) population_ptr = made;
        return made;
    };
    workload.canonical = [&] {
        const fleet::Population canonical(fleet::parse_fleet_spec(canonical_text(opts.smoke)));
        return run_pass(canonical, opts.workers, opts.work_dir).result;
    };
    workload.pass = [&] {
        Pass pass = run_pass(*population_ptr, opts.workers, opts.work_dir);
        pass.shard_ranges.clear();
        passes.push_back(pass);
        return pass.result;
    };
    const Measured measured = measure_passes(opts, workload, out);
    if (!opts.trace) return out;

    // ---- traced run: the same population again, the first pass and the shard
    // replay under a trace sink, the rest timed only.
    const fleet::Population& population = *population_ptr;
    const fleet::FleetSpec& spec = population.spec();
    const std::string trace_path = opts.work_dir + "/trace.json";
    std::vector<Pass> traced;
    {
        obs::TraceSink sink(trace_path);
        obs::install_trace(&sink);
        sink.set_thread_name("e2ebench");
        {
            const obs::Span span("fleet.pass");
            traced.push_back(run_pass(population, opts.workers, opts.work_dir));
        }
        // Shard replay: manufacture_shard + measure_batch per shard of the
        // run, single-threaded, on the campaign's own ranges and streams.
        std::vector<double> shard_ms;
        double replay_s = 0.0;
        double measure_s = 0.0;
        long long measurements = 0;
        std::vector<std::vector<double>> scratch;
        {
            const obs::Span span("fleet.shard_replay");
            for (const Shard& shard : traced.front().shard_ranges) {
                const auto t0 = Clock::now();
                sim::RoFleet devices = population.manufacture_shard(
                    shard.first, shard.count, fleet::Population::Phase::campaign);
                const auto t1 = Clock::now();
                devices.measure_batch(sim::Condition{}, spec.trials * spec.majority_wins,
                                      scratch);
                const auto t2 = Clock::now();
                shard_ms.push_back(seconds_between(t0, t2) * 1e3);
                replay_s += seconds_between(t0, t2);
                measure_s += seconds_between(t1, t2);
                measurements += static_cast<long long>(shard.count) * spec.ro_count() *
                                spec.trials * spec.majority_wins;
            }
        }
        obs::install_trace(nullptr);
        if (!sink.close()) out.fail("could not write " + trace_path);
        out.set("sim.measure_s", measure_s);
        out.set("sim.measurements", static_cast<double>(measurements));
        out.set("sim.meas_per_s", static_cast<double>(measurements) / measure_s);
        out.set("fleet.measure_s", replay_s);
        out.set("fleet.shard_ms_p50", quantile(shard_ms, 0.50));
        out.set("fleet.shard_ms_p95", quantile(shard_ms, 0.95));
    }
    while (seconds_between(measured.start, Clock::now()) < opts.seconds) {
        traced.push_back(run_pass(population, opts.workers, opts.work_dir));
    }
    const std::string& digest = measured.passes.front().digest;
    for (const Pass& p : traced) {
        check_pass(out, p.result, "traced pass");
        if (p.result.digest != digest) {
            out.fail("traced pass digest differs from the untraced pass with the same seed");
        }
    }
    out.detail["trace"] = trace_path;
    out.detail["traced_passes"] = std::to_string(traced.size());

    const double enroll_s = median_of(traced, [](const Pass& p) { return p.result.enroll_s; });
    out.set("fleet.enroll_s", enroll_s);
    out.set("fleet.store_mb_per_s",
            static_cast<double>(traced.front().store_bytes) / (1024.0 * 1024.0) / enroll_s);
    out.set("fleet.map_open_s", median_of(traced, [](const Pass& p) { return p.map_open_s; }));
    out.set("fleet.campaign_s", median_of(traced, [](const Pass& p) { return p.campaign_s; }));
    out.set("fleet.steals",
            median_of(traced, [](const Pass& p) { return static_cast<double>(p.steals); }));
    out.set("traced.other_s", median_of(traced, [](const Pass& p) {
                return p.result.wall_s - p.result.enroll_s - p.map_open_s - p.campaign_s;
            }));
    std::vector<double> untraced_cpu_us;
    for (const PassResult& p : measured.passes) untraced_cpu_us.push_back(cpu_us_per_query(p));
    out.set("traced.overhead_frac",
            median_of(traced, [](const Pass& p) { return cpu_us_per_query(p.result); }) /
                    median(untraced_cpu_us) -
                1.0);

    // Scheduler utilization from the untraced passes' shard records: shards
    // run `workers` at a time, so idle is campaign wall minus the per-worker
    // share of shard wall.
    double shard_wall = 0.0;
    double campaign = 0.0;
    std::vector<double> gaps;
    for (const Pass& p : passes) {
        shard_wall += p.shard_wall_s;
        campaign += p.campaign_s;
        gaps.push_back(p.campaign_s - p.shard_wall_s / workers);
    }
    out.set("xp.busy_frac", shard_wall / (workers * campaign));
    out.set("xp.gap_s", median(gaps));

    // Store I/O replays on the run's own shard records: the resume read path
    // and the JSONL append the committer uses.
    const std::string results = opts.work_dir + "/fleet.jsonl";
    std::vector<double> read_s;
    for (int rep = 0; rep < kReplayReps; ++rep) {
        const auto t0 = Clock::now();
        const auto done = fleet::completed_shards(results, spec);
        read_s.push_back(seconds_between(t0, Clock::now()));
        if (static_cast<long long>(done.size()) != traced.back().result.attempted) {
            out.fail("resume read path found " + std::to_string(done.size()) + " of " +
                     std::to_string(traced.back().result.attempted) + " shards");
        }
    }
    out.set("xp.read_s", median(read_s));
    std::vector<std::string> lines;
    {
        std::ifstream in(results, std::ios::binary);
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
    }
    std::vector<double> append_us;
    for (int rep = 0; rep < kReplayReps; ++rep) {
        xp::ResultWriter writer(opts.work_dir + "/append_replay.jsonl", /*truncate=*/true);
        for (const std::string& line : lines) {
            const auto t0 = Clock::now();
            writer.append_line(line);
            append_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        }
    }
    out.set("xp.append_us", median(append_us));

    set_absent(out, {"attack.step_s", "attack.batches", "attack.probes", "ecc.regen_s",
                     "ecc.regen_calls", "ecc.regen_us_p50", "ecc.regen_us_p99",
                     "helperdata.parse_s", "helperdata.check_s", "helperdata.encode_s",
                     "helperdata.blob_bytes", "defense.self_s", "defense.refused_frac",
                     "core.oracle_other_s"});
    return out;
}

} // namespace e2e

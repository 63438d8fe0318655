// ropuf::fleet — the device-population engine's contracts.
//
// The load-bearing properties, each pinned here:
//   * order independence: a device manufactured / measured / enrolled alone
//     is bit-identical to the same device inside any shard;
//   * scheduler determinism: campaign output bytes (deterministic prefixes)
//     are identical across {1, 2, 8} workers, under forced schedule skew
//     (fi job_hang), and across interrupted-then-resumed runs;
//   * the shared fault policy: a watchdog-tripped shard retries to the
//     clean bytes, and a permanently failing one quarantines after the
//     whole attempt budget, then resumes to the clean run;
//   * parallel enrollment: store bytes are identical across {1, 2, 8}
//     workers, under store faults driven by the CLI's retry loop, and
//     across a mid-run stop or a mid-file torn tail followed by a resume;
//   * binary-store crash tolerance: truncating the store at EVERY byte
//     offset of its tail record loses at most that record, the reader
//     never throws, and a resumed writer rebuilds the clean file bitwise
//     (the fixed-width mirror of test_xp_store's torn-line property);
//   * fleet-scale: a 100k-device population enrolls and campaigns with
//     shard-local memory, bitwise identical across worker counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ropuf/core/parallel.hpp"
#include "ropuf/core/sanitizer.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/stats.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/simd/simd.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

// Three shards (64 + 64 + 32 devices), two wafers, noisy enough that some
// reconstruction trials flip bits (the aggregate paths beyond "all ok" are
// exercised), small enough for every sanitizer.
constexpr const char* kSpecText =
    "name            = fleet_test\n"
    "devices         = 160\n"
    "wafer_size      = 128\n"
    "wafer_cols      = 16\n"
    "geometry        = 8x4\n"
    "key_bits        = 12\n"
    "enroll_samples  = 5\n"
    "majority_wins   = 3\n"
    "trials          = 3\n"
    "sigma_noise_mhz = 0.25\n"
    "base_seed       = 99\n";

std::string temp_path(const char* stem, const char* ext = ".jsonl") {
    return testing::TempDir() + stem + std::to_string(::getpid()) + ext;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

std::vector<std::string> deterministic_lines(const std::string& path) {
    std::vector<std::string> lines;
    for (const std::string& line : read_lines(path)) {
        lines.emplace_back(xp::deterministic_prefix(line));
    }
    return lines;
}

void enroll_into(const fleet::Population& population, const std::string& store_path,
                 int workers = 0) {
    fleet::EnrollmentWriter writer(store_path, fleet::make_store_header(population.spec()),
                                   /*truncate=*/true);
    fleet::enroll_population(population, writer, /*stop=*/nullptr, workers);
    ASSERT_EQ(writer.next_device(), population.devices());
}

/// kSpecText's population resized to `devices`: enough shards that every
/// pool worker runs several and the commit ring wraps.
fleet::FleetSpec spec_with_devices(std::uint64_t devices) {
    fleet::FleetSpec spec = fleet::parse_fleet_spec(kSpecText);
    spec.devices = devices;
    return spec;
}

fleet::FleetRunStats run_campaign(const fleet::Population& population,
                                  const std::string& store_path,
                                  const std::string& results_path, int workers,
                                  long long max_shards = -1,
                                  fi::Injector* injector = nullptr,
                                  const xp::RetryPolicy& retry = {}) {
    const fleet::EnrollmentMap enrollment(store_path);
    xp::ResultWriter writer(results_path, /*truncate=*/false);
    fleet::FleetCampaignOptions opts;
    opts.workers = workers;
    opts.max_shards = max_shards;
    opts.retry = retry;
    opts.injector = injector;
    if (injector != nullptr) writer.set_fault_injector(injector);
    return fleet::run_fleet_campaign(population, enrollment, writer, opts);
}

// ---------------------------------------------------------------------------
// Spec parsing and content addressing
// ---------------------------------------------------------------------------

TEST(FleetSpec, CanonicalTextRoundTripsAndHashesStably) {
    const fleet::FleetSpec spec = fleet::parse_fleet_spec(kSpecText);
    EXPECT_EQ(spec.devices, 160u);
    EXPECT_EQ(spec.ro_count(), 32);
    EXPECT_EQ(spec.wafers(), 2u);
    // Canonical form is a fixed point: parsing it back changes nothing.
    const fleet::FleetSpec again = fleet::parse_fleet_spec(fleet::canonical_text(spec));
    EXPECT_EQ(fleet::canonical_text(again), fleet::canonical_text(spec));
    EXPECT_EQ(fleet::fleet_spec_hash(again), fleet::fleet_spec_hash(spec));
    // The raw and hex forms of the hash agree.
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fleet::fleet_spec_hash_u64(spec)));
    EXPECT_EQ(fleet::fleet_spec_hash(spec), hex);
}

TEST(FleetSpec, RejectsInvalidPopulations) {
    EXPECT_THROW((void)fleet::parse_fleet_spec("name = x\n"), xp::SpecError); // no devices
    EXPECT_THROW((void)fleet::parse_fleet_spec("devices = 4\n"), xp::SpecError); // no name
    EXPECT_THROW((void)fleet::parse_fleet_spec("name = x\ndevices = 4\nbogus_key = 1\n"),
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\ndevices = 5\n"), // duplicate key
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\ngeometry = 8x4\nkey_bits = 17\n"), // > pairs
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nmajority_wins = 4\n"), // even vote
                 xp::SpecError);
    EXPECT_THROW((void)fleet::parse_fleet_spec(
                     "name = x\ndevices = 4\nwafer_size = 10\nwafer_cols = 4\n"),
                 xp::SpecError);
}

// ---------------------------------------------------------------------------
// Population: order independence of manufacture, measurement, enrollment
// ---------------------------------------------------------------------------

TEST(FleetPopulation, DeviceMeasuresIdenticallyAloneAndInShard) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    // Device 70 sits mid-shard-1; measure it alone and as part of its shard.
    const std::uint64_t d = 70;
    std::vector<std::vector<double>> alone, shard;
    population.manufacture_shard(d, 1, fleet::Population::Phase::campaign)
        .measure_batch(sim::Condition{}, 9, alone);
    population.manufacture_shard(64, 64, fleet::Population::Phase::campaign)
        .measure_batch(sim::Condition{}, 9, shard);
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(shard.size(), 64u);
    EXPECT_EQ(alone[0], shard[d - 64]); // bitwise: streams key on the global id
    // The enroll phase must draw different noise than the campaign phase.
    std::vector<std::vector<double>> enroll_scans;
    population.manufacture_shard(d, 1, fleet::Population::Phase::enroll)
        .measure_batch(sim::Condition{}, 9, enroll_scans);
    EXPECT_NE(alone[0], enroll_scans[0]);
}

TEST(FleetPopulation, WaferCoeffsSharedWithinAndDistinctAcrossWafers) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const fleet::WaferCoeffs w0 = population.wafer_coeffs(0);
    const fleet::WaferCoeffs w1 = population.wafer_coeffs(1);
    EXPECT_NE(w0.grad_x_mhz, w1.grad_x_mhz);
    // Devices 0 and 127 share wafer 0: identical shared tilt contribution.
    EXPECT_EQ(population.wafer_of(0), 0u);
    EXPECT_EQ(population.wafer_of(127), 0u);
    EXPECT_EQ(population.wafer_of(128), 1u);
    const sim::ProcessParams a = population.device_params(0);
    const sim::ProcessParams b = population.device_params(1);
    // Per-die residuals differ, but both carry the same wafer tilt: the
    // difference of their gradients is die-level only, so it is bounded by
    // a few die_grad sigmas while the wafer tilt itself can be much larger.
    EXPECT_NE(a.gradient_x_mhz, b.gradient_x_mhz);
}

TEST(FleetEnroll, SingleDeviceEnrollmentMatchesShardedEnrollment) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("enr", ".fleet");
    enroll_into(population, store_path);
    const fleet::EnrollmentMap store(store_path);
    ASSERT_EQ(store.valid_records(), population.devices());
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{64},
                            std::uint64_t{100}, std::uint64_t{159}}) {
        const fleet::EnrollmentRecord alone = fleet::enroll_device(population, d);
        const fleet::EnrollmentRecord stored = store.record(d);
        EXPECT_EQ(stored.device, d);
        EXPECT_EQ(alone.key_words, stored.key_words) << "device " << d;
        EXPECT_EQ(alone.helper, stored.helper) << "device " << d;
    }
    std::remove(store_path.c_str());
}

TEST(FleetEnroll, StoreBytesAreIdenticalAcrossWorkerCounts) {
    const fleet::Population population(spec_with_devices(2000)); // 32 shards
    const std::string path = temp_path("enr_w", ".fleet");
    enroll_into(population, path, 1);
    const std::string one = read_bytes(path);
    ASSERT_EQ(one.size(),
              fleet::kStoreHeaderBytes + 2000 * fleet::record_bytes_for(12));
    for (int workers : {2, 8}) {
        enroll_into(population, path, workers);
        EXPECT_EQ(read_bytes(path), one) << workers << " workers";
    }
    std::remove(path.c_str());
}

// The CLI's retry loop (enroll_with_retry) over an injected store-fault
// plan: faults are consulted per record in device order, so one worker and
// four fire the same faults and both end on the clean store's bytes.
TEST(FleetEnroll, StoreFaultsFireAlikeAtOneAndFourWorkers) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string clean_path = temp_path("enr_clean", ".fleet");
    enroll_into(population, clean_path);
    const std::string clean = read_bytes(clean_path);
    const std::string path = temp_path("enr_fault", ".fleet");
    for (const char* plan : {"seed(7);torn_write(every=3)", "seed(3);store_write_fail(p=0.2)"}) {
        int retries[2] = {0, 0};
        const int worker_counts[2] = {1, 4};
        for (int k = 0; k < 2; ++k) {
            std::remove(path.c_str());
            fi::Injector injector(fi::parse_fault_plan(plan));
            fleet::EnrollmentWriter writer(path, fleet::make_store_header(population.spec()));
            writer.set_fault_injector(&injector);
            const fleet::EnrollRunStats stats = fleet::enroll_with_retry(
                population, writer, /*max_attempts=*/10, /*stop=*/nullptr, worker_counts[k]);
            EXPECT_EQ(stats.enrolled, population.devices()) << plan;
            retries[k] = stats.store_retries;
        }
        EXPECT_GT(retries[0], 0) << plan;
        EXPECT_EQ(retries[1], retries[0]) << plan;
        EXPECT_EQ(read_bytes(path), clean) << plan;
    }

    // A single attempt stops at the first fault with exactly the bytes
    // one-record appends leave: the whole records before it, then half of
    // the torn one.
    std::remove(path.c_str());
    {
        fi::Injector injector(fi::parse_fault_plan("seed(7);torn_write(every=3)"));
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(population.spec()));
        writer.set_fault_injector(&injector);
        EXPECT_THROW(fleet::enroll_population(population, writer, /*stop=*/nullptr, 4),
                     fi::InjectedFault);
        EXPECT_EQ(writer.next_device(), 2u);
    }
    const std::size_t record_bytes = fleet::record_bytes_for(population.spec().key_bits);
    EXPECT_EQ(read_bytes(path),
              clean.substr(0, fleet::kStoreHeaderBytes + 2 * record_bytes + record_bytes / 2));
    std::remove(clean_path.c_str());
    std::remove(path.c_str());
}

// SIGINT's store, from another thread, once the first shard has committed:
// the store ends on a whole-record prefix and a resume completes it to the
// clean bytes.
TEST(FleetEnroll, StopMidEnrollLeavesAValidPrefixThatResumes) {
    const fleet::Population population(spec_with_devices(50000)); // 782 shards
    const std::string clean_path = temp_path("stop_clean", ".fleet");
    enroll_into(population, clean_path, 1);
    const std::string clean = read_bytes(clean_path);

    const std::string path = temp_path("stop", ".fleet");
    obs::Registry reg;
    obs::install(&reg);
    std::atomic<bool> stop{false};
    std::thread interrupter([&] {
        while (reg.snapshot().counter_or("fleet.devices_enrolled", 0.0) == 0.0) {
            std::this_thread::yield();
        }
        stop.store(true);
    });
    std::uint64_t stopped_at = 0;
    {
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(population.spec()),
                                       /*truncate=*/true);
        fleet::enroll_population(population, writer, &stop, 4);
        stopped_at = writer.next_device();
    }
    interrupter.join();
    obs::install(nullptr);
    EXPECT_GT(stopped_at, 0u);
    EXPECT_LT(stopped_at, population.devices());
    {
        const fleet::EnrollmentMap store(path);
        EXPECT_EQ(store.valid_records(), stopped_at);
        EXPECT_EQ(store.torn_tail_bytes(), 0u);
    }
    {
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(population.spec()));
        EXPECT_EQ(writer.next_device(), stopped_at);
        fleet::enroll_population(population, writer, /*stop=*/nullptr, 4);
    }
    EXPECT_EQ(read_bytes(path), clean);
    std::remove(clean_path.c_str());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Binary store: torn tails at every byte offset (the fixed-width mirror of
// test_xp_store's torn-line property)
// ---------------------------------------------------------------------------

TEST(FleetStore, TruncationAtEveryTailOffsetLosesAtMostOneRecord) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("torn", ".fleet");
    enroll_into(population, store_path);
    const std::string clean = read_bytes(store_path);
    const std::size_t record_bytes =
        fleet::record_bytes_for(population.spec().key_bits);
    ASSERT_EQ(clean.size(), fleet::kStoreHeaderBytes + 160 * record_bytes);

    // Cut the file at every offset inside the last record (including the
    // empty cut): the reader must expose exactly the 159 intact records.
    for (std::size_t cut = 0; cut < record_bytes; ++cut) {
        write_bytes(store_path, clean.substr(0, clean.size() - record_bytes + cut));
        const fleet::EnrollmentMap store(store_path);
        EXPECT_EQ(store.valid_records(), 159u) << "cut " << cut;
        EXPECT_EQ(store.torn_tail_bytes(), cut) << "cut " << cut;
        EXPECT_EQ(store.record(158).device, 158u);
    }

    // Resume over a torn tail: the writer re-enrolls the lost record and
    // the rebuilt file is byte-identical to the never-torn one.
    write_bytes(store_path, clean.substr(0, clean.size() - record_bytes / 2));
    {
        fleet::EnrollmentWriter writer(store_path,
                                       fleet::make_store_header(population.spec()));
        EXPECT_EQ(writer.next_device(), 159u);
        fleet::enroll_population(population, writer);
        EXPECT_EQ(writer.next_device(), 160u);
    }
    EXPECT_EQ(read_bytes(store_path), clean);
    std::remove(store_path.c_str());
}

// A torn tail mid-file (a crash while a batch was in flight, far from the
// end of the population): a four-worker resume rewrites from the first
// torn record and restores the never-torn bytes.
TEST(FleetStore, FourWorkerResumeOverAMidFileTornTailRebuildsTheCleanBytes) {
    const fleet::Population population(spec_with_devices(2000));
    const std::string store_path = temp_path("midtorn", ".fleet");
    enroll_into(population, store_path, 1);
    const std::string clean = read_bytes(store_path);
    const std::size_t record_bytes =
        fleet::record_bytes_for(population.spec().key_bits);
    write_bytes(store_path,
                clean.substr(0, fleet::kStoreHeaderBytes + 700 * record_bytes +
                                    record_bytes / 2));
    {
        fleet::EnrollmentWriter writer(store_path,
                                       fleet::make_store_header(population.spec()));
        EXPECT_EQ(writer.next_device(), 700u);
        EXPECT_EQ(fleet::enroll_population(population, writer, /*stop=*/nullptr, 4), 1300u);
    }
    EXPECT_EQ(read_bytes(store_path), clean);
    std::remove(store_path.c_str());
}

TEST(FleetStore, CorruptedRecordTruncatesTheValidPrefix) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("corrupt", ".fleet");
    enroll_into(population, store_path);
    std::string bytes = read_bytes(store_path);
    const std::size_t record_bytes =
        fleet::record_bytes_for(population.spec().key_bits);
    // Flip one byte inside record 40: records 0..39 stay visible — a fleet
    // campaign must never reconstruct against a checksum-failed enrollment.
    bytes[fleet::kStoreHeaderBytes + 40 * record_bytes + 5] ^= 0x01;
    write_bytes(store_path, bytes);
    const fleet::EnrollmentMap store(store_path);
    EXPECT_EQ(store.valid_records(), 40u);
    std::remove(store_path.c_str());
}

TEST(FleetStore, ReopenRejectsAMismatchedSpec) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("mismatch", ".fleet");
    enroll_into(population, store_path);
    fleet::FleetSpec other = population.spec();
    other.base_seed = 1234; // different population, same shape
    EXPECT_THROW(fleet::EnrollmentWriter(store_path, fleet::make_store_header(other)),
                 xp::SpecError);
    std::remove(store_path.c_str());
}

// ---------------------------------------------------------------------------
// Campaign: scheduler determinism
// ---------------------------------------------------------------------------

class FleetCampaignTest : public testing::Test {
protected:
    void SetUp() override {
        population_ = std::make_unique<fleet::Population>(fleet::parse_fleet_spec(kSpecText));
        store_path_ = temp_path("camp", ".fleet");
        enroll_into(*population_, store_path_);
    }
    void TearDown() override {
        obs::install(nullptr);
        std::remove(store_path_.c_str());
        for (const std::string& p : results_) std::remove(p.c_str());
    }
    std::string results_path(const char* stem) {
        results_.push_back(temp_path(stem));
        return results_.back();
    }

    std::unique_ptr<fleet::Population> population_;
    std::string store_path_;
    std::vector<std::string> results_;
};

TEST_F(FleetCampaignTest, OutputIsBitwiseIdenticalAcrossWorkerCounts) {
    const std::string base = results_path("w1");
    const auto s1 = run_campaign(*population_, store_path_, base, 1);
    EXPECT_EQ(s1.executed, 3u);
    EXPECT_EQ(s1.devices, 160u);
    EXPECT_EQ(s1.trials, 480u);
    EXPECT_FALSE(s1.stopped);
    const auto lines = deterministic_lines(base);
    ASSERT_EQ(lines.size(), 3u);
    // 0 = hardware concurrency, as for xp runs and enrollment.
    for (int workers : {0, 2, 8}) {
        const std::string path = results_path(("w" + std::to_string(workers)).c_str());
        const auto stats = run_campaign(*population_, store_path_, path, workers);
        EXPECT_EQ(stats.executed, 3u);
        EXPECT_EQ(stats.devices_ok, s1.devices_ok);
        EXPECT_EQ(stats.bit_errors, s1.bit_errors);
        EXPECT_EQ(deterministic_lines(path), lines) << workers << " workers";
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);) {
            EXPECT_EQ(xp::parse_json(line).find("timing")->number_or("workers", -1.0),
                      static_cast<double>(core::resolve_workers(workers)))
                << workers << " workers";
        }
    }
    // The noisy spec exercises the non-trivial aggregate paths.
    EXPECT_GT(s1.bit_errors, 0u);
    EXPECT_LT(s1.devices_ok, s1.devices);
}

TEST_F(FleetCampaignTest, ForcedScheduleSkewDoesNotChangeTheBytes) {
    const std::string base = results_path("noskew");
    (void)run_campaign(*population_, store_path_, base, 1);

    // Hang shard 0 long enough that the other worker claims and finishes
    // every remaining shard first: skewed and in-order schedules must agree.
    fi::Injector injector(fi::parse_fault_plan("seed(1);job_hang(ids=0,ms=400)"));
    const std::string skew = results_path("skew");
    const auto stats = run_campaign(*population_, store_path_, skew, 2,
                                    /*max_shards=*/-1, &injector);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.steals, 0u); // the shared pool has no per-worker queues
    EXPECT_EQ(deterministic_lines(skew), deterministic_lines(base));
}

/// The "fault" side-key of each line of `path` (empty when absent).
std::vector<std::string> fault_keys(const std::string& path) {
    std::vector<std::string> keys;
    for (const std::string& line : read_lines(path)) {
        const std::size_t pos = line.find(",\"fault\":");
        keys.push_back(pos == std::string::npos ? "" : line.substr(pos));
    }
    return keys;
}

TEST_F(FleetCampaignTest, WatchdogTrippedShardRetriesToTheCleanBytes) {
    const std::string clean = results_path("wdclean");
    (void)run_campaign(*population_, store_path_, clean, 2);

    // hang >> watchdog >> an honest shard, all scaled for sanitizer builds.
    const double scale = core::sanitized_build() ? 10.0 : 1.0;
    char plan[64];
    std::snprintf(plan, sizeof plan, "seed(1);job_hang(ids=1,ms=%d,times=1)",
                  static_cast<int>(400 * scale));
    fi::Injector injector(fi::parse_fault_plan(plan));
    xp::RetryPolicy retry;
    retry.backoff_base_ms = 0.0;
    retry.job_timeout_ms = 50.0 * scale;
    const std::string path = results_path("wd");
    const auto stats = run_campaign(*population_, store_path_, path, 2, /*max_shards=*/-1,
                                    &injector, retry);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(fault_keys(path),
              (std::vector<std::string>{"", ",\"fault\":{\"attempts\":2}}", ""}));
    EXPECT_EQ(deterministic_lines(path), deterministic_lines(clean));
}

TEST_F(FleetCampaignTest, MaxShardsQuotaThenResumeMatchesCleanRun) {
    const std::string clean = results_path("clean");
    (void)run_campaign(*population_, store_path_, clean, 2);

    const std::string split = results_path("split");
    const auto part = run_campaign(*population_, store_path_, split, 2, /*max_shards=*/1);
    EXPECT_EQ(part.executed, 1u);
    EXPECT_FALSE(part.stopped); // a quota cut is clean, not an interruption
    const auto rest = run_campaign(*population_, store_path_, split, 2);
    EXPECT_EQ(rest.skipped, 1u);
    EXPECT_EQ(rest.executed, 2u);
    const auto again = run_campaign(*population_, store_path_, split, 2);
    EXPECT_EQ(again.skipped, 3u);
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(deterministic_lines(split), deterministic_lines(clean));
}

TEST_F(FleetCampaignTest, QuarantinedShardIsRecordedAndResumeRetriesIt) {
    const std::string clean = results_path("qclean");
    (void)run_campaign(*population_, store_path_, clean, 1);

    // times=0: shard 1 throws on every attempt, so it spends the whole
    // budget and is quarantined with the real attempt count.
    fi::Injector injector(fi::parse_fault_plan("seed(1);job_throw(ids=1,times=0)"));
    xp::RetryPolicy retry;
    retry.max_attempts = 4;
    retry.backoff_base_ms = 0.0;
    const std::string path = results_path("quar");
    const auto stats = run_campaign(*population_, store_path_, path, 1,
                                    /*max_shards=*/-1, &injector, retry);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retries, 3u);
    const std::vector<std::string> lines = deterministic_lines(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[1].find("\"outcome\":\"job_failed\""), std::string::npos);
    EXPECT_EQ(fault_keys(path)[1].rfind(",\"fault\":{\"attempts\":4,\"class\":"
                                        "\"injected_fault\"",
                                        0),
              0u);

    // Resume re-runs only the failed shard; the ok records then match the
    // clean run's (the quarantine line remains as history, like xp).
    const auto resumed = run_campaign(*population_, store_path_, path, 1);
    EXPECT_EQ(resumed.skipped, 2u);
    EXPECT_EQ(resumed.executed, 1u);
    std::vector<std::string> ok_lines;
    for (const auto& line : deterministic_lines(path)) {
        if (line.find("\"outcome\":\"ok\"") != std::string::npos) ok_lines.push_back(line);
    }
    std::sort(ok_lines.begin(), ok_lines.end());
    auto clean_lines = deterministic_lines(clean);
    std::sort(clean_lines.begin(), clean_lines.end());
    EXPECT_EQ(ok_lines, clean_lines);
}

/// `line` with the value of its "wall_ms" timing field replaced by "W".
std::string mask_wall_ms(std::string line) {
    const std::string key = "\"wall_ms\":";
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return line;
    const std::size_t from = at + key.size();
    line.replace(from, line.find(',', from) - from, "W");
    return line;
}

// Full-byte pin of the committed fleet_smoke population's shard lines — an
// ok shard and a quarantined one — with only the wall clock masked and the
// host's core count and SIMD path spliced in.
TEST(FleetRecord, SmokeShardLinesArePinnedToExactBytes) {
    std::ifstream spec_in(std::string(ROPUF_SOURCE_DIR) + "/specs/fleet_smoke.spec");
    std::ostringstream spec_text;
    spec_text << spec_in.rdbuf();
    const fleet::Population population(fleet::parse_fleet_spec(spec_text.str()));
    const std::string store_path = temp_path("pin", ".fleet");
    const std::string path = temp_path("pin");
    std::remove(path.c_str());
    enroll_into(population, store_path);
    fi::Injector injector(fi::parse_fault_plan("seed(1);job_throw(ids=1,times=0)"));
    xp::RetryPolicy retry;
    retry.max_attempts = 2;
    retry.backoff_base_ms = 0.0;
    (void)run_campaign(population, store_path, path, 1, /*max_shards=*/2, &injector, retry);
    const std::vector<std::string> lines = read_lines(path);
    std::remove(store_path.c_str());
    std::remove(path.c_str());
    ASSERT_EQ(lines.size(), 2u);
    const std::string host = ",\"hardware_concurrency\":" +
                             std::to_string(std::thread::hardware_concurrency()) +
                             ",\"simd\":\"" +
                             std::string(simd::path_name(simd::active_path())) + "\"}";
    EXPECT_EQ(mask_wall_ms(lines[0]),
              "{\"spec\":\"fleet_smoke\",\"spec_hash\":\"d419be3f8d7cfe4d\","
              "\"job\":\"d419be3f8d7cfe4d-s00000\",\"shard\":0,\"device_first\":0,"
              "\"device_count\":64,\"key_bits\":48,\"trials\":3,\"majority_wins\":5,"
              "\"base_seed\":42,\"devices_ok\":64,\"trials_ok\":192,\"bit_errors\":0,"
              "\"success_hist\":[0,0,0,64],\"measurements\":122880,\"outcome\":\"ok\","
              "\"timing\":{\"wall_ms\":W,\"workers\":1" +
                  host + "}");
    EXPECT_EQ(mask_wall_ms(lines[1]),
              "{\"spec\":\"fleet_smoke\",\"spec_hash\":\"d419be3f8d7cfe4d\","
              "\"job\":\"d419be3f8d7cfe4d-s00001\",\"shard\":1,\"device_first\":64,"
              "\"device_count\":64,\"outcome\":\"job_failed\","
              "\"timing\":{\"wall_ms\":W,\"workers\":1" +
                  host +
                  ",\"fault\":{\"attempts\":2,\"class\":\"injected_fault\","
                  "\"message\":\"injected job_throw (job 1, attempt 2)\"}}");
}

TEST_F(FleetCampaignTest, StoreFaultsAreRetriedThenFatalNeverLost) {
    const std::string clean = results_path("sclean");
    (void)run_campaign(*population_, store_path_, clean, 1);

    // Every append fails with p = 0.5; the budget absorbs them and no
    // record goes missing.
    xp::RetryPolicy retry;
    retry.max_attempts = 30;
    retry.backoff_base_ms = 0.0;
    fi::Injector flaky(fi::parse_fault_plan("seed(5);store_write_fail(p=0.5)"));
    const std::string path = results_path("sflaky");
    const auto stats =
        run_campaign(*population_, store_path_, path, 2, /*max_shards=*/-1, &flaky, retry);
    EXPECT_GT(stats.store_retries, 0u);
    EXPECT_EQ(deterministic_lines(path), deterministic_lines(clean));

    // A store that never accepts a write is fatal past the budget.
    fi::Injector dead(fi::parse_fault_plan("store_write_fail(p=1)"));
    EXPECT_THROW((void)run_campaign(*population_, store_path_, results_path("sdead"), 2,
                                    /*max_shards=*/-1, &dead, retry),
                 fi::InjectedFault);
}

TEST_F(FleetCampaignTest, PublishesSchedulerAndPopulationCounters) {
    obs::Registry reg;
    obs::install(&reg);
    const std::string path = results_path("obs");
    const auto stats = run_campaign(*population_, store_path_, path, 2);
    obs::install(nullptr);
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter_or("fleet.shards_done", 0.0), 3.0);
    EXPECT_EQ(snap.counter_or("fleet.devices_done", 0.0), 160.0);
    EXPECT_EQ(snap.counter_or("xp.jobs_done", 0.0), 3.0);
    EXPECT_EQ(snap.counter_or("campaign.trials", 0.0), 480.0);
    EXPECT_EQ(snap.gauge_or("xp.jobs_total", 0.0), 3.0);
    EXPECT_EQ(stats.executed, 3u);
}

// ---------------------------------------------------------------------------
// Population stats
// ---------------------------------------------------------------------------

TEST(FleetStats, InvariantsHoldOnAnEnrolledPopulation) {
    const fleet::Population population(fleet::parse_fleet_spec(kSpecText));
    const std::string store_path = temp_path("stats", ".fleet");
    enroll_into(population, store_path);
    const fleet::EnrollmentMap store(store_path);
    const fleet::PopulationStats s = fleet::population_stats(store);
    EXPECT_EQ(s.devices, 160u);
    EXPECT_EQ(s.key_bits, 12u);
    EXPECT_GT(s.key_entropy_bits, 0.0);
    EXPECT_LE(s.key_entropy_bits, 12.0);
    EXPECT_GE(s.min_bit_entropy, 0.0);
    EXPECT_LE(s.min_bit_entropy, 1.0);
    ASSERT_EQ(s.bit_ones.size(), 12u);
    EXPECT_EQ(s.helper_collision_devices, s.devices - s.distinct_helpers);
    EXPECT_GE(s.largest_helper_group, s.largest_break_group);
    const std::string rendered = fleet::render_population_stats(s);
    EXPECT_NE(rendered.find("key entropy"), std::string::npos);
    std::remove(store_path.c_str());
}

// ---------------------------------------------------------------------------
// Fleet scale: 100k devices, O(shard) memory, worker-count independent
// ---------------------------------------------------------------------------

TEST(FleetScale, HundredThousandDevicesCampaignBitwiseAcrossWorkers) {
    const fleet::FleetSpec spec = fleet::parse_fleet_spec(
        "name            = fleet_scale\n"
        "devices         = 100000\n"
        "wafer_size      = 256\n"
        "wafer_cols      = 16\n"
        "geometry        = 8x4\n"
        "key_bits        = 12\n"
        "enroll_samples  = 5\n"
        "majority_wins   = 3\n"
        "trials          = 3\n"
        "sigma_noise_mhz = 0.05\n"
        "base_seed       = 7\n");
    const fleet::Population population(spec);
    const std::string store_path = temp_path("scale", ".fleet");
    enroll_into(population, store_path);
    {
        const fleet::EnrollmentMap store(store_path);
        EXPECT_EQ(store.valid_records(), 100000u);
    }
    const std::string a = temp_path("scale_w1");
    const std::string b = temp_path("scale_w2");
    const auto s1 = run_campaign(population, store_path, a, 1);
    const auto s2 = run_campaign(population, store_path, b, 2);
    EXPECT_EQ(s1.executed, 1563u);
    EXPECT_EQ(s1.devices, 100000u);
    EXPECT_EQ(s1.trials, 300000u);
    EXPECT_EQ(s2.devices_ok, s1.devices_ok);
    EXPECT_EQ(s2.bit_errors, s1.bit_errors);
    EXPECT_EQ(deterministic_lines(a), deterministic_lines(b));
    std::remove(store_path.c_str());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

} // namespace

// Fuzzing the xp spec/JSON parsers, the fault-plan grammar and the fleet
// spec and enrollment-store readers with the pt_util generator harness:
// structured mutations of the committed specs/*.spec files, mutated JSONL
// result records, mutated canonical fault plans, mutated and truncated
// enrollment stores, and raw garbage. The contract under test is total
// robustness — every input either parses or throws a typed exception
// (SpecError / JsonError / std::logic_error / FaultPlanError); anything else
// (crash, UB, runaway allocation, foreign exception type) is a bug. The ASan/UBSan CI
// job runs the same binary with a 30-second budget (ctest target
// fuzz_smoke_30s, ROPUF_FUZZ_MS=30000) to surface memory errors the
// release build would survive silently.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pt_util.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

/// Per-test wall-clock budget: ROPUF_FUZZ_MS spread over the six mutation
/// tests (default keeps the tier-1 run fast; the smoke target raises it).
std::chrono::milliseconds fuzz_budget() {
    const char* env = std::getenv("ROPUF_FUZZ_MS");
    const long ms = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    return std::chrono::milliseconds(ms > 0 ? ms / 6 : 500);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string committed_spec_text(const std::string& name) {
    return read_file(std::string(ROPUF_SOURCE_DIR) + "/specs/" + name + ".spec");
}

std::vector<std::string> committed_spec_texts() {
    static const char* kSpecs[] = {"smoke", "fig1_array_size", "fig5_failure_pdf",
                                   "fig7_fuzzy", "fig_budget_curve", "fig_matrix",
                                   "paper_all"};
    std::vector<std::string> texts;
    for (const char* name : kSpecs) texts.push_back(committed_spec_text(name));
    return texts;
}

/// The robustness contract for one spec input: parse either rejects with
/// SpecError, or accepts — and an accepted spec's canonical text must
/// re-parse to the same canonical text (the content-addressing invariant;
/// a canonical form that fails to re-parse would orphan its spec hash).
/// Empty string = held.
std::string spec_parse_survives(const std::string& text) {
    xp::SweepSpec spec;
    try {
        spec = xp::parse_spec(text);
    } catch (const xp::SpecError&) {
        return ""; // typed rejection is the contract
    } catch (const std::exception& e) {
        return std::string("non-SpecError exception escaped: ") + e.what();
    }
    try {
        const std::string canonical = xp::canonical_text(spec);
        if (xp::canonical_text(xp::parse_spec(canonical)) != canonical) {
            return "canonical_text is not a fixpoint under re-parse";
        }
        return "";
    } catch (const std::exception& e) {
        return std::string("canonical text of an accepted spec failed to re-parse: ") +
               e.what();
    }
}

std::string json_parse_survives(const std::string& text) {
    try {
        (void)xp::parse_json(text);
        return "";
    } catch (const xp::JsonError&) {
        return "";
    } catch (const std::exception& e) {
        return std::string("non-JsonError exception escaped: ") + e.what();
    }
}

std::string record_parse_survives(const std::string& line) {
    try {
        (void)xp::parse_record(line);
        return "";
    } catch (const xp::JsonError&) {
        return "";
    } catch (const std::logic_error&) {
        return ""; // structurally-wrong records are rejected with logic_error
    } catch (const std::exception& e) {
        return std::string("unexpected exception type escaped: ") + e.what();
    }
}

/// The fault-plan contract: parse or throw FaultPlanError; an accepted
/// plan's canonical text re-parses to the same canonical text and hash
/// (the hash is what a chaos run prints to name its plan).
std::string fault_plan_parse_survives(const std::string& text) {
    fi::FaultPlan plan;
    try {
        plan = fi::parse_fault_plan(text);
    } catch (const fi::FaultPlanError&) {
        return "";
    } catch (const std::exception& e) {
        return std::string("non-FaultPlanError exception escaped: ") + e.what();
    }
    try {
        const std::string canonical = fi::canonical_fault_plan(plan);
        const fi::FaultPlan again = fi::parse_fault_plan(canonical);
        if (fi::canonical_fault_plan(again) != canonical) {
            return "canonical_fault_plan is not a fixpoint under re-parse";
        }
        if (fi::fault_plan_hash(again) != fi::fault_plan_hash(plan)) {
            return "fault_plan_hash changed under re-parse";
        }
        return "";
    } catch (const std::exception& e) {
        return std::string("canonical text of an accepted plan failed to re-parse: ") +
               e.what();
    }
}

/// The fleet spec contract, the same as the sweep spec's: parse or throw
/// SpecError, and an accepted spec's canonical text is a fixpoint (the
/// store header and shard job IDs key off its hash).
std::string fleet_spec_parse_survives(const std::string& text) {
    fleet::FleetSpec spec;
    try {
        spec = fleet::parse_fleet_spec(text);
    } catch (const xp::SpecError&) {
        return "";
    } catch (const std::exception& e) {
        return std::string("non-SpecError exception escaped: ") + e.what();
    }
    try {
        const std::string canonical = fleet::canonical_text(spec);
        if (fleet::canonical_text(fleet::parse_fleet_spec(canonical)) != canonical) {
            return "fleet canonical_text is not a fixpoint under re-parse";
        }
        return "";
    } catch (const std::exception& e) {
        return std::string("canonical text of an accepted fleet spec failed to re-parse: ") +
               e.what();
    }
}

std::string store_fuzz_path() {
    return testing::TempDir() + "fuzz_store_" + std::to_string(::getpid()) + ".fleet";
}

/// The enrollment-store contract for one file image: opening it either
/// throws SpecError, or every record below valid_records() decodes to its
/// own device id and the header's key width.
std::string store_open_survives(const std::vector<std::uint8_t>& image) {
    const std::string path = store_fuzz_path();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(image.data()),
                  static_cast<std::streamsize>(image.size()));
    }
    std::unique_ptr<fleet::EnrollmentMap> map;
    try {
        map = std::make_unique<fleet::EnrollmentMap>(path);
    } catch (const xp::SpecError&) {
        return "";
    } catch (const std::exception& e) {
        return std::string("non-SpecError exception escaped the open: ") + e.what();
    }
    try {
        for (std::uint64_t i = 0; i < map->valid_records(); ++i) {
            const fleet::EnrollmentRecord rec = map->record(i);
            if (rec.device != i || rec.helper.size() != map->header().key_bits) {
                return "record " + std::to_string(i) + " decoded inconsistently";
            }
        }
        return "";
    } catch (const std::exception& e) {
        return std::string("a valid record failed to decode: ") + e.what();
    }
}

/// A small enrolled store: the fleet_smoke population cut to one shard.
std::vector<std::uint8_t> small_store_image() {
    fleet::FleetSpec spec = fleet::parse_fleet_spec(committed_spec_text("fleet_smoke"));
    spec.devices = fleet::kShardDevices;
    const fleet::Population population(spec);
    const std::string path = store_fuzz_path();
    {
        fleet::EnrollmentWriter writer(path, fleet::make_store_header(spec), /*truncate=*/true);
        fleet::enroll_population(population, writer, /*stop=*/nullptr, /*workers=*/1);
    }
    const std::string bytes = read_file(path);
    return {bytes.begin(), bytes.end()};
}

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int i = width - 1; i >= 0; --i) v = (v << 8) | bytes[at + static_cast<std::size_t>(i)];
    return v;
}

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, int width, std::uint64_t v) {
    for (int i = 0; i < width; ++i) {
        bytes[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/// Rewrites every full record's device id and checksum so the image passes
/// the reader's integrity scan under whatever header it now carries. Anyone
/// who can edit the file can do this; it drives mutated headers and record
/// bodies past the scan into record decoding.
void reseal(std::vector<std::uint8_t>& image) {
    if (image.size() < fleet::kStoreHeaderBytes) return;
    const auto record_bytes = static_cast<std::size_t>(get_le(image, 8, 4));
    if (record_bytes < 16) return; // device id and checksum would overlap
    std::uint64_t device = 0;
    for (std::size_t at = fleet::kStoreHeaderBytes; at + record_bytes <= image.size();
         at += record_bytes, ++device) {
        put_le(image, at, 8, device);
        const std::string_view body(reinterpret_cast<const char*>(image.data() + at),
                                    record_bytes - 8);
        put_le(image, at + record_bytes - 8, 8, xp::fnv1a64(body));
    }
}

/// Store mutations: byte-level (flips, truncation, appended garbage), a cut
/// at a random length, or a header field set to an edge value — with the
/// record width kept consistent with the key width half the time — and the
/// records resealed.
std::vector<std::uint8_t> mutate_store(const std::vector<std::uint8_t>& base, pt::Rng& rng) {
    switch (rng.uniform_int(0, 3)) {
        case 0:
            return pt::mutate_blob(base, rng);
        case 1:
            return {base.begin(),
                    base.begin() + static_cast<std::ptrdiff_t>(rng.uniform_u64(0, base.size()))};
        default:
            break;
    }
    static constexpr std::array<std::uint32_t, 20> kEdges = {
        0u,          1u,          2u,          7u,          8u,
        16u,         63u,         64u,         65u,         32767u,
        32768u,      65535u,      65536u,      0x7fffffffu, 0x80000000u,
        0xfffffff8u, 0xfffffff9u, 0xfffffffbu, 0xfffffffeu, 0xffffffffu};
    auto image = base;
    // Header fields: record_bytes @8, key_bits @12, devices @16, ro_count @40.
    static constexpr std::array<std::size_t, 4> kFields = {8, 12, 16, 40};
    const int edits = rng.uniform_int(1, 3);
    for (int e = 0; e < edits; ++e) {
        const std::size_t at = kFields[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        const std::uint32_t value =
            rng.uniform_int(0, 3) == 0
                ? static_cast<std::uint32_t>(rng.next())
                : kEdges[static_cast<std::size_t>(rng.uniform_int(0, kEdges.size() - 1))];
        put_le(image, at, 4, value);
    }
    if (rng.uniform_int(0, 1)) {
        const auto key_bits = static_cast<std::uint32_t>(get_le(image, 12, 4));
        put_le(image, 8, 4,
               static_cast<std::uint32_t>(fleet::record_bytes_for(static_cast<int>(key_bits))));
    }
    if (rng.uniform_int(0, 3) != 0) reseal(image);
    return image;
}

xp::JobRecord sample_record() {
    xp::JobRecord r;
    r.spec_name = "fuzz";
    r.spec_hash = "0123456789abcdef";
    r.job_id = "0123456789abcdef-00003";
    r.index = 3;
    r.scenario = "seqpair/swap";
    r.params.sigma_noise_mhz = 0.25;
    r.params.defense = "lockout(8)";
    r.trials = 4;
    r.root_seed = 0xfedcba9876543210ULL;
    r.campaign_seed = 0xdeadbeefcafef00dULL;
    r.outcomes.recovered = 2;
    r.outcomes.locked_out = 2;
    r.queries = {10.0, 1.0, 8.0, 12.0, 12.0};
    return r;
}

TEST(FuzzXp, MutatedCommittedSpecsParseOrThrowSpecError) {
    const auto bases = committed_spec_texts();
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 4242;
    int rounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto result = pt::check<std::string>(
            "mutated committed spec", seed, 200,
            [&](pt::Rng& rng) {
                const auto& base =
                    bases[static_cast<std::size_t>(rng.uniform_u64(0, bases.size() - 1))];
                return pt::mutate_text(base, rng);
            },
            pt::shrink_text, spec_parse_survives, pt::show_text);
        ASSERT_FALSE(result.failed) << result.summary();
        ++seed;
        ++rounds;
    }
    EXPECT_GT(rounds, 0);
}

TEST(FuzzXp, MutatedRecordsAndRawGarbageNeverEscapeTheParsers) {
    const std::string base_line = xp::to_jsonl(sample_record());
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 777;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto mutated = pt::check<std::string>(
            "mutated JSONL record", seed, 200,
            [&](pt::Rng& rng) { return pt::mutate_text(base_line, rng); }, pt::shrink_text,
            record_parse_survives, pt::show_text);
        ASSERT_FALSE(mutated.failed) << mutated.summary();

        const auto garbage = pt::check<std::string>(
            "raw garbage into parse_json", seed ^ 0x5a5a, 200,
            [&](pt::Rng& rng) {
                const auto blob = pt::random_blob(rng, 256);
                return std::string(blob.begin(), blob.end());
            },
            pt::shrink_text, json_parse_survives, pt::show_text);
        ASSERT_FALSE(garbage.failed) << garbage.summary();
        ++seed;
    }
}

TEST(FuzzXp, RawGarbageIntoSpecParser) {
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 31337;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto result = pt::check<std::string>(
            "raw garbage into parse_spec", seed, 200,
            [&](pt::Rng& rng) {
                const auto blob = pt::random_blob(rng, 256);
                std::string text(blob.begin(), blob.end());
                // Half the cases lead with '{' to hit the JSON-spec path.
                if (rng.uniform_int(0, 1)) text.insert(0, "{");
                return text;
            },
            pt::shrink_text, spec_parse_survives, pt::show_text);
        ASSERT_FALSE(result.failed) << result.summary();
        ++seed;
    }
}

TEST(FuzzXp, FaultPlansParseOrThrowAndCanonicalFormIsAFixpoint) {
    // Canonical forms of the plans the tests and CI drive, covering every
    // injection point and key.
    std::vector<std::string> bases;
    for (const char* text :
         {"seed(7);store_write_fail(p=0.2);torn_write(every=3);job_throw(ids=1,times=0);"
          "job_hang(ids=2,ms=400,times=1)",
          "seed(11);store_write_fail(p=0.3);torn_write(every=4)",
          "trial_throw(ids=0|3,p=0.5);worker_abort(after=2)",
          "seed(18446744073709551615);job_throw(ids=1|4,p=1,times=2);job_hang(ms=0)"}) {
        bases.push_back(fi::canonical_fault_plan(fi::parse_fault_plan(text)));
    }
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 9001;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto mutated = pt::check<std::string>(
            "mutated canonical fault plan", seed, 200,
            [&](pt::Rng& rng) {
                const auto& base =
                    bases[static_cast<std::size_t>(rng.uniform_u64(0, bases.size() - 1))];
                return pt::mutate_text(base, rng);
            },
            pt::shrink_text, fault_plan_parse_survives, pt::show_text);
        ASSERT_FALSE(mutated.failed) << mutated.summary();

        const auto garbage = pt::check<std::string>(
            "raw garbage into parse_fault_plan", seed ^ 0xa5a5, 200,
            [&](pt::Rng& rng) {
                const auto blob = pt::random_blob(rng, 128);
                return std::string(blob.begin(), blob.end());
            },
            pt::shrink_text, fault_plan_parse_survives, pt::show_text);
        ASSERT_FALSE(garbage.failed) << garbage.summary();
        ++seed;
    }
}

TEST(FuzzXp, FleetSpecsParseOrThrowSpecErrorAndCanonicalFormIsAFixpoint) {
    const std::vector<std::string> bases = {committed_spec_text("fleet_smoke"),
                                            committed_spec_text("fleet_100k")};
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 5150;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto mutated = pt::check<std::string>(
            "mutated committed fleet spec", seed, 200,
            [&](pt::Rng& rng) {
                const auto& base =
                    bases[static_cast<std::size_t>(rng.uniform_u64(0, bases.size() - 1))];
                return pt::mutate_text(base, rng);
            },
            pt::shrink_text, fleet_spec_parse_survives, pt::show_text);
        ASSERT_FALSE(mutated.failed) << mutated.summary();

        const auto garbage = pt::check<std::string>(
            "raw garbage into parse_fleet_spec", seed ^ 0x3c3c, 200,
            [&](pt::Rng& rng) {
                const auto blob = pt::random_blob(rng, 256);
                return std::string(blob.begin(), blob.end());
            },
            pt::shrink_text, fleet_spec_parse_survives, pt::show_text);
        ASSERT_FALSE(garbage.failed) << garbage.summary();
        ++seed;
    }
}

TEST(FuzzXp, MutatedEnrollmentStoresOpenOrThrowAndValidRecordsDecode) {
    const auto base = small_store_image();
    ASSERT_EQ(store_open_survives(base), "");
    // Regressions found by this fuzzer: a key width near 2^32 wrapped
    // record_bytes_for to a record width of 2 bytes (the integrity scan then
    // read past the mapping) or 0 bytes (a division by zero), so a header
    // carrying the wrapped width was accepted.
    for (const auto& [record_bytes, key_bits] :
         {std::pair<std::uint32_t, std::uint32_t>{2, 0xfffffff9u}, {0, 0xfffffff8u}}) {
        auto wrapped = base;
        put_le(wrapped, 8, 4, record_bytes);
        put_le(wrapped, 12, 4, key_bits);
        EXPECT_EQ(store_open_survives(wrapped), "") << "key_bits " << key_bits;
    }
    const auto deadline = std::chrono::steady_clock::now() + fuzz_budget();
    std::uint64_t seed = 6060;
    int rounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto result = pt::check<std::vector<std::uint8_t>>(
            "mutated enrollment store", seed, 200,
            [&](pt::Rng& rng) { return mutate_store(base, rng); }, pt::shrink_blob,
            store_open_survives, pt::show_blob);
        ASSERT_FALSE(result.failed) << result.summary();
        ++seed;
        ++rounds;
    }
    EXPECT_GT(rounds, 0);
    std::remove(store_fuzz_path().c_str());
}

} // namespace

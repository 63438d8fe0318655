// Fuzzing the xp spec/JSON parsers and the fault-plan grammar with the
// pt_util generator harness: structured mutations of the committed
// specs/*.spec files, mutated JSONL result records, mutated canonical fault
// plans, and raw garbage. The contract under test is total robustness —
// every input either parses or throws a typed exception (SpecError /
// JsonError / std::logic_error / FaultPlanError); anything else (crash, UB,
// runaway allocation, foreign exception type) is a bug. The ASan/UBSan CI
// job runs the same binary with a 30-second budget (ctest target
// fuzz_smoke_30s, ROPUF_FUZZ_MS=30000) to surface memory errors the
// release build would survive silently.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pt_util.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/xp/json.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

/// Per-test wall-clock budget: ROPUF_FUZZ_MS spread over the four mutation
/// tests (default keeps the tier-1 run fast; the smoke target raises it).
std::chrono::milliseconds fuzz_budget() {
    const char* env = std::getenv("ROPUF_FUZZ_MS");
    const long ms = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    return std::chrono::milliseconds(ms > 0 ? ms / 4 : 500);
}

std::vector<std::string> committed_spec_texts() {
    static const char* kSpecs[] = {"smoke", "fig1_array_size", "fig5_failure_pdf",
                                   "fig7_fuzzy", "fig_budget_curve", "fig_matrix",
                                   "paper_all"};
    std::vector<std::string> texts;
    for (const char* name : kSpecs) {
        const std::string path =
            std::string(ROPUF_SOURCE_DIR) + "/specs/" + name + ".spec";
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        texts.push_back(buffer.str());
    }
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

} // namespace

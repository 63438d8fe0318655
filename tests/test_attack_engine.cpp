// Tests for the unified device layer and the construction-agnostic attack
// engine: Device-concept conformance of all five constructions, registry
// enumeration, report uniformity, and query-accounting parity between the
// generic Victim and the attacks' own counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string_view>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/core/device.hpp"
#include "ropuf/group/group_puf.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

namespace {

using namespace ropuf;
using ropuf::rng::Xoshiro256pp;

// ---------------------------------------------------------------------------
// Device-concept conformance: all five constructions compile against the
// concept, and the victim regenerates the enrolled key from the serialized
// helper NVM, given as raw bytes.
// ---------------------------------------------------------------------------

static_assert(core::Device<pairing::SeqPairingPuf>);
static_assert(core::Device<pairing::MaskedChainPuf>);
static_assert(core::Device<pairing::OverlapChainPuf>);
static_assert(core::Device<group::GroupBasedPuf>);
static_assert(core::Device<tempaware::TempAwarePuf>);

sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

/// Enrolls `puf`, then asks its victim about raw-byte probes, the path
/// `ropuf` runs for bytes: the honest stored helper must regenerate the
/// enrolled key, and a truncated blob must refuse (not throw), charged as
/// one refused query with no measurement.
template <core::Device Puf>
void expect_roundtrip(const Puf& puf, std::uint64_t seed, std::string_view expected_kind) {
    using Traits = core::DeviceTraits<Puf>;
    EXPECT_EQ(Traits::kind, expected_kind);
    Xoshiro256pp rng(seed);
    const auto enrollment = puf.enroll(rng);
    EXPECT_FALSE(enrollment.key.empty());
    const helperdata::Nvm honest = Traits::store(enrollment.helper);
    EXPECT_GT(honest.size(), 0u);

    attack::Victim<Puf> victim(puf, enrollment.key, seed);
    auto oracle = attack::make_oracle(victim);
    EXPECT_FALSE(oracle.evaluate_one(core::Probe{honest, nullptr}))
        << expected_kind << ": the honest helper did not regenerate the key";
    const auto after_honest = oracle.stats();
    EXPECT_EQ(after_honest.queries, 1);
    EXPECT_EQ(after_honest.measurements, puf.array().count());
    EXPECT_EQ(after_honest.refused, 0);

    auto bytes = honest.bytes();
    bytes.resize(bytes.size() / 2);
    EXPECT_TRUE(oracle.evaluate_one(core::Probe{helperdata::Nvm(std::move(bytes)), nullptr}))
        << expected_kind << ": a truncated blob was accepted";
    const auto after_truncated = oracle.stats();
    EXPECT_EQ(after_truncated.queries, 2);
    EXPECT_EQ(after_truncated.measurements, after_honest.measurements);
    EXPECT_EQ(after_truncated.refused, 1);
}

TEST(DeviceConcept, SeqPairingRoundTrip) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 6101);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    expect_roundtrip(puf, 6102, "seqpair");
}

TEST(DeviceConcept, MaskedChainRoundTrip) {
    const sim::RoArray chip({20, 8}, quiet_params(), 6103);
    const pairing::MaskedChainPuf puf(chip, pairing::MaskedChainConfig{});
    expect_roundtrip(puf, 6104, "maskedchain");
}

TEST(DeviceConcept, OverlapChainRoundTrip) {
    const sim::RoArray chip({10, 4}, quiet_params(), 6105);
    const pairing::OverlapChainPuf puf(chip, pairing::OverlapChainConfig{});
    expect_roundtrip(puf, 6106, "overlapchain");
}

TEST(DeviceConcept, GroupRoundTrip) {
    const sim::RoArray chip({10, 4}, quiet_params(), 6107);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    expect_roundtrip(puf, 6108, "group");
}

TEST(DeviceConcept, TempAwareRoundTrip) {
    sim::ProcessParams params{};
    params.tempco_sigma = 0.015;
    const sim::RoArray chip({16, 16}, params, 6109);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    const tempaware::TempAwarePuf puf(chip, cfg);
    expect_roundtrip(puf, 6110, "tempaware");
}

// ---------------------------------------------------------------------------
// Registry enumeration
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, EnumeratesAllFiveConstructions) {
    auto& registry = attack::default_registry();
    const auto names = registry.names();
    for (const char* expected :
         {"seqpair/swap", "tempaware/substitution", "group/sortmerge", "group/exhaustive",
          "maskedchain/distiller", "maskedchain/probe", "overlapchain/distiller"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
            << "missing scenario " << expected;
    }
    // Every construction of the paper is covered.
    std::vector<std::string> constructions;
    for (const auto& s : registry.scenarios()) constructions.push_back(s.construction);
    for (const char* kind : {"seqpair", "tempaware", "group", "maskedchain", "overlapchain"}) {
        EXPECT_NE(std::find(constructions.begin(), constructions.end(), kind),
                  constructions.end())
            << "no scenario for construction " << kind;
    }
}

TEST(ScenarioRegistry, RegistrationIsIdempotent) {
    auto& registry = attack::default_registry();
    const auto before = registry.size();
    attack::register_builtin_scenarios(registry);
    EXPECT_EQ(registry.size(), before);
}

// Regression: add() used to silently replace an existing scenario, masking
// double-registration bugs. Duplicates must throw; intentional replacement
// goes through add_or_replace.
TEST(ScenarioRegistry, DuplicateAddThrows) {
    core::ScenarioRegistry registry;
    const auto make = [](const char* notes) {
        return core::Scenario{"dup/name", "seqpair", "test", "none", notes,
                              [](const core::ScenarioParams&) { return core::AttackReport{}; }};
    };
    registry.add(make("first"));
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_THROW(registry.add(make("second")), std::invalid_argument);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.find("dup/name")->description, "first");
    // add_or_replace is the sanctioned idempotent path.
    registry.add_or_replace(make("third"));
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.find("dup/name")->description, "third");
}

// The uniform ECC knob reaches the construction. The attacks themselves are
// ECC-transparent (they rewrite the redundancy), so the directly observable
// handle is the reference fuzzy extractor: under heavy noise its honest-
// helper reliability (reported in notes) tracks the BCH correction budget.
TEST(AttackEngine, EccKnobReachesTheConstruction) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams weak;
    weak.sigma_noise_mhz = 0.35;
    weak.ecc_m = 6;
    weak.ecc_t = 1;
    core::ScenarioParams strong = weak;
    strong.ecc_t = 7;
    const auto w = engine.run("fuzzy/reference", weak);
    const auto s = engine.run("fuzzy/reference", strong);
    EXPECT_NE(w.notes, s.notes) << "bch(6,1) vs bch(6,7) must change honest reliability";
    // Both stay negative results: manipulation never recovers the key.
    EXPECT_FALSE(w.key_recovered);
    EXPECT_FALSE(s.key_recovered);
}

TEST(AttackEngine, UnknownScenarioThrows) {
    core::AttackEngine engine(attack::default_registry());
    EXPECT_THROW((void)engine.run("no/such"), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Engine runs: uniform reports, determinism, full-key recovery
// ---------------------------------------------------------------------------

TEST(AttackEngine, SeqPairScenarioRecoversKeyAndStampsReport) {
    core::AttackEngine engine(attack::default_registry());
    const auto report = engine.run("seqpair/swap");
    EXPECT_EQ(report.scenario, "seqpair/swap");
    EXPECT_EQ(report.construction, "seqpair");
    EXPECT_EQ(report.paper_ref, "VI-A/Fig.5");
    EXPECT_GT(report.key_bits, 0);
    EXPECT_GT(report.queries, 0);
    EXPECT_TRUE(report.key_recovered);
    EXPECT_DOUBLE_EQ(report.accuracy, 1.0);
    EXPECT_GE(report.wall_ms, 0.0);
    // Measurement accounting follows the declared device cost (16x8 array).
    EXPECT_EQ(report.measurements, report.queries * 16 * 8);
}

TEST(AttackEngine, RunsAreDeterministicPerSeed) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.seed = 7;
    const auto a = engine.run("seqpair/swap", params);
    const auto b = engine.run("seqpair/swap", params);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.accuracy, b.accuracy);
}

TEST(AttackEngine, GroupScenarioRecoversKey) {
    core::AttackEngine engine(attack::default_registry());
    const auto report = engine.run("group/sortmerge");
    EXPECT_TRUE(report.key_recovered) << report.notes;
    EXPECT_GT(report.queries, 0);
}

TEST(AttackEngine, MaskedProbeIsKeyFreeByDesign) {
    core::AttackEngine engine(attack::default_registry());
    const auto report = engine.run("maskedchain/probe");
    EXPECT_FALSE(report.key_recovered);
    EXPECT_TRUE(report.complete);
    EXPECT_GT(report.queries, 0);
    EXPECT_DOUBLE_EQ(report.accuracy, 0.0);
}

TEST(AttackEngine, ReportSerializesToJson) {
    core::AttackEngine engine(attack::default_registry());
    const auto report = engine.run("seqpair/swap");
    const auto json = core::to_json(report);
    EXPECT_NE(json.find("\"scenario\":\"seqpair/swap\""), std::string::npos);
    EXPECT_NE(json.find("\"key_recovered\":true"), std::string::npos);
    EXPECT_NE(json.find("\"queries\":"), std::string::npos);
}

// Regression: notes containing quotes, backslashes or control characters
// must serialize to valid JSON string escapes, never raw bytes.
TEST(AttackEngine, ReportJsonEscapesNotes) {
    core::AttackReport report;
    report.scenario = "esc/\"quoted\"";
    report.notes = "a \"b\" c\\d\nline2\ttab\x01" "end";
    const auto json = core::to_json(report);
    EXPECT_NE(json.find("\"scenario\":\"esc/\\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("a \\\"b\\\" c\\\\d\\nline2\\ttab\\u0001end"), std::string::npos);
    // No raw control characters may survive into the serialized form.
    for (char ch : json) EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
    // Quotes must be balanced once escapes are accounted for.
    int quotes = 0;
    for (std::size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
    }
    EXPECT_EQ(quotes % 2, 0);
}

// Full-byte pin: fixed-decimal accuracy and wall_ms, integer counters,
// booleans, the outcome token and a progress trace.
TEST(AttackEngine, ReportJsonIsPinnedToExactBytes) {
    core::AttackReport r;
    r.scenario = "seqpair/swap";
    r.construction = "seqpair";
    r.attack = "swap";
    r.paper_ref = "Sec. V-A";
    r.key_bits = 128;
    r.queries = 165;
    r.measurements = 1LL << 40;
    r.refused = 3;
    r.accuracy = 0.99609375;
    r.key_recovered = true;
    r.complete = true;
    r.outcome = core::AttackOutcome::recovered;
    r.wall_ms = 12.3456;
    r.notes = "tab\there";
    r.trace = {{0, 0.5}, {80, 0.75}, {165, 1.0}};
    EXPECT_EQ(core::to_json(r),
              "{\"scenario\":\"seqpair/swap\",\"construction\":\"seqpair\","
              "\"attack\":\"swap\",\"paper_ref\":\"Sec. V-A\",\"key_bits\":128,"
              "\"queries\":165,\"measurements\":1099511627776,\"refused\":3,"
              "\"accuracy\":0.996094,\"key_recovered\":true,\"complete\":true,"
              "\"outcome\":\"recovered\",\"wall_ms\":12.346,\"notes\":\"tab\\there\","
              "\"trace\":[[0,0.500000],[80,0.750000],[165,1.000000]]}");
}

// ---------------------------------------------------------------------------
// Query-accounting parity: the generic Victim must count exactly what the
// seed's per-construction wrappers counted — one query per regeneration,
// measurements = queries x array size — and the attacks' own Result.queries
// must agree with the shared ledger.
// ---------------------------------------------------------------------------

TEST(QueryAccounting, VictimLedgerMatchesAttackCounters) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 6201);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    Xoshiro256pp rng(6202);
    const auto enrollment = puf.enroll(rng);
    attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 6203);
    attack::SeqPairingSession session(enrollment.helper, puf.code());
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    EXPECT_EQ(result.queries, victim.queries());
    EXPECT_EQ(victim.measurements(), victim.queries() * chip.count());
    EXPECT_EQ(victim.ledger().queries, victim.queries());
}

} // namespace

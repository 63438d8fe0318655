// Tests for the unified device layer and the construction-agnostic attack
// engine: Device-concept conformance of all five constructions, registry
// enumeration, report uniformity, and query-accounting parity between the
// generic Victim and the attacks' own counters.
#include <gtest/gtest.h>

#include <algorithm>

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
// concept, and their type-erased enroll -> reconstruct round trip regenerates
// the enrolled key from the serialized helper NVM.
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

void expect_roundtrip(const core::AnyDevice& device, std::uint64_t seed,
                      std::string_view expected_kind) {
    EXPECT_EQ(device.kind(), expected_kind);
    EXPECT_GT(device.query_cost(), 0);
    Xoshiro256pp rng(seed);
    const auto enrollment = device.enroll(rng);
    EXPECT_FALSE(enrollment.key.empty());
    EXPECT_GT(enrollment.helper.size(), 0u);
    const auto rec = device.reconstruct(enrollment.helper, rng);
    ASSERT_TRUE(rec.ok) << expected_kind << ": reconstruction refused";
    EXPECT_EQ(rec.key, enrollment.key) << expected_kind << ": wrong key regenerated";
    // A truncated blob must refuse, not throw.
    auto bytes = enrollment.helper.bytes();
    bytes.resize(bytes.size() / 2);
    const auto bad = device.reconstruct(helperdata::Nvm(std::move(bytes)), rng);
    EXPECT_FALSE(bad.ok);
}

TEST(DeviceConcept, SeqPairingRoundTrip) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 6101);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    expect_roundtrip(core::AnyDevice(puf), 6102, "seqpair");
}

TEST(DeviceConcept, MaskedChainRoundTrip) {
    const sim::RoArray chip({20, 8}, quiet_params(), 6103);
    const pairing::MaskedChainPuf puf(chip, pairing::MaskedChainConfig{});
    expect_roundtrip(core::AnyDevice(puf), 6104, "maskedchain");
}

TEST(DeviceConcept, OverlapChainRoundTrip) {
    const sim::RoArray chip({10, 4}, quiet_params(), 6105);
    const pairing::OverlapChainPuf puf(chip, pairing::OverlapChainConfig{});
    expect_roundtrip(core::AnyDevice(puf), 6106, "overlapchain");
}

TEST(DeviceConcept, GroupRoundTrip) {
    const sim::RoArray chip({10, 4}, quiet_params(), 6107);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    expect_roundtrip(core::AnyDevice(puf), 6108, "group");
}

TEST(DeviceConcept, TempAwareRoundTrip) {
    sim::ProcessParams params{};
    params.tempco_sigma = 0.015;
    const sim::RoArray chip({16, 16}, params, 6109);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    const tempaware::TempAwarePuf puf(chip, cfg);
    expect_roundtrip(core::AnyDevice(puf), 6110, "tempaware");
}

TEST(DeviceConcept, HeterogeneousContainer) {
    const sim::RoArray chip({16, 8}, quiet_params(), 6111);
    const pairing::SeqPairingPuf seq(chip, pairing::SeqPairingConfig{});
    const pairing::OverlapChainPuf overlap(chip, pairing::OverlapChainConfig{});
    std::vector<core::AnyDevice> devices{core::AnyDevice(seq), core::AnyDevice(overlap)};
    EXPECT_EQ(devices[0].kind(), "seqpair");
    EXPECT_EQ(devices[1].kind(), "overlapchain");
    EXPECT_EQ(devices[0].query_cost(), chip.count());
    EXPECT_EQ(devices[1].query_cost(), chip.count());
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

TEST(AttackEngine, JsonEscapeHelperHandlesEdgeCases) {
    std::string out;
    core::append_json_escaped(out, "plain");
    EXPECT_EQ(out, "plain");
    out.clear();
    core::append_json_escaped(out, "\\\"\n\r\t\b\f\x1f");
    EXPECT_EQ(out, "\\\\\\\"\\n\\r\\t\\b\\f\\u001f");
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

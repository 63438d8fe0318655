// Session regression: the propose/observe rewrite must be *bitwise
// identical* to the pre-Session attacks. The expected values below were
// captured from the seed implementation (monolithic attack functions querying
// the victim one typed helper at a time) at default params for master seeds 1, 2 and
// 7 — including one seed where the overlap-chain attack legitimately fails
// to resolve every bit. Any drift in probe order, RNG consumption, helper
// serialization or verdict handling shows up here as a query/accuracy diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/core/attack_engine.hpp"

namespace {

using namespace ropuf;

struct SeedExpectation {
    const char* scenario;
    std::uint64_t seed;
    int key_bits;
    std::int64_t queries;
    std::int64_t measurements;
    double accuracy;
    bool key_recovered;
    bool complete;
};

// Captured from the pre-Session seed implementation (PR 3 tree).
const SeedExpectation kSeedBaselines[] = {
    {"seqpair/swap", 1, 64, 156, 19968, 1.0, true, true},
    {"seqpair/swap-sorted", 1, 64, 1, 128, 1.0, true, true},
    {"tempaware/substitution", 1, 100, 223, 57088, 1.0, true, true},
    {"group/sortmerge", 1, 80, 160, 6400, 1.0, true, true},
    {"group/exhaustive", 1, 80, 339, 13560, 1.0, true, true},
    {"maskedchain/distiller", 1, 16, 36, 5760, 1.0, true, true},
    {"maskedchain/probe", 1, 16, 172, 27520, 0.0, false, true},
    {"overlapchain/distiller", 1, 39, 228, 9120, 1.0, true, true},
    {"fuzzy/reference", 1, 256, 53, 6784, 0.0, false, true},
    {"seqpair/swap", 2, 64, 162, 20736, 1.0, true, true},
    {"seqpair/swap-sorted", 2, 64, 1, 128, 1.0, true, true},
    {"tempaware/substitution", 2, 107, 256, 65536, 1.0, true, true},
    {"group/sortmerge", 2, 77, 153, 6120, 1.0, true, true},
    {"group/exhaustive", 2, 77, 313, 12520, 1.0, true, true},
    {"maskedchain/distiller", 2, 16, 38, 6080, 1.0, true, true},
    {"maskedchain/probe", 2, 16, 178, 28480, 0.0, false, true},
    {"overlapchain/distiller", 2, 39, 248, 9920, 1.0, true, true},
    {"fuzzy/reference", 2, 256, 53, 6784, 0.0, false, true},
    {"seqpair/swap", 7, 64, 176, 22528, 1.0, true, true},
    {"seqpair/swap-sorted", 7, 64, 1, 128, 1.0, true, true},
    {"tempaware/substitution", 7, 104, 249, 63744, 1.0, true, true},
    {"group/sortmerge", 7, 80, 163, 6520, 1.0, true, true},
    {"group/exhaustive", 7, 80, 321, 12840, 1.0, true, true},
    {"maskedchain/distiller", 7, 16, 34, 5440, 1.0, true, true},
    {"maskedchain/probe", 7, 16, 148, 23680, 0.0, false, true},
    // Seed 7 decides every overlap-chain bit but gets one wrong (a
    // metastable pair): complete, yet 38/39 = 0.974... accuracy.
    {"overlapchain/distiller", 7, 39, 249, 9960, 0.97435897435897434, false, true},
    {"fuzzy/reference", 7, 256, 53, 6784, 0.0, false, true},
};

TEST(SessionRegression, AllScenariosMatchThePreSessionSeedBitwise) {
    core::AttackEngine engine(attack::default_registry());
    for (const auto& expected : kSeedBaselines) {
        core::ScenarioParams params;
        params.seed = expected.seed;
        const auto report = engine.run(expected.scenario, params);
        SCOPED_TRACE(std::string(expected.scenario) + " seed " +
                     std::to_string(expected.seed));
        EXPECT_EQ(report.key_bits, expected.key_bits);
        EXPECT_EQ(report.queries, expected.queries);
        EXPECT_EQ(report.measurements, expected.measurements);
        EXPECT_EQ(report.accuracy, expected.accuracy); // exact: the run is deterministic
        EXPECT_EQ(report.key_recovered, expected.key_recovered);
        EXPECT_EQ(report.complete, expected.complete);
        EXPECT_EQ(report.refused, 0);
        EXPECT_EQ(report.outcome, expected.key_recovered
                                      ? core::AttackOutcome::recovered
                                      : core::AttackOutcome::gave_up);
        EXPECT_TRUE(report.trace.empty()); // untraced by default
    }
}

// Driving a session by hand through step()/absorb() is the same computation
// as run_to_completion.
TEST(SessionRegression, ManualStepAbsorbEqualsRunToCompletion) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 501);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(502);
    const auto enrollment = puf.enroll(rng);

    attack::SeqPairingAttack::Victim victim_a(puf, enrollment.key, 503);
    attack::SeqPairingSession driven(enrollment.helper, puf.code());
    auto oracle_a = attack::make_oracle(victim_a);
    attack::run_to_completion(driven, oracle_a);
    const auto& expected = driven.result();

    attack::SeqPairingAttack::Victim victim_b(puf, enrollment.key, 503);
    attack::SeqPairingSession session(enrollment.helper, puf.code());
    auto oracle = attack::make_oracle(victim_b);
    int batches = 0;
    while (true) {
        const auto batch = session.step();
        if (batch.empty()) break;
        session.absorb(oracle.evaluate(batch));
        ++batches;
    }
    EXPECT_TRUE(session.done());
    EXPECT_GT(batches, 0);
    EXPECT_EQ(session.result().recovered_key, expected.recovered_key);
    EXPECT_EQ(session.result().resolved, expected.resolved);
    EXPECT_EQ(session.result().queries, expected.queries);
    EXPECT_EQ(session.result().relation_tests, expected.relation_tests);
    EXPECT_EQ(victim_b.queries(), victim_a.queries());
    EXPECT_EQ(victim_b.measurements(), victim_a.measurements());

    // Out-of-cycle absorb is an error, not silent corruption.
    EXPECT_THROW(session.absorb(std::vector<bool>{true}), std::logic_error);
}

TEST(SessionRegression, BudgetExhaustedRunsReportPartialAccuracy) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.query_budget = 50; // well below the ~156 queries the attack needs
    const auto report = engine.run("seqpair/swap", params);
    EXPECT_EQ(report.outcome, core::AttackOutcome::budget_exhausted);
    EXPECT_EQ(report.queries, 50); // every budgeted query was spent and charged
    EXPECT_FALSE(report.key_recovered);
    EXPECT_FALSE(report.complete);
    EXPECT_GE(report.accuracy, 0.0);
    EXPECT_LE(report.accuracy, 1.0);

    // A budget the attack fits inside changes nothing.
    params.query_budget = 100000;
    const auto generous = engine.run("seqpair/swap", params);
    EXPECT_EQ(generous.outcome, core::AttackOutcome::recovered);
    EXPECT_EQ(generous.queries, 156);
}

TEST(SessionRegression, DefendedDistillerScenarioIsRefusedWithoutMeasuring) {
    core::AttackEngine engine(attack::default_registry());
    const auto report = engine.run("maskedchain/distiller-defended");
    EXPECT_EQ(report.outcome, core::AttackOutcome::refused_by_defense);
    EXPECT_FALSE(report.key_recovered);
    EXPECT_GT(report.refused, 0);
    EXPECT_EQ(report.refused, report.queries); // every probe died at the check
    EXPECT_EQ(report.measurements, 0);         // and none reached the silicon

    // The structurally-valid pair swap clears the same defense.
    const auto swap = engine.run("seqpair/swap-defended");
    EXPECT_EQ(swap.outcome, core::AttackOutcome::recovered);
    EXPECT_EQ(swap.refused, 0);
    EXPECT_EQ(swap.queries, 156); // identical cost to the undefended run
}

TEST(SessionRegression, TraceRecordsMonotoneQueriesEndingAtTheReport) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.trace = true;
    const auto report = engine.run("group/sortmerge", params);
    ASSERT_FALSE(report.trace.empty());
    for (std::size_t i = 1; i < report.trace.size(); ++i) {
        EXPECT_LE(report.trace[i - 1].queries, report.trace[i].queries);
    }
    EXPECT_EQ(report.trace.back().queries, report.queries);
    EXPECT_EQ(report.trace.back().accuracy, report.accuracy);
    // Tracing is an observer: the experiment itself is unchanged.
    EXPECT_EQ(report.queries, 160);
    EXPECT_TRUE(report.key_recovered);
}

} // namespace

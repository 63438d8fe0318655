// Oracle middleware accounting: batched vs one-at-a-time ledger parity,
// budget exhaustion mid-batch, sanity-check refusals (counted as queries,
// never charged as measurements), trace snapshots, and the batched
// measurement path's bit-identity with sequential scans.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/sim/ro_array.hpp"

namespace {

using namespace ropuf;

struct Rig {
    sim::RoArray chip{{16, 8}, sim::ProcessParams{}, 77};
    pairing::SeqPairingPuf puf{chip, pairing::SeqPairingConfig{}};
    pairing::SeqPairingPuf::Enrollment enrollment;

    Rig() {
        rng::Xoshiro256pp rng(78);
        enrollment = puf.enroll(rng);
    }

    attack::Victim<pairing::SeqPairingPuf> victim(std::uint64_t seed = 79) const {
        return {puf, enrollment.key, seed};
    }

    /// A structurally valid probe (candidate helper for an arbitrary key).
    core::Probe probe(std::uint8_t fill = 0) const {
        bits::BitVec candidate(enrollment.key.size(), fill);
        const auto helper =
            attack::SeqPairingAttack::make_candidate_helper(enrollment.helper, puf.code(),
                                                            candidate);
        return attack::make_probe<pairing::SeqPairingPuf>(helper);
    }

    /// A probe whose pair list re-uses one RO across two pairs: parses fine,
    /// passes the device's own consistency checks, but violates the careful
    /// device's no-reuse sanity rule.
    core::Probe reuse_probe(std::size_t pair = 1) const {
        auto helper = enrollment.helper;
        helper.pairs[pair].first = helper.pairs[0].first;
        return attack::make_probe<pairing::SeqPairingPuf>(helper);
    }
};

TEST(OracleMiddleware, BatchedAndSequentialEvaluationAgreeExactly) {
    Rig rig;
    std::vector<core::Probe> probes;
    for (int i = 0; i < 6; ++i) probes.push_back(rig.probe(static_cast<std::uint8_t>(i & 1)));
    // A malformed blob mid-batch: observable refusal, no measurement, and no
    // RNG consumption — the batch path must keep later probes aligned.
    probes.insert(probes.begin() + 3, core::Probe{helperdata::Nvm({1, 2, 3}), std::nullopt});

    auto victim_batch = rig.victim();
    auto victim_seq = rig.victim();
    auto oracle_batch = attack::make_oracle(victim_batch);
    auto oracle_seq = attack::make_oracle(victim_seq);

    const auto verdicts_batch = oracle_batch.evaluate(probes);
    std::vector<bool> verdicts_seq;
    for (const auto& probe : probes) verdicts_seq.push_back(oracle_seq.evaluate_one(probe));

    EXPECT_EQ(verdicts_batch, verdicts_seq);
    const auto sb = oracle_batch.stats();
    const auto ss = oracle_seq.stats();
    EXPECT_EQ(sb.queries, ss.queries);
    EXPECT_EQ(sb.measurements, ss.measurements);
    EXPECT_EQ(sb.refused, ss.refused);
    EXPECT_EQ(sb.queries, static_cast<std::int64_t>(probes.size()));
    EXPECT_EQ(sb.refused, 1);
    // The refusal costs a query but no scan.
    EXPECT_EQ(sb.measurements,
              static_cast<std::int64_t>(probes.size() - 1) * rig.chip.count());
    // The malformed probe reads as an observable failure.
    EXPECT_TRUE(verdicts_batch[3]);
}

TEST(OracleMiddleware, MeasureBatchMatchesSequentialScansBitwise) {
    const sim::RoArray chip({12, 5}, sim::ProcessParams{}, 123);
    const sim::Condition cond{31.0, 1.18};
    rng::Xoshiro256pp rng_a(9);
    rng::Xoshiro256pp rng_b(9);

    std::vector<double> batched;
    chip.measure_batch_into(cond, 7, rng_a, batched);
    ASSERT_EQ(batched.size(), 7u * static_cast<std::size_t>(chip.count()));

    std::vector<double> scan;
    for (int s = 0; s < 7; ++s) {
        chip.measure_all_into(cond, rng_b, scan);
        for (int i = 0; i < chip.count(); ++i) {
            ASSERT_EQ(batched[static_cast<std::size_t>(s * chip.count() + i)],
                      scan[static_cast<std::size_t>(i)])
                << "scan " << s << " element " << i;
        }
    }
    // Identical RNG consumption, not just identical values.
    EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(OracleMiddleware, BudgetExhaustsMidBatchAfterChargingThePrefix) {
    Rig rig;
    auto victim = rig.victim();
    auto budget = std::make_shared<core::BudgetedOracle>(attack::make_oracle(victim), 3);
    core::AnyOracle oracle{budget};

    std::vector<core::Probe> batch;
    for (int i = 0; i < 5; ++i) batch.push_back(rig.probe());

    try {
        oracle.evaluate(batch);
        FAIL() << "expected BudgetExhausted";
    } catch (const core::BudgetExhausted& e) {
        EXPECT_EQ(e.budget(), 3);
        EXPECT_EQ(e.evaluated(), 3u); // the affordable prefix ran and was charged
    }
    EXPECT_TRUE(budget->exhausted());
    EXPECT_EQ(budget->spent(), 3);
    EXPECT_EQ(oracle.stats().queries, 3);
    EXPECT_EQ(oracle.stats().measurements, 3 * rig.chip.count());
    // Once exhausted, nothing further runs — not even an affordable batch.
    EXPECT_THROW(oracle.evaluate_one(rig.probe()), core::BudgetExhausted);

    // An exactly-affordable batch does not trip the budget.
    auto victim2 = rig.victim();
    auto budget2 = std::make_shared<core::BudgetedOracle>(attack::make_oracle(victim2), 2);
    core::AnyOracle oracle2{budget2};
    EXPECT_EQ(oracle2.evaluate(std::vector<core::Probe>{rig.probe(), rig.probe()}).size(), 2u);
    EXPECT_FALSE(budget2->exhausted());
    EXPECT_EQ(budget2->remaining(), 0);
}

TEST(OracleMiddleware, SanityRefusalsAreCountedButNeverMeasured) {
    Rig rig;
    auto victim = rig.victim();
    auto sanity = std::make_shared<core::SanityCheckingOracle>(
        attack::make_oracle(victim), attack::make_sanity_validator(rig.puf));
    core::AnyOracle oracle{sanity};

    // accepted, refused (RO reuse), accepted, refused — interleaved so the
    // forwarding of contiguous accepted runs is exercised.
    const std::vector<core::Probe> batch = {rig.probe(0), rig.reuse_probe(), rig.probe(1),
                                            rig.reuse_probe()};
    const auto verdicts = oracle.evaluate(batch);
    ASSERT_EQ(verdicts.size(), 4u);
    EXPECT_TRUE(verdicts[1]); // refusal = observable failure
    EXPECT_TRUE(verdicts[3]);

    const auto stats = oracle.stats();
    EXPECT_EQ(stats.queries, 4);                          // refused probes still cost queries
    EXPECT_EQ(stats.refused, 2);
    EXPECT_EQ(stats.measurements, 2 * rig.chip.count()); // only accepted probes measure
    EXPECT_EQ(sanity->refused(), 2);
    EXPECT_FALSE(sanity->last_violations().empty());

    // The victim underneath never saw the refused probes at all.
    EXPECT_EQ(victim.queries(), 2);
}

TEST(OracleMiddleware, LastViolationsExplainTheMostRecentRefusalWhenRead) {
    Rig rig;
    auto victim = rig.victim();
    const auto validator = attack::make_sanity_validator(rig.puf);
    auto sanity =
        std::make_shared<core::SanityCheckingOracle>(attack::make_oracle(victim), validator);
    core::AnyOracle oracle{sanity};
    EXPECT_TRUE(sanity->last_violations().empty()); // nothing refused yet

    const auto first = rig.reuse_probe(1);
    const auto second = rig.reuse_probe(2);
    const auto explained = [&](const core::Probe& p) { return validator(p.helper).violations; };
    ASSERT_NE(explained(first), explained(second));

    // Two refusals in one batch: the later one is the one explained.
    (void)oracle.evaluate(std::vector<core::Probe>{first, rig.probe(0), second});
    EXPECT_EQ(sanity->last_violations(), explained(second));
    EXPECT_EQ(sanity->last_violations(), explained(second)); // cached read

    // A clean batch refuses nothing and keeps the older list.
    (void)oracle.evaluate(std::vector<core::Probe>{rig.probe(1), rig.probe(0)});
    EXPECT_EQ(sanity->last_violations(), explained(second));

    (void)oracle.evaluate(std::vector<core::Probe>{first});
    EXPECT_EQ(sanity->last_violations(), explained(first));
    EXPECT_EQ(sanity->refused(), 3);
}

TEST(OracleMiddleware, TracingRecordsCumulativeSnapshotsPerBatch) {
    Rig rig;
    auto victim = rig.victim();
    auto tracing = std::make_shared<core::TracingOracle>(attack::make_oracle(victim));
    core::AnyOracle oracle{tracing};

    oracle.evaluate(std::vector<core::Probe>{rig.probe(), rig.probe()});
    oracle.evaluate_one(rig.probe());

    const auto& trace = tracing->trace();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].probes, 2u);
    EXPECT_EQ(trace[0].after.queries, 2);
    EXPECT_EQ(trace[1].probes, 1u);
    EXPECT_EQ(trace[1].after.queries, 3);
    EXPECT_EQ(trace[1].after.measurements, 3 * rig.chip.count());
}

TEST(OracleMiddleware, UnknownScenarioNamesSuggestTheClosestMatch) {
    core::AttackEngine engine(attack::default_registry());
    try {
        engine.run("seqpair/swop");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("seqpair/swop"), std::string::npos) << what;
        EXPECT_NE(what.find("did you mean 'seqpair/swap'"), std::string::npos) << what;
    }
    EXPECT_EQ(core::closest_match("group/sortmarge", attack::default_registry().names()),
              "group/sortmerge");
    EXPECT_EQ(core::closest_match("anything", {}), "");
}

} // namespace

// The countermeasure registry and its middleware: token grammar, canonical
// spelling, refusal accounting, lockout/rate-limit bricking, MAC binding and
// the noisy-refusal coin — plus the scenario-level outcome classification
// the attack x defense matrix is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/attack_engine.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/defense/middleware.hpp"
#include "ropuf/defense/registry.hpp"

namespace {

using namespace ropuf;
using core::AnyOracle;
using core::OracleStats;
using core::Probe;
using helperdata::Nvm;

/// Scripted inner oracle: verdict = byte 0 of the probe blob ("1" fails),
/// every evaluated probe charged as one query + 10 measurements.
class ScriptedOracle final : public core::OracleBase {
public:
    void evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) override {
        verdicts.clear();
        for (const auto& probe : probes) {
            ++stats_.queries;
            stats_.measurements += 10;
            verdicts.push_back(!probe.helper.bytes().empty() && probe.helper.bytes()[0] == 1);
        }
    }
    OracleStats stats() const override { return stats_; }

private:
    OracleStats stats_;
};

Probe probe_with(std::uint8_t first_byte) {
    return {Nvm(std::vector<std::uint8_t>{first_byte, 0xab, 0xcd}), nullptr};
}

// ---------------------------------------------------------------------------
// Token grammar
// ---------------------------------------------------------------------------

TEST(DefenseToken, ParsesNamesAndArgs) {
    const auto plain = defense::parse_defense_token("sanity");
    EXPECT_EQ(plain.name, "sanity");
    EXPECT_TRUE(plain.args.empty());

    const auto args = defense::parse_defense_token(" ratelimit( 200 , 64 ) ");
    EXPECT_EQ(args.name, "ratelimit");
    ASSERT_EQ(args.args.size(), 2u);
    EXPECT_DOUBLE_EQ(args.args[0], 200.0);
    EXPECT_DOUBLE_EQ(args.args[1], 64.0);
    EXPECT_EQ(defense::format_token(args), "ratelimit(200,64)");
}

TEST(DefenseToken, RejectsMalformedTokens) {
    EXPECT_THROW((void)defense::parse_defense_token("lockout(8"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("lockout(x)"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("lockout()8"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("Lock Out"), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token(""), std::invalid_argument);
    EXPECT_THROW((void)defense::parse_defense_token("lockout(1,)"), std::invalid_argument);
}

TEST(DefenseToken, CanonicalSpellingFillsRegistryDefaults) {
    const auto& registry = defense::default_registry();
    EXPECT_EQ(defense::canonical_token("", registry), "none");
    EXPECT_EQ(defense::canonical_token("none", registry), "none");
    EXPECT_EQ(defense::canonical_token("sanity", registry), "sanity");
    EXPECT_EQ(defense::canonical_token("lockout", registry), "lockout(32)");
    EXPECT_EQ(defense::canonical_token("lockout( 8 )", registry), "lockout(8)");
    EXPECT_EQ(defense::canonical_token("ratelimit(100)", registry), "ratelimit(100,64)");
    EXPECT_EQ(defense::canonical_token("noisyrefusal", registry), "noisyrefusal(0.5)");
}

TEST(DefenseToken, UnknownNamesAndArityViolationsCarrySuggestions) {
    const auto& registry = defense::default_registry();
    try {
        (void)defense::canonical_token("lockotu", registry);
        FAIL() << "unknown defense accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("lockout"), std::string::npos); // did-you-mean
    }
    EXPECT_THROW((void)defense::canonical_token("sanity(1)", registry),
                 std::invalid_argument);
    EXPECT_THROW((void)defense::canonical_token("lockout(1,2)", registry),
                 std::invalid_argument);
    EXPECT_THROW((void)defense::canonical_token("lockout(0)", registry),
                 std::invalid_argument);
    EXPECT_THROW((void)defense::canonical_token("lockout(1.5)", registry),
                 std::invalid_argument);
}

TEST(DefenseRegistry, DuplicateAddThrowsAndBuiltinsAreIdempotent) {
    defense::DefenseRegistry registry;
    defense::register_builtin_defenses(registry);
    const std::size_t size = registry.size();
    defense::register_builtin_defenses(registry); // add_or_replace: no growth
    EXPECT_EQ(registry.size(), size);
    EXPECT_THROW(registry.add({"none", "", "", 0, {}, {}, {}}), std::invalid_argument);
    EXPECT_GE(size, 7u); // none, sanity, crc, mac, lockout, ratelimit, noisyrefusal
}

// ---------------------------------------------------------------------------
// Middleware semantics
// ---------------------------------------------------------------------------

TEST(DefenseMiddleware, MacBindingRefusesEverythingButTheEnrolledBlob) {
    const Nvm enrolled(std::vector<std::uint8_t>{0, 0xab, 0xcd});
    auto inner = std::make_shared<ScriptedOracle>();
    auto mac = std::make_shared<defense::MacBindingOracle>(AnyOracle(inner), enrolled);

    std::vector<Probe> probes = {probe_with(0), probe_with(1), probe_with(0)};
    probes[1].helper.bytes()[2] ^= 0x80; // any bit flip breaks the binding
    std::vector<bool> verdicts;
    mac->evaluate(probes, verdicts);
    EXPECT_EQ(verdicts, (std::vector<bool>{false, true, false}));
    EXPECT_EQ(mac->refused(), 1);
    EXPECT_FALSE(mac->locked());

    // The refused probe costs a query but no measurement.
    const OracleStats stats = mac->stats();
    EXPECT_EQ(stats.queries, 3);
    EXPECT_EQ(stats.measurements, 20);
    EXPECT_EQ(stats.refused, 1);
}

TEST(DefenseMiddleware, LockoutBricksMidBatchAfterKFailures) {
    auto inner = std::make_shared<ScriptedOracle>();
    auto lockout = std::make_shared<defense::LockoutOracle>(AnyOracle(inner), 2);

    // Failures 1 and 2 trip the threshold; everything after is refused
    // without reaching the inner oracle — including the would-pass probe.
    std::vector<Probe> probes = {probe_with(1), probe_with(0), probe_with(1), probe_with(0),
                                 probe_with(1)};
    std::vector<bool> verdicts;
    lockout->evaluate(probes, verdicts);
    EXPECT_EQ(verdicts, (std::vector<bool>{true, false, true, true, true}));
    EXPECT_TRUE(lockout->locked());
    EXPECT_EQ(lockout->refused(), 2);
    EXPECT_EQ(inner->stats().queries, 3); // only the pre-brick probes measured

    // A bricked device stays bricked across batches.
    lockout->evaluate(probes, verdicts);
    EXPECT_EQ(verdicts, (std::vector<bool>(5, true)));
    EXPECT_EQ(lockout->refused(), 7);
}

TEST(DefenseMiddleware, RateLimitCapsBatchesAndLifetime) {
    auto inner = std::make_shared<ScriptedOracle>();
    auto limiter =
        std::make_shared<defense::RateLimitOracle>(AnyOracle(inner), /*max_queries=*/5,
                                                   /*max_batch=*/2);

    std::vector<Probe> batch(4, probe_with(0));
    std::vector<bool> verdicts;
    limiter->evaluate(batch, verdicts); // serves 2, refuses 2 (batch cap)
    EXPECT_EQ(verdicts, (std::vector<bool>{false, false, true, true}));
    EXPECT_FALSE(limiter->locked());
    limiter->evaluate(batch, verdicts); // serves 2 more (4 of 5 spent), refuses 2
    limiter->evaluate(batch, verdicts); // serves 1, lifetime exhausted
    EXPECT_EQ(verdicts, (std::vector<bool>{false, true, true, true}));
    EXPECT_TRUE(limiter->locked());
    limiter->evaluate(batch, verdicts); // everything refused now
    EXPECT_EQ(verdicts, (std::vector<bool>(4, true)));
    EXPECT_EQ(inner->stats().queries, 5);
    EXPECT_EQ(limiter->refused(), 2 + 2 + 3 + 4);
}

TEST(DefenseMiddleware, NoisyRefusalAnswersRefusalsFromADeterministicCoin) {
    const auto validator = [](const Nvm& nvm, helperdata::SanityMode mode) {
        helperdata::SanityReport report(mode);
        if (!nvm.bytes().empty() && nvm.bytes()[0] == 2) report.fail("forged");
        return report;
    };
    const auto run_with_seed = [&](std::uint64_t seed) {
        auto inner = std::make_shared<ScriptedOracle>();
        auto noisy = std::make_shared<defense::NoisyRefusalOracle>(AnyOracle(inner), validator,
                                                                   0.5, seed);
        std::vector<Probe> probes;
        for (int i = 0; i < 200; ++i) probes.push_back(probe_with(2));
        probes.push_back(probe_with(0)); // valid: forwarded, passes
        probes.push_back(probe_with(1)); // valid: forwarded, fails
        std::vector<bool> verdicts;
        noisy->evaluate(probes, verdicts);
        EXPECT_EQ(noisy->refused(), 200);
        EXPECT_EQ(inner->stats().queries, 2); // only the valid probes measured
        EXPECT_FALSE(verdicts[200]);
        EXPECT_TRUE(verdicts[201]);
        return verdicts;
    };

    const auto a = run_with_seed(99);
    const auto b = run_with_seed(99);
    EXPECT_EQ(a, b); // refusal answers are deterministic per seed
    // ... and genuinely mixed: a blanket-refusing validator would answer all
    // 200 with "failed"; the 0.5 coin must produce both outcomes.
    const int failures = static_cast<int>(std::count(a.begin(), a.begin() + 200, true));
    EXPECT_GT(failures, 50);
    EXPECT_LT(failures, 150);
    EXPECT_NE(run_with_seed(100), a); // another seed, another coin sequence
}

// ---------------------------------------------------------------------------
// Scenario-level classification + PR-4 equivalence
// ---------------------------------------------------------------------------

TEST(DefenseScenarios, OutcomeClassificationCoversTheMatrixColumns) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;

    params.defense = "mac";
    EXPECT_EQ(engine.run("seqpair/swap", params).outcome,
              core::AttackOutcome::refused_by_defense);

    params.defense = "lockout(8)";
    const auto locked = engine.run("seqpair/swap", params);
    EXPECT_EQ(locked.outcome, core::AttackOutcome::locked_out);
    EXPECT_GT(locked.refused, 0);

    params.defense = "sanity";
    EXPECT_EQ(engine.run("group/sortmerge", params).outcome,
              core::AttackOutcome::refused_by_defense);
    EXPECT_EQ(engine.run("group/sortmerge-adaptive", params).outcome,
              core::AttackOutcome::recovered);

    params.defense = "none";
    EXPECT_EQ(engine.run("group/sortmerge", params).outcome,
              core::AttackOutcome::recovered);
}

TEST(DefenseScenarios, MislabeledDefenseCombinationsFailLoudly) {
    // A '-defended' alias pins defense=sanity; crossing it with a different
    // token must throw, never run sanity while the record claims the other
    // defense. Same for fuzzy/reference, which bypasses the oracle stack
    // entirely and therefore cannot honor any defense token.
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.defense = "mac";
    EXPECT_THROW((void)engine.run("seqpair/swap-defended", params), std::invalid_argument);
    EXPECT_THROW((void)engine.run("fuzzy/reference", params), std::invalid_argument);
    // The compatible spellings still run.
    params.defense = "sanity";
    EXPECT_NO_THROW((void)engine.run("seqpair/swap-defended", params));
    params.defense = "none";
    EXPECT_NO_THROW((void)engine.run("fuzzy/reference", params));
}

TEST(DefenseScenarios, DeprecatedDefendedAliasEqualsDefenseSanityAxis) {
    core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    params.seed = 5;
    const auto alias = engine.run("maskedchain/distiller-defended", params);
    params.defense = "sanity";
    const auto axis = engine.run("maskedchain/distiller", params);
    EXPECT_EQ(alias.outcome, axis.outcome);
    EXPECT_EQ(alias.queries, axis.queries);
    EXPECT_EQ(alias.refused, axis.refused);
    EXPECT_EQ(alias.measurements, axis.measurements);
    EXPECT_EQ(alias.accuracy, axis.accuracy);
}

TEST(DefenseScenarios, DefenseNoneIsBitwiseTheUndefendedRun) {
    // The PR-4 baseline contract: naming the identity defense changes
    // nothing about the experiment — same queries, same RNG consumption,
    // same report, trial for trial.
    const core::CampaignRunner runner(attack::default_registry());
    core::CampaignConfig config;
    config.trials = 3;
    config.workers = 1;
    config.master_seed = 77;
    const auto baseline = runner.run("seqpair/swap", config);
    config.base.defense = "none";
    const auto with_none = runner.run("seqpair/swap", config);
    EXPECT_EQ(baseline.key_recovered_count, with_none.key_recovered_count);
    EXPECT_EQ(baseline.success_rate, with_none.success_rate);
    EXPECT_EQ(baseline.mean_accuracy, with_none.mean_accuracy);
    EXPECT_EQ(baseline.outcomes, with_none.outcomes);
    EXPECT_EQ(baseline.total_measurements, with_none.total_measurements);
    EXPECT_EQ(baseline.queries.mean, with_none.queries.mean);
    EXPECT_EQ(baseline.queries.stddev, with_none.queries.stddev);
    EXPECT_EQ(baseline.queries.min, with_none.queries.min);
    EXPECT_EQ(baseline.queries.max, with_none.queries.max);
    EXPECT_EQ(baseline.measurements.mean, with_none.measurements.mean);
}

} // namespace

// Section VI-B attack tests: relation recovery (and the full-key extension)
// against the temperature-aware cooperative construction, plus the
// deterministic-scan leakage analysis.
#include <gtest/gtest.h>

#include "ropuf/attack/tempaware_attack.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::attack;
using namespace ropuf::tempaware;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

TempAwareConfig device_config(HelperSelectionPolicy policy = HelperSelectionPolicy::Random) {
    TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    cfg.policy = policy;
    return cfg;
}

// Tempco-rich process: the HOST'09 construction presumes frequency
// crossovers are common enough that cooperation is worth building; a wider
// per-RO tempco spread makes that reliably true on a 16x16 array.
ProcessParams crossover_rich_params() {
    ProcessParams p{};
    p.tempco_sigma = 0.015;
    return p;
}

struct Scenario {
    RoArray array;
    TempAwarePuf puf;
    TempAwarePuf::Enrollment enrollment;

    explicit Scenario(std::uint64_t seed,
                      HelperSelectionPolicy policy = HelperSelectionPolicy::Random,
                      ArrayGeometry g = {16, 16})
        : array(g, crossover_rich_params(), seed), puf(array, device_config(policy)),
          enrollment{} {
        Xoshiro256pp rng(seed ^ 0xaa55);
        enrollment = puf.enroll(rng);
    }

    int coop_count() const {
        int c = 0;
        for (const auto& rec : enrollment.helper.records) {
            c += rec.cls == PairClass::Cooperating;
        }
        return c;
    }
};

// Drives `session` over the victim's oracle to completion; returns its result.
template <typename AttackSession, typename Puf>
auto run_session(AttackSession&& session, Victim<Puf>& victim) {
    auto oracle = make_oracle(victim);
    run_to_completion(session, oracle);
    return session.result();
}

// Seeds are pre-screened to yield at least two cooperating pairs (the attack
// needs a requester and a target); the fixture asserts that precondition.
class TempAttackSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TempAttackSeeds, RecoversFullKeyAtRoomTemperature) {
    Scenario s(GetParam());
    ASSERT_GE(s.coop_count(), 2) << "seed produced too few cooperating pairs";
    TempAwareAttack::Victim victim(s.puf, s.enrollment.key, 25.0, GetParam() ^ 0x77);
    const auto result = run_session(
        TempAwareSession(s.enrollment.helper, s.puf.code(), victim.ambient_c()), victim);
    ASSERT_TRUE(result.resolved);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
    // Pairs untestable at 25 C are resolved algebraically through the public
    // masking constraint, so skips never block full recovery.
}

INSTANTIATE_TEST_SUITE_P(Seeds, TempAttackSeeds, ::testing::Values(401u, 402u, 403u, 404u));

TEST(TempAttack, CoopRelationsAloneMatchGroundTruth) {
    // The paper's core claim: relations among cooperating-pair bits. Run with
    // the good-pair extension disabled and verify the candidate key agrees
    // with the truth on all cooperating positions up to one global flip.
    Scenario s(405);
    ASSERT_GE(s.coop_count(), 2);
    TempAwareAttack::Victim victim(s.puf, s.enrollment.key, 25.0, 406);
    TempAwareAttack::Config cfg;
    cfg.recover_good_pairs = false;
    const auto result = run_session(
        TempAwareSession(s.enrollment.helper, s.puf.code(), victim.ambient_c(), cfg), victim);
    // Without good-pair recovery the full key cannot be assembled...
    EXPECT_FALSE(result.resolved);
    // ...but the cooperating relations must be consistent on every pair the
    // attack directly measured: compare pairwise.
    const auto& helper = s.enrollment.helper;
    const std::vector<int>& coops = result.measured_pairs;
    int checked = 0;
    for (std::size_t i = 0; i + 1 < coops.size(); ++i) {
        const int a = coops[i];
        const int b = coops[i + 1];
        const int pa = TempAwarePuf::key_position(helper, a);
        const int pb = TempAwarePuf::key_position(helper, b);
        const auto truth_rel = s.enrollment.key[static_cast<std::size_t>(pa)] ^
                               s.enrollment.key[static_cast<std::size_t>(pb)];
        const auto rec_rel = result.recovered_key[static_cast<std::size_t>(pa)] ^
                             result.recovered_key[static_cast<std::size_t>(pb)];
        EXPECT_EQ(rec_rel, truth_rel) << "pairs " << a << "," << b;
        ++checked;
    }
    EXPECT_GE(checked, 1);
}

TEST(TempAttack, SubstitutionHelperTestsIntendedHypothesis) {
    // White-box: for a requester/target whose reference bits are known from
    // enrollment, the manipulated helper must fail iff the bits differ
    // (after t injected parity errors).
    Scenario s(407);
    ASSERT_GE(s.coop_count(), 2);
    const auto& helper = s.enrollment.helper;
    // Anchor safety, mirroring the attack: c1 must not be referenced by any
    // cooperating record whose interval covers the ambient temperature.
    std::vector<bool> referenced(helper.records.size(), false);
    for (const auto& rec : helper.records) {
        if (rec.cls == PairClass::Cooperating && 25.0 >= rec.t_low && 25.0 <= rec.t_high) {
            if (rec.helper_pair >= 0) referenced[static_cast<std::size_t>(rec.helper_pair)] = true;
            if (rec.mask_pair >= 0) referenced[static_cast<std::size_t>(rec.mask_pair)] = true;
        }
    }
    int c1 = -1;
    for (std::size_t p = 0; p < helper.records.size(); ++p) {
        if (helper.records[p].cls == PairClass::Cooperating &&
            helper.records[p].helper_pair >= 0 && !referenced[p]) {
            c1 = static_cast<int>(p);
            break;
        }
    }
    ASSERT_GE(c1, 0);
    const int ci = helper.records[static_cast<std::size_t>(c1)].helper_pair;
    Xoshiro256pp rng(408);
    int tested = 0;
    for (std::size_t cj = 0; cj < helper.records.size(); ++cj) {
        if (static_cast<int>(cj) == c1 || static_cast<int>(cj) == ci) continue;
        const auto& rec = helper.records[cj];
        if (rec.cls != PairClass::Cooperating) continue;
        if (25.0 >= rec.t_low && 25.0 <= rec.t_high) continue; // unstable at 25C
        const auto variant = TempAwareAttack::make_substitution_helper(
            helper, s.puf.code(), c1, static_cast<int>(cj), false, 25.0, s.puf.code().t());
        // One-sided observable (cf. CoroSession::any_pass): under the equal
        // hypothesis some query passes quickly; under the unequal one the
        // word always carries t+1 errors and every query fails.
        int successes = 0;
        for (int q = 0; q < 4; ++q) {
            const auto rec_out = s.puf.reconstruct(variant, 25.0, rng);
            successes += rec_out.ok && rec_out.key == s.enrollment.key;
        }
        const bool equal = s.enrollment.reference_bits[cj] ==
                           s.enrollment.reference_bits[static_cast<std::size_t>(ci)];
        if (equal) {
            EXPECT_GE(successes, 1) << "cj=" << cj;
        } else {
            EXPECT_EQ(successes, 0) << "cj=" << cj;
        }
        ++tested;
    }
    EXPECT_GE(tested, 1);
}

TEST(TempAttack, DeterministicScanLeaksTrueRelations) {
    // Section IV-D's warning: every (j, h) inferred from a deterministic
    // enrollment scan must satisfy r_j != r_h in ground truth.
    int total_leaked = 0;
    for (std::uint64_t seed : {411u, 412u, 413u, 414u, 415u}) {
        Scenario s(seed, HelperSelectionPolicy::DeterministicScan);
        const auto leaked =
            TempAwareAttack::analyze_deterministic_scan(s.enrollment.helper);
        for (const auto& [j, h] : leaked) {
            EXPECT_NE(s.enrollment.reference_bits[static_cast<std::size_t>(j)],
                      s.enrollment.reference_bits[static_cast<std::size_t>(h)])
                << "seed " << seed << " leak (" << j << "," << h << ")";
        }
        total_leaked += static_cast<int>(leaked.size());
    }
    EXPECT_GT(total_leaked, 0) << "scan analysis never inferred anything";
}

TEST(TempAttack, RandomSelectionLeaksNothingExploitable) {
    // With the random policy the scan analysis is unsound by construction —
    // the attack must not rely on it. We simply document that the analysis
    // applied to random-policy helpers yields relations that are sometimes
    // wrong (i.e. the countermeasure works).
    int wrong = 0;
    int total = 0;
    for (std::uint64_t seed = 421; seed < 441; ++seed) {
        Scenario s(seed, HelperSelectionPolicy::Random);
        const auto leaked = TempAwareAttack::analyze_deterministic_scan(s.enrollment.helper);
        for (const auto& [j, h] : leaked) {
            wrong += s.enrollment.reference_bits[static_cast<std::size_t>(j)] ==
                     s.enrollment.reference_bits[static_cast<std::size_t>(h)];
            ++total;
        }
    }
    if (total > 0) {
        EXPECT_GT(wrong, 0) << "random policy unexpectedly reproduced scan order";
    }
}

TEST(TempAttack, QueryCostLinearInKeyBits) {
    Scenario s(442);
    ASSERT_GE(s.coop_count(), 2);
    TempAwareAttack::Victim victim(s.puf, s.enrollment.key, 25.0, 443);
    const auto result = run_session(
        TempAwareSession(s.enrollment.helper, s.puf.code(), victim.ambient_c()), victim);
    ASSERT_TRUE(result.resolved);
    const auto m = static_cast<std::int64_t>(s.enrollment.key.size());
    EXPECT_LE(result.queries, 8 * m + 30);
}

TEST(TempAttack, GracefulWhenTooFewCooperatingPairs) {
    // A tiny array with mild tempco spread can yield < 2 cooperating pairs.
    ProcessParams p{};
    p.tempco_sigma = 0.0; // no crossovers at all
    const RoArray arr({8, 4}, p, 444);
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(445);
    const auto enrollment = puf.enroll(rng);
    TempAwareAttack::Victim victim(puf, enrollment.key, 25.0, 446);
    const auto result =
        run_session(TempAwareSession(enrollment.helper, puf.code(), victim.ambient_c()), victim);
    EXPECT_FALSE(result.resolved);
    EXPECT_EQ(result.queries, 0);
}

TEST(TempAttack, BoundaryInjectionForcesExactErrorCount) {
    // The paper's Tl/Th manipulation: each reclassified pair contributes one
    // deterministic inversion error. With d <= t the device still corrects;
    // with d = t + 1 it always fails — no parity access needed.
    Scenario s(451);
    Xoshiro256pp rng(452);
    const int t = s.puf.code().t();
    for (int d = 0; d <= t; ++d) {
        const auto variant = TempAwareAttack::make_boundary_injection_helper(
            s.enrollment.helper, 25.0, d);
        const auto rec = s.puf.reconstruct(variant, 25.0, rng);
        ASSERT_TRUE(rec.ok) << "d=" << d;
        EXPECT_EQ(rec.key, s.enrollment.key) << "d=" << d;
        EXPECT_GE(rec.corrected, d) << "d=" << d;
    }
    // Injections land in pair-index order, i.e. all in the first ECC block:
    // t + 1 of them overflow that block deterministically.
    const auto overflow = TempAwareAttack::make_boundary_injection_helper(
        s.enrollment.helper, 25.0, t + 1);
    int failures = 0;
    for (int trial = 0; trial < 5; ++trial) {
        const auto rec = s.puf.reconstruct(overflow, 25.0, rng);
        failures += !rec.ok || rec.key != s.enrollment.key;
    }
    EXPECT_EQ(failures, 5);
}

TEST(TempAttack, BoundaryInjectionThrowsWhenExhausted) {
    Scenario s(453);
    EXPECT_THROW(TempAwareAttack::make_boundary_injection_helper(
                     s.enrollment.helper, 25.0,
                     static_cast<int>(s.enrollment.helper.records.size()) + 1),
                 std::invalid_argument);
}

} // namespace

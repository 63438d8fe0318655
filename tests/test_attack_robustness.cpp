// Attack robustness sweeps: the Section VI attacks are parameter-agnostic —
// stronger ECC, different code lengths and bigger arrays only change the
// constants, never the outcome. ("For generality, we assume all
// constructions to employ an ECC as a final reliability measure ... The
// absence of an ECC can be considered as the degenerate case t = 0.")
#include <gtest/gtest.h>

#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/seqpair_attack.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf;

// Drives `session` over the victim's oracle to completion; returns its result.
template <typename AttackSession, typename Puf>
auto run_session(AttackSession&& session, attack::Victim<Puf>& victim) {
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    return session.result();
}

struct EccParams {
    int m;
    int t;
};

class SeqAttackVsEcc : public ::testing::TestWithParam<EccParams> {};

TEST_P(SeqAttackVsEcc, StrongerCodesDoNotStopTheAttack) {
    const auto [m, t] = GetParam();
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1701);
    pairing::SeqPairingConfig cfg;
    cfg.ecc_m = m;
    cfg.ecc_t = t;
    const pairing::SeqPairingPuf puf(chip, cfg);
    rng::Xoshiro256pp rng(1702);
    const auto enrollment = puf.enroll(rng);
    attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 1703);
    const auto result =
        run_session(attack::SeqPairingSession(enrollment.helper, puf.code()), victim);
    ASSERT_TRUE(result.resolved) << "BCH(m=" << m << ",t=" << t << ")";
    EXPECT_EQ(result.recovered_key, enrollment.key);
    // Query cost stays linear in key bits regardless of t: the injection
    // always parks the word at the boundary, wherever the boundary is.
    EXPECT_LE(result.queries, 6 * static_cast<std::int64_t>(enrollment.key.size()) + 20);
}

INSTANTIATE_TEST_SUITE_P(Codes, SeqAttackVsEcc,
                         ::testing::Values(EccParams{5, 1}, EccParams{5, 3}, EccParams{6, 1},
                                           EccParams{6, 3}, EccParams{6, 5},
                                           EccParams{7, 4}));

class GroupAttackVsEcc : public ::testing::TestWithParam<EccParams> {};

TEST_P(GroupAttackVsEcc, StrongerCodesDoNotStopTheAttack) {
    const auto [m, t] = GetParam();
    sim::ProcessParams params{};
    params.sigma_noise_mhz = 0.02;
    const sim::RoArray chip({10, 4}, params, 1704);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    cfg.ecc_m = m;
    cfg.ecc_t = t;
    const group::GroupBasedPuf puf(chip, cfg);
    rng::Xoshiro256pp rng(1705);
    const auto enrollment = puf.enroll(rng);
    attack::GroupBasedAttack::Victim victim(puf, 1706);
    const auto result = run_session(
        attack::GroupSession(enrollment.helper, chip.geometry(), puf.code()), victim);
    ASSERT_TRUE(result.complete) << "BCH(m=" << m << ",t=" << t << ")";
    EXPECT_EQ(result.recovered_key, enrollment.key);
}

INSTANTIATE_TEST_SUITE_P(Codes, GroupAttackVsEcc,
                         ::testing::Values(EccParams{6, 1}, EccParams{6, 3}, EccParams{6, 5},
                                           EccParams{7, 3}));

TEST(AttackRobustness, SeqPairingAcrossArraySizes) {
    for (const sim::ArrayGeometry g :
         {sim::ArrayGeometry{8, 4}, sim::ArrayGeometry{16, 8}, sim::ArrayGeometry{16, 16}}) {
        const sim::RoArray chip(g, sim::ProcessParams{}, 1707);
        const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
        rng::Xoshiro256pp rng(1708);
        const auto enrollment = puf.enroll(rng);
        attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 1709);
        const auto result =
            run_session(attack::SeqPairingSession(enrollment.helper, puf.code()), victim);
        ASSERT_TRUE(result.resolved) << g.cols << "x" << g.rows;
        EXPECT_EQ(result.recovered_key, enrollment.key) << g.cols << "x" << g.rows;
    }
}

TEST(AttackRobustness, SeqPairingAcrossThresholds) {
    // The Algorithm 1 threshold trades key length for reliability; it does
    // not affect attackability.
    for (double th : {0.2, 0.5, 1.0}) {
        const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1710);
        pairing::SeqPairingConfig cfg;
        cfg.delta_f_th = th;
        const pairing::SeqPairingPuf puf(chip, cfg);
        rng::Xoshiro256pp rng(1711);
        const auto enrollment = puf.enroll(rng);
        if (enrollment.key.size() < 2) continue;
        attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 1712);
        const auto result =
            run_session(attack::SeqPairingSession(enrollment.helper, puf.code()), victim);
        ASSERT_TRUE(result.resolved) << "th = " << th;
        EXPECT_EQ(result.recovered_key, enrollment.key) << "th = " << th;
    }
}

TEST(AttackRobustness, GroupAttackAcrossDistillerDegrees) {
    sim::ProcessParams params{};
    params.sigma_noise_mhz = 0.02;
    for (int degree : {2, 3}) {
        const sim::RoArray chip({10, 4}, params, 1713);
        group::GroupPufConfig cfg;
        cfg.delta_f_th = 0.15;
        cfg.distiller_degree = degree;
        const group::GroupBasedPuf puf(chip, cfg);
        rng::Xoshiro256pp rng(1714);
        const auto enrollment = puf.enroll(rng);
        attack::GroupBasedAttack::Victim victim(puf, 1715);
        const auto result = run_session(
            attack::GroupSession(enrollment.helper, chip.geometry(), puf.code()), victim);
        ASSERT_TRUE(result.complete) << "degree " << degree;
        EXPECT_EQ(result.recovered_key, enrollment.key) << "degree " << degree;
    }
}

} // namespace

// Section VI-A attack tests: full key recovery against sequential pairing.
#include <gtest/gtest.h>

#include "ropuf/attack/seqpair_attack.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::attack;
using namespace ropuf::pairing;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

struct Scenario {
    RoArray array;
    SeqPairingPuf puf;
    SeqPairingPuf::Enrollment enrollment;

    Scenario(std::uint64_t seed, SeqPairingConfig cfg, ProcessParams params = ProcessParams{})
        : array({16, 8}, params, seed), puf(array, cfg), enrollment{} {
        Xoshiro256pp rng(seed ^ 0x9999);
        enrollment = puf.enroll(rng);
    }
};

// Drives `session` over the victim's oracle to completion; returns its result.
template <typename AttackSession, typename Puf>
auto run_session(AttackSession&& session, Victim<Puf>& victim) {
    auto oracle = make_oracle(victim);
    run_to_completion(session, oracle);
    return session.result();
}

class SeqAttackSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqAttackSeeds, RecoversFullKey) {
    Scenario s(GetParam(), SeqPairingConfig{});
    SeqPairingAttack::Victim victim(s.puf, s.enrollment.key, GetParam() ^ 0x1111);
    const auto result = run_session(SeqPairingSession(s.enrollment.helper, s.puf.code()), victim);
    ASSERT_TRUE(result.resolved);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
    EXPECT_FALSE(result.used_sorted_leak);
    EXPECT_EQ(result.relation_tests, static_cast<int>(s.enrollment.key.size()) - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqAttackSeeds, ::testing::Values(301u, 302u, 303u, 304u, 305u));

TEST(SeqAttack, RecoversKeyUnderRealisticNoise) {
    ProcessParams noisy{};
    noisy.sigma_noise_mhz = 0.12; // non-trivial bit error rates
    Scenario s(311, SeqPairingConfig{}, noisy);
    SeqPairingAttack::Victim victim(s.puf, s.enrollment.key, 312);
    SeqPairingAttack::Config cfg;
    cfg.majority_wins = 3; // noise demands more confirmations
    const auto result =
        run_session(SeqPairingSession(s.enrollment.helper, s.puf.code(), cfg), victim);
    ASSERT_TRUE(result.resolved);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
}

TEST(SeqAttack, SortedStorageLeaksWithHandfulOfQueries) {
    SeqPairingConfig device_cfg;
    device_cfg.policy = ropuf::helperdata::PairOrderPolicy::SortedByFrequency;
    Scenario s(313, device_cfg);
    SeqPairingAttack::Victim victim(s.puf, s.enrollment.key, 314);
    const auto result = run_session(SeqPairingSession(s.enrollment.helper, s.puf.code()), victim);
    ASSERT_TRUE(result.resolved);
    EXPECT_TRUE(result.used_sorted_leak);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
    EXPECT_LE(result.queries, 5);
    EXPECT_EQ(result.relation_tests, 0);
}

TEST(SeqAttack, QueryCostScalesLinearlyInKeyBits) {
    Scenario s(315, SeqPairingConfig{});
    SeqPairingAttack::Victim victim(s.puf, s.enrollment.key, 316);
    const auto result = run_session(SeqPairingSession(s.enrollment.helper, s.puf.code()), victim);
    ASSERT_TRUE(result.resolved);
    const auto m = static_cast<std::int64_t>(s.enrollment.key.size());
    // Each relation test costs ~2*wins queries, plus the leak check and the
    // final candidate tests.
    EXPECT_LE(result.queries, 6 * m + 20);
}

TEST(SeqAttack, SwapHelperShapesErrorsAsDesigned) {
    // Direct white-box check of make_swap_helper: under H0 (equal bits) the
    // manipulated word carries exactly `inject` parity errors; under H1 two
    // more data errors appear.
    Scenario s(317, SeqPairingConfig{});
    const auto& key = s.enrollment.key;
    const auto& code = s.puf.code();
    int h0_seen = 0;
    int h1_seen = 0;
    for (std::size_t j = 1; j < key.size() && (h0_seen == 0 || h1_seen == 0); ++j) {
        const bool equal = key[0] == key[j];
        const auto swapped = SeqPairingAttack::make_swap_helper(
            s.enrollment.helper, code, 0, static_cast<int>(j), code.t());
        Xoshiro256pp rng(318);
        const auto rec = s.puf.reconstruct(swapped, rng);
        if (equal) {
            ++h0_seen;
            // Correct hypothesis: t injected errors still decode to the key.
            EXPECT_TRUE(rec.ok);
            EXPECT_EQ(rec.key, key);
        } else {
            ++h1_seen;
            // Incorrect: t + 2 errors overflow the decoder.
            EXPECT_TRUE(!rec.ok || rec.key != key);
        }
    }
    EXPECT_GT(h0_seen, 0);
    EXPECT_GT(h1_seen, 0);
}

TEST(SeqAttack, CandidateHelperAcceptsTrueKeyRejectsComplement) {
    Scenario s(319, SeqPairingConfig{});
    Xoshiro256pp rng(320);
    const auto good = SeqPairingAttack::make_candidate_helper(s.enrollment.helper, s.puf.code(),
                                                              s.enrollment.key);
    const auto rec_good = s.puf.reconstruct(good, rng);
    ASSERT_TRUE(rec_good.ok);
    EXPECT_EQ(rec_good.key, s.enrollment.key);

    const auto bad = SeqPairingAttack::make_candidate_helper(
        s.enrollment.helper, s.puf.code(), bits::complement(s.enrollment.key));
    const auto rec_bad = s.puf.reconstruct(bad, rng);
    EXPECT_TRUE(!rec_bad.ok || rec_bad.key != s.enrollment.key);
}

TEST(SeqAttack, TinyKeyDegenerateCase) {
    // Fewer than 2 pairs: nothing to swap, attack reports failure gracefully.
    SeqPairingHelper helper;
    helper.pairs = {{0, 1}};
    helper.ecc.response_bits = 1;
    const RoArray arr({4, 2}, ProcessParams{}, 321);
    const SeqPairingPuf puf(arr, SeqPairingConfig{});
    SeqPairingAttack::Victim victim(puf, bits::ones(1), 322);
    const auto result = run_session(SeqPairingSession(helper, puf.code()), victim);
    EXPECT_FALSE(result.resolved);
    EXPECT_TRUE(result.recovered_key.empty());
}

} // namespace

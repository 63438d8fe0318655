// Tests for the generic attack machinery: oracles, distinguisher, injection.
#include <gtest/gtest.h>

#include "ropuf/attack/calibration.hpp"
#include "ropuf/attack/distinguisher.hpp"
#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::attack;
using ropuf::rng::Xoshiro256pp;

TEST(Distinguisher, FixedBudgetPicksLowerFailureRate) {
    Xoshiro256pp rng(261);
    const std::vector<HypothesisProbe> probes{
        [&] { return rng.bernoulli(0.1); },
        [&] { return rng.bernoulli(0.9); },
    };
    const auto result = distinguish_fixed(probes, 40);
    EXPECT_EQ(result.best, 0);
    EXPECT_TRUE(result.confident);
    EXPECT_EQ(result.queries, 80);
    EXPECT_LT(result.p_value, 0.01);
}

TEST(Distinguisher, FixedBudgetUnsureOnEqualRates) {
    Xoshiro256pp rng(262);
    const std::vector<HypothesisProbe> probes{
        [&] { return rng.bernoulli(0.5); },
        [&] { return rng.bernoulli(0.5); },
    };
    const auto result = distinguish_fixed(probes, 30, 0.001);
    EXPECT_FALSE(result.confident);
}

TEST(Distinguisher, ThreeWayHypotheses) {
    Xoshiro256pp rng(263);
    const std::vector<HypothesisProbe> probes{
        [&] { return rng.bernoulli(0.8); },
        [&] { return rng.bernoulli(0.05); },
        [&] { return rng.bernoulli(0.8); },
    };
    EXPECT_EQ(distinguish_fixed(probes, 40).best, 1);
}

TEST(Distinguisher, SprtDecidesCorrectlyBothWays) {
    Xoshiro256pp rng(264);
    for (double truth : {0.05, 0.95}) {
        const auto result = distinguish_sprt([&] { return rng.bernoulli(truth); },
                                             [&] { return rng.bernoulli(1.0 - truth); }, 0.1,
                                             0.9, 0.01, 0.01, 200);
        EXPECT_EQ(result.best, truth < 0.5 ? 0 : 1);
        EXPECT_TRUE(result.confident);
    }
}

TEST(Distinguisher, SprtUsesFewQueriesOnEasyInstances) {
    Xoshiro256pp rng(265);
    const auto result =
        distinguish_sprt([&] { return rng.bernoulli(0.02); }, [&] { return true; }, 0.1, 0.9,
                         0.01, 0.01, 200);
    EXPECT_EQ(result.best, 0);
    EXPECT_LE(result.queries, 15);
}

TEST(Distinguisher, MajorityProbeBothDirections) {
    Xoshiro256pp rng(266);
    const auto fail = majority_probe([&] { return rng.bernoulli(0.95); }, 2, 25);
    EXPECT_TRUE(fail.failed);
    const auto pass = majority_probe([&] { return rng.bernoulli(0.05); }, 2, 25);
    EXPECT_FALSE(pass.failed);
    EXPECT_LE(pass.queries, 10);
}

TEST(Calibration, FlipParityBitsTargetsBlock) {
    const ropuf::ecc::BchCode code(5, 2);
    const ropuf::ecc::BlockEcc block_ecc(code);
    Xoshiro256pp rng(267);
    const auto ref = bits::random_bits(42, rng); // two blocks
    auto helper = block_ecc.enroll(ref);
    const auto pristine = helper.parity;
    flip_parity_bits(helper, block_ecc, 1, 2);
    EXPECT_EQ(bits::hamming(helper.parity, pristine), 2);
    // Only block 1's parity region changed.
    const int p = code.parity_bits();
    for (int i = 0; i < p; ++i) {
        EXPECT_EQ(helper.parity[static_cast<std::size_t>(i)],
                  pristine[static_cast<std::size_t>(i)]);
    }
}

TEST(Calibration, BlockOfPosition) {
    const ropuf::ecc::BchCode code(5, 2); // k = 21
    const ropuf::ecc::BlockEcc block_ecc(code);
    EXPECT_EQ(block_of_position(block_ecc, 0), 0);
    EXPECT_EQ(block_of_position(block_ecc, 20), 0);
    EXPECT_EQ(block_of_position(block_ecc, 21), 1);
}

TEST(Calibration, InvertForParityAvoidsProtectedPositions) {
    const ropuf::ecc::BchCode code(5, 2);
    const ropuf::ecc::BlockEcc block_ecc(code);
    Xoshiro256pp rng(268);
    const auto ref = bits::random_bits(21, rng);
    auto inverted = ref;
    invert_for_parity(inverted, block_ecc, 0, 3, {0, 1});
    EXPECT_EQ(bits::hamming(ref, inverted), 3);
    EXPECT_EQ(inverted[0], ref[0]);
    EXPECT_EQ(inverted[1], ref[1]);
}

TEST(Calibration, InvertForParityThrowsWhenBlockTooSmall) {
    const ropuf::ecc::BchCode code(5, 2);
    const ropuf::ecc::BlockEcc block_ecc(code);
    auto ref = bits::zeros(3); // single 3-bit shortened block
    EXPECT_THROW(invert_for_parity(ref, block_ecc, 0, 3, {0}), std::invalid_argument);
}

TEST(Calibration, AdaptiveOffsetFindsBand) {
    // Failure model: rate = min(1, 0.05 + 0.2 d): enters [0.2, 0.8] at d = 1.
    Xoshiro256pp rng(269);
    const auto result = calibrate_offset(
        [&](int d) { return rng.bernoulli(std::min(1.0, 0.05 + 0.2 * d)); }, 10, 60);
    EXPECT_TRUE(result.ok);
    EXPECT_GE(result.offset, 1);
    EXPECT_LE(result.offset, 3);
}

TEST(Calibration, AdaptiveOffsetReportsOvershoot) {
    Xoshiro256pp rng(270);
    // Rate jumps from 0 to 1: no level lands inside the band.
    const auto result =
        calibrate_offset([&](int d) { return d >= 2; }, 10, 30, 0.3, 0.7);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.offset, 2);
}

using SeqPuf = ropuf::pairing::SeqPairingPuf;

TEST(Oracle, KeyedModeCountsQueriesAndComparesKeys) {
    const ropuf::sim::RoArray arr({16, 8}, ropuf::sim::ProcessParams{}, 271);
    const SeqPuf puf(arr, ropuf::pairing::SeqPairingConfig{});
    Xoshiro256pp rng(272);
    const auto enrollment = puf.enroll(rng);
    Victim<SeqPuf> victim(puf, enrollment.key, 273);
    auto tampered = enrollment.helper;
    std::swap(tampered.pairs[0], tampered.pairs[1]); // may or may not fail...
    tampered.ecc.parity = bits::complement(tampered.ecc.parity); // ...this must
    const auto verdicts = make_oracle(victim).evaluate(
        std::vector{make_probe<SeqPuf>(enrollment.helper), make_probe<SeqPuf>(tampered)});
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_FALSE(verdicts[0]);
    EXPECT_TRUE(verdicts[1]);
    EXPECT_EQ(victim.queries(), 2);
    // Shared accounting: measurements follow the declared per-query cost.
    EXPECT_EQ(victim.measurements(), 2 * arr.count());
}

TEST(Oracle, ReprogramModeComparesAttackerKey) {
    const ropuf::sim::RoArray arr({16, 8}, ropuf::sim::ProcessParams{}, 274);
    const SeqPuf puf(arr, ropuf::pairing::SeqPairingConfig{});
    Xoshiro256pp rng(275);
    const auto enrollment = puf.enroll(rng);
    Victim<SeqPuf> victim(puf, 276);
    const auto verdicts = make_oracle(victim).evaluate(
        std::vector{make_probe<SeqPuf>(enrollment.helper, enrollment.key),
                    make_probe<SeqPuf>(enrollment.helper, bits::complement(enrollment.key))});
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_FALSE(verdicts[0]);
    EXPECT_TRUE(verdicts[1]);
}

} // namespace

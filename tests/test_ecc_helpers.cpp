// Helper-data constructions on top of the block codes: systematic-parity,
// code-offset, and the multi-block manager.
#include <gtest/gtest.h>

#include "block_ecc_bits.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/ecc/helper_constructions.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace {

namespace bits = ropuf::bits;
using ropuf::ecc::BchCode;
using ropuf::ecc::BlockEcc;
using ropuf::ecc::CodeOffsetHelper;
using ropuf::ecc::SystematicParityHelper;
using ropuf::ecc_test::reconstruct_bits;
using ropuf::rng::Xoshiro256pp;

TEST(SystematicParity, NoiselessRoundTrip) {
    const BchCode code(5, 2);
    const SystematicParityHelper helper(code);
    Xoshiro256pp rng(51);
    const auto ref = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    const auto h = helper.enroll(ref);
    EXPECT_EQ(static_cast<int>(h.size()), code.parity_bits());
    const auto rec = helper.reconstruct(ref, h);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.value, ref);
    EXPECT_EQ(rec.corrected, 0);
}

TEST(SystematicParity, CorrectsDataErrors) {
    const BchCode code(5, 2);
    const SystematicParityHelper helper(code);
    Xoshiro256pp rng(52);
    for (int e = 1; e <= code.t(); ++e) {
        const auto ref = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
        const auto h = helper.enroll(ref);
        auto noisy = ref;
        bits::flip_random(noisy, e, rng);
        const auto rec = helper.reconstruct(noisy, h);
        ASSERT_TRUE(rec.ok);
        EXPECT_EQ(rec.value, ref);
        EXPECT_EQ(rec.corrected, e);
    }
}

TEST(SystematicParity, ManipulatedParityActsAsErrors) {
    // Flipping d parity bits consumes d of the t-error budget — the attack's
    // injection mechanism.
    const BchCode code(6, 3);
    const SystematicParityHelper helper(code);
    Xoshiro256pp rng(53);
    const auto ref = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    auto h = helper.enroll(ref);
    // Flip exactly t parity bits: still decodes (to the same reference).
    for (int i = 0; i < code.t(); ++i) bits::flip(h, static_cast<std::size_t>(i));
    const auto rec = helper.reconstruct(ref, h);
    ASSERT_TRUE(rec.ok);
    EXPECT_EQ(rec.value, ref);
    EXPECT_EQ(rec.corrected, code.t());
    // One more data error pushes past t: decoding fails or miscorrects.
    auto noisy = ref;
    bits::flip(noisy, 0);
    const auto rec2 = helper.reconstruct(noisy, h);
    EXPECT_TRUE(!rec2.ok || rec2.value != ref);
}

TEST(CodeOffset, NoiselessAndNoisyRoundTrip) {
    const BchCode code(5, 3);
    const CodeOffsetHelper helper(code);
    Xoshiro256pp rng(54);
    const auto ref = bits::random_bits(static_cast<std::size_t>(code.n()), rng);
    const auto h = helper.enroll(ref, rng);
    EXPECT_EQ(h.size(), ref.size());
    for (int e = 0; e <= code.t(); ++e) {
        auto noisy = ref;
        bits::flip_random(noisy, e, rng);
        const auto rec = helper.reconstruct(noisy, h);
        ASSERT_TRUE(rec.ok);
        EXPECT_EQ(rec.value, ref);
    }
}

TEST(CodeOffset, HelperLooksUniform) {
    // The offset equals codeword XOR reference; over many enrollments of the
    // same reference its bits must look unbiased (the sketch hides the
    // response behind a random codeword).
    const BchCode code(5, 1);
    const CodeOffsetHelper helper(code);
    Xoshiro256pp rng(55);
    const auto ref = bits::zeros(static_cast<std::size_t>(code.n()));
    double total_bias = 0.0;
    constexpr int kTrials = 400;
    for (int trial = 0; trial < kTrials; ++trial) {
        total_bias += bits::bias(helper.enroll(ref, rng));
    }
    EXPECT_NEAR(total_bias / kTrials, 0.5, 0.03);
}

TEST(BlockEcc, LayoutArithmetic) {
    const BchCode code(5, 2); // k = 21
    const BlockEcc block_ecc(code);
    EXPECT_EQ(block_ecc.block_count(21), 1);
    EXPECT_EQ(block_ecc.block_count(22), 2);
    EXPECT_EQ(block_ecc.block_count(42), 2);
    EXPECT_EQ(block_ecc.block_data_bits(30, 0), 21);
    EXPECT_EQ(block_ecc.block_data_bits(30, 1), 9);
    EXPECT_EQ(block_ecc.helper_bits(30), 2 * code.parity_bits());
}

TEST(BlockEcc, MultiBlockRoundTripUnderScatteredErrors) {
    const BchCode code(5, 2);
    const BlockEcc block_ecc(code);
    Xoshiro256pp rng(56);
    const auto ref = bits::random_bits(50, rng); // 3 blocks (21+21+8)
    const auto helper = block_ecc.enroll(ref);
    auto noisy = ref;
    // Up to t errors in each block.
    bits::flip(noisy, 1);
    bits::flip(noisy, 5);
    bits::flip(noisy, 25);
    bits::flip(noisy, 45);
    const auto rec = reconstruct_bits(block_ecc, noisy, helper);
    ASSERT_TRUE(rec.ok);
    EXPECT_EQ(rec.value, ref);
    EXPECT_EQ(rec.corrected, 4);
}

TEST(BlockEcc, FailsWhenOneBlockOverflows) {
    const BchCode code(5, 2);
    const BlockEcc block_ecc(code);
    Xoshiro256pp rng(57);
    const auto ref = bits::random_bits(42, rng);
    const auto helper = block_ecc.enroll(ref);
    auto noisy = ref;
    bits::flip(noisy, 0);
    bits::flip(noisy, 1);
    bits::flip(noisy, 2); // 3 > t errors in block 0
    const auto rec = reconstruct_bits(block_ecc, noisy, helper);
    EXPECT_TRUE(!rec.ok || rec.value != ref);
}

TEST(BlockEcc, ShortenedBlockVirtualPositionsSafe) {
    // A 5-bit response in a (31, 21) code: 16 virtual zeros. The decoder must
    // never "correct" virtual positions into ones.
    const BchCode code(5, 2);
    const BlockEcc block_ecc(code);
    Xoshiro256pp rng(58);
    const auto ref = bits::random_bits(5, rng);
    const auto helper = block_ecc.enroll(ref);
    auto noisy = ref;
    bits::flip(noisy, 3);
    const auto rec = reconstruct_bits(block_ecc, noisy, helper);
    ASSERT_TRUE(rec.ok);
    EXPECT_EQ(rec.value, ref);
}

TEST(BlockEcc, ErrorCountsPerBlock) {
    const BchCode code(5, 2);
    const BlockEcc block_ecc(code);
    Xoshiro256pp rng(59);
    const auto ref = bits::random_bits(42, rng);
    auto noisy = ref;
    bits::flip(noisy, 0);
    bits::flip(noisy, 20);
    bits::flip(noisy, 21);
    const auto counts = block_ecc.block_error_counts(ref, noisy);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 2);
    EXPECT_EQ(counts[1], 1);
}

TEST(BlockEcc, HelperOfWrongLengthCaughtByCaller) {
    // reconstruct() asserts in debug; the device layers validate lengths
    // before calling. This test documents the contract at the BlockEcc level:
    // enroll always produces the advertised helper size.
    const BchCode code(6, 3);
    const BlockEcc block_ecc(code);
    Xoshiro256pp rng(60);
    for (int bits_count : {1, 44, 45, 46, 90, 135}) {
        const auto ref = bits::random_bits(static_cast<std::size_t>(bits_count), rng);
        const auto helper = block_ecc.enroll(ref);
        EXPECT_EQ(static_cast<int>(helper.parity.size()), block_ecc.helper_bits(bits_count));
        EXPECT_EQ(helper.response_bits, bits_count);
    }
}

} // namespace

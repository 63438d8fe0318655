// End-to-end device tests for the three pair-based constructions:
// enrollment/reconstruction reliability and helper serialization.
#include <gtest/gtest.h>

#include "ropuf/pairing/puf_pipeline.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::pairing;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

ProcessParams quiet_params() {
    ProcessParams p{};
    p.sigma_noise_mhz = 0.03;
    return p;
}

class SeqPipelineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqPipelineSeeds, EnrollThenReconstructRecoverKey) {
    const RoArray arr({16, 8}, quiet_params(), GetParam());
    SeqPairingConfig cfg;
    const SeqPairingPuf puf(arr, cfg);
    Xoshiro256pp rng(GetParam() ^ 0xabc);
    const auto enrollment = puf.enroll(rng);
    ASSERT_GT(enrollment.key.size(), 10u);
    for (int trial = 0; trial < 10; ++trial) {
        const auto rec = puf.reconstruct(enrollment.helper, rng);
        ASSERT_TRUE(rec.ok);
        EXPECT_EQ(rec.key, enrollment.key);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqPipelineSeeds, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(SeqPipeline, SortedPolicyMakesAllBitsOne) {
    const RoArray arr({16, 8}, quiet_params(), 91);
    SeqPairingConfig cfg;
    cfg.policy = ropuf::helperdata::PairOrderPolicy::SortedByFrequency;
    const SeqPairingPuf puf(arr, cfg);
    Xoshiro256pp rng(92);
    const auto enrollment = puf.enroll(rng);
    EXPECT_EQ(bits::weight(enrollment.key), static_cast<int>(enrollment.key.size()));
}

TEST(SeqPipeline, RandomizedPolicyIsRoughlyBalanced) {
    int ones = 0;
    int total = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const RoArray arr({16, 8}, quiet_params(), 100 + seed);
        const SeqPairingPuf puf(arr, SeqPairingConfig{});
        Xoshiro256pp rng(200 + seed);
        const auto enrollment = puf.enroll(rng);
        ones += bits::weight(enrollment.key);
        total += static_cast<int>(enrollment.key.size());
    }
    EXPECT_NEAR(static_cast<double>(ones) / total, 0.5, 0.1);
}

TEST(SeqPipeline, MalformedHelperFailsSafely) {
    const RoArray arr({16, 8}, quiet_params(), 93);
    const SeqPairingPuf puf(arr, SeqPairingConfig{});
    Xoshiro256pp rng(94);
    const auto enrollment = puf.enroll(rng);

    auto bad_index = enrollment.helper;
    bad_index.pairs[0].first = 10000;
    EXPECT_FALSE(puf.reconstruct(bad_index, rng).ok);

    auto bad_count = enrollment.helper;
    bad_count.pairs.pop_back();
    EXPECT_FALSE(puf.reconstruct(bad_count, rng).ok);

    auto bad_parity = enrollment.helper;
    bad_parity.ecc.parity.pop_back();
    EXPECT_FALSE(puf.reconstruct(bad_parity, rng).ok);
}

TEST(SeqPipeline, SerializationRoundTrip) {
    const RoArray arr({16, 8}, quiet_params(), 95);
    const SeqPairingPuf puf(arr, SeqPairingConfig{});
    Xoshiro256pp rng(96);
    const auto enrollment = puf.enroll(rng);
    const auto nvm = serialize(enrollment.helper);
    const auto parsed = parse_seq_pairing(nvm);
    EXPECT_EQ(parsed.pairs, enrollment.helper.pairs);
    EXPECT_EQ(parsed.ecc.parity, enrollment.helper.ecc.parity);
    EXPECT_EQ(parsed.ecc.response_bits, enrollment.helper.ecc.response_bits);
    // Round-trip through the device still reconstructs.
    const auto rec = puf.reconstruct(parsed, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

TEST(SeqPipeline, TruncatedNvmThrowsParseError) {
    const RoArray arr({16, 8}, quiet_params(), 97);
    const SeqPairingPuf puf(arr, SeqPairingConfig{});
    Xoshiro256pp rng(98);
    auto nvm = serialize(puf.enroll(rng).helper);
    auto bytes = nvm.bytes();
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW(parse_seq_pairing(ropuf::helperdata::Nvm(bytes)),
                 ropuf::helperdata::ParseError);
}

class MaskedPipelineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskedPipelineSeeds, EnrollThenReconstruct) {
    const RoArray arr({20, 8}, quiet_params(), GetParam());
    MaskedChainConfig cfg;
    const MaskedChainPuf puf(arr, cfg);
    Xoshiro256pp rng(GetParam() ^ 0xdef);
    const auto enrollment = puf.enroll(rng);
    ASSERT_EQ(static_cast<int>(enrollment.key.size()),
              masking_group_count(puf.base_pairs().size(), cfg.k));
    for (int trial = 0; trial < 10; ++trial) {
        const auto rec = puf.reconstruct(enrollment.helper, rng);
        ASSERT_TRUE(rec.ok);
        EXPECT_EQ(rec.key, enrollment.key);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedPipelineSeeds, ::testing::Values(11u, 12u, 13u));

TEST(MaskedPipeline, SerializationRoundTrip) {
    const RoArray arr({20, 8}, quiet_params(), 111);
    const MaskedChainPuf puf(arr, MaskedChainConfig{});
    Xoshiro256pp rng(112);
    const auto enrollment = puf.enroll(rng);
    const auto parsed = parse_masked_chain(serialize(enrollment.helper));
    EXPECT_EQ(parsed.beta, enrollment.helper.beta);
    EXPECT_EQ(parsed.masking.k, enrollment.helper.masking.k);
    EXPECT_EQ(parsed.masking.selected, enrollment.helper.masking.selected);
    EXPECT_EQ(parsed.ecc.parity, enrollment.helper.ecc.parity);
}

TEST(MaskedPipeline, WrongCoefficientCountFailsSafely) {
    const RoArray arr({20, 8}, quiet_params(), 113);
    const MaskedChainPuf puf(arr, MaskedChainConfig{});
    Xoshiro256pp rng(114);
    auto helper = puf.enroll(rng).helper;
    helper.beta.push_back(0.0);
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

// reconstruct_measured is called directly on a supplied scan (the victim's
// batched path): every structural inconsistency is a refusal, never a throw,
// and helper_consistent agrees with it.
TEST(MaskedPipeline, InconsistentHelperFailsSafelyOnASuppliedScan) {
    const RoArray arr({20, 8}, quiet_params(), 117);
    const MaskedChainPuf puf(arr, MaskedChainConfig{});
    Xoshiro256pp rng(118);
    const auto enrollment = puf.enroll(rng);
    const auto& condition = puf.config().condition;
    const auto scan = arr.measure_all(condition, rng);

    const auto honest = puf.reconstruct_measured(enrollment.helper, condition, scan);
    ASSERT_TRUE(honest.ok);
    EXPECT_EQ(honest.key, enrollment.key);

    std::vector<MaskedChainHelper> broken(7, enrollment.helper);
    broken[0].beta.push_back(0.0);
    broken[1].masking.selected.back() = broken[1].masking.k;
    broken[2].masking.selected.front() = -1;
    broken[3].masking.k = 0;
    broken[4].masking.selected.pop_back();
    broken[5].ecc.response_bits += 1;
    broken[6].ecc.parity.push_back(0);
    for (std::size_t i = 0; i < broken.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_FALSE(puf.helper_consistent(broken[i]));
        ropuf::core::ReconstructResult rec;
        EXPECT_NO_THROW(rec = puf.reconstruct_measured(broken[i], condition, scan));
        EXPECT_FALSE(rec.ok);
    }
}

TEST(MaskedPipeline, MaskingSelectionsAreReliabilityOptimal) {
    // The selected pair in each group should have the maximal |discrepancy|
    // among its group's candidates on the enrollment residuals.
    const RoArray arr({20, 8}, quiet_params(), 115);
    MaskedChainConfig cfg;
    const MaskedChainPuf puf(arr, cfg);
    Xoshiro256pp rng(116);
    const auto enrollment = puf.enroll(rng);
    // Rough reliability check: reconstruction is perfect across trials even
    // with noticeable noise (selected pairs are the widest-margin ones).
    for (int trial = 0; trial < 5; ++trial) {
        EXPECT_TRUE(puf.reconstruct(enrollment.helper, rng).ok);
    }
}

class OverlapPipelineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapPipelineSeeds, EnrollThenReconstruct) {
    const RoArray arr({10, 4}, quiet_params(), GetParam());
    OverlapChainConfig cfg;
    cfg.ecc_t = 4; // overlapping chains have weaker margins; give ECC room
    const OverlapChainPuf puf(arr, cfg);
    Xoshiro256pp rng(GetParam() ^ 0x321);
    const auto enrollment = puf.enroll(rng);
    ASSERT_EQ(enrollment.key.size(), static_cast<std::size_t>(arr.count() - 1));
    int ok_count = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto rec = puf.reconstruct(enrollment.helper, rng);
        ok_count += rec.ok && rec.key == enrollment.key;
    }
    EXPECT_GE(ok_count, 9); // overlap pairs include weak comparisons
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapPipelineSeeds, ::testing::Values(21u, 22u, 23u));

TEST(OverlapPipeline, SerializationRoundTrip) {
    const RoArray arr({10, 4}, quiet_params(), 121);
    const OverlapChainPuf puf(arr, OverlapChainConfig{});
    Xoshiro256pp rng(122);
    const auto enrollment = puf.enroll(rng);
    const auto parsed = parse_overlap_chain(serialize(enrollment.helper));
    EXPECT_EQ(parsed.beta, enrollment.helper.beta);
    EXPECT_EQ(parsed.ecc.parity, enrollment.helper.ecc.parity);
    EXPECT_EQ(parsed.ecc.response_bits, enrollment.helper.ecc.response_bits);
}

TEST(OverlapPipeline, KeyDependsOnDistillerCoefficients) {
    // Rewriting beta changes the residual map and hence the regenerated bits:
    // the attack's lever, observable as reconstruction failure.
    const RoArray arr({10, 4}, quiet_params(), 123);
    const OverlapChainPuf puf(arr, OverlapChainConfig{});
    Xoshiro256pp rng(124);
    const auto enrollment = puf.enroll(rng);
    auto tampered = enrollment.helper;
    tampered.beta[1] += 50.0; // steep x gradient
    const auto rec = puf.reconstruct(tampered, rng);
    EXPECT_TRUE(!rec.ok || rec.key != enrollment.key);
}

} // namespace

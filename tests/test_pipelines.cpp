// End-to-end device tests for the three pair-based constructions:
// enrollment/reconstruction reliability and helper serialization; and the
// packed-word regeneration of every pair-based victim (tempaware included)
// against a byte-per-bit reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "ropuf/distiller/regression.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

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

// ---------------------------------------------------------------------------
// Word-path regeneration against a byte-per-bit reference
// ---------------------------------------------------------------------------

struct RegenTally {
    int ok_blocks = 0;
    int failed_blocks = 0;
    int virtual_miscorrections = 0; ///< decoder ok, but it set a shortened zero
};

/// BlockEcc reconstruction stated byte per bit: each block's received word
/// [virtual zeros | data | parity] goes through BchCode::decode; a block the
/// decoder fails on, or "corrects" into a virtual zero, keeps its noisy bits.
ropuf::core::ReconstructResult byte_reference(const ropuf::ecc::BchCode& code,
                                              const bits::BitVec& noisy,
                                              const ropuf::ecc::BlockEccHelper& helper,
                                              RegenTally& tally) {
    const int k = code.k();
    const int p = code.parity_bits();
    const int total = static_cast<int>(noisy.size());
    ropuf::core::ReconstructResult out{true, {}, 0};
    for (int at = 0; at < total; at += k) {
        const int len = std::min(k, total - at);
        const auto data = noisy.begin() + at;
        bits::BitVec word(static_cast<std::size_t>(k - len), 0);
        word.insert(word.end(), data, data + len);
        const auto parity = helper.parity.begin() + at / k * p;
        word.insert(word.end(), parity, parity + p);
        const auto dec = code.decode(word);
        const auto first = dec.codeword.begin();
        const bool virtual_set = std::any_of(first, first + (k - len), [](auto v) { return v != 0; });
        if (dec.ok && virtual_set) ++tally.virtual_miscorrections;
        if (!dec.ok || virtual_set) {
            out.ok = false;
            ++tally.failed_blocks;
            out.key.insert(out.key.end(), data, data + len);
            continue;
        }
        ++tally.ok_blocks;
        out.corrected += dec.corrected;
        out.key.insert(out.key.end(), first + (k - len), first + k);
    }
    return out;
}

/// Feeds `puf.reconstruct_measured` noisy scans (extra Gaussian noise of
/// growing width) under the enrolled helper and, every fourth round, under
/// random parity; `noisy_bits(helper, scan, condition)` states the victim's
/// response bits byte per bit. ok, key and corrected must equal the
/// reference.
template <typename Puf, typename Helper, typename NoisyBits>
void expect_word_path_matches_bytes(const RoArray& arr, const Puf& puf, const Helper& enrolled,
                                    const std::vector<ropuf::sim::Condition>& conditions,
                                    NoisyBits noisy_bits, std::uint64_t seed,
                                    RegenTally& tally) {
    Xoshiro256pp rng(seed);
    const double extra_sd[] = {0.0, 0.05, 0.3, 2.0};
    for (int round = 0; round < 64; ++round) {
        SCOPED_TRACE(round);
        auto helper = enrolled;
        if (round % 4 == 3) helper.ecc.parity = bits::random_bits(helper.ecc.parity.size(), rng);
        const auto& condition = conditions[static_cast<std::size_t>(round) % conditions.size()];
        auto scan = arr.measure_all(condition, rng);
        for (auto& f : scan) f += rng.gaussian(0.0, extra_sd[(round / 4) % 4]);
        const auto got = puf.reconstruct_measured(helper, condition, scan);
        const auto want =
            byte_reference(puf.code(), noisy_bits(helper, scan, condition), helper.ecc, tally);
        ASSERT_EQ(got.ok, want.ok);
        ASSERT_EQ(got.key, want.key);
        ASSERT_EQ(got.corrected, want.corrected);
    }
}

TEST(WordPath, VictimsMatchByteReference) {
    RegenTally tally;
    const auto distilled = [](const RoArray& arr, const std::vector<double>& beta, int degree,
                              std::span<const double> scan) {
        return ropuf::distiller::residuals(arr.geometry(), scan,
                                           ropuf::distiller::PolySurface(degree, beta));
    };
    {
        SCOPED_TRACE("seqpair");
        const RoArray arr({20, 8}, quiet_params(), 131);
        const SeqPairingPuf puf(arr, SeqPairingConfig{});
        Xoshiro256pp rng(132);
        const auto enrollment = puf.enroll(rng);
        expect_word_path_matches_bytes(
            arr, puf, enrollment.helper, {puf.config().condition},
            [](const SeqPairingHelper& h, std::span<const double> scan, const auto&) {
                return evaluate_pairs(h.pairs, scan);
            },
            133, tally);
    }
    {
        SCOPED_TRACE("maskedchain");
        const RoArray arr({20, 8}, quiet_params(), 134);
        const MaskedChainPuf puf(arr, MaskedChainConfig{});
        Xoshiro256pp rng(135);
        const auto enrollment = puf.enroll(rng);
        expect_word_path_matches_bytes(
            arr, puf, enrollment.helper, {puf.config().condition},
            [&](const MaskedChainHelper& h, std::span<const double> scan, const auto&) {
                return evaluate_pairs(select_pairs(puf.base_pairs(), h.masking),
                                      distilled(arr, h.beta, puf.config().distiller_degree, scan));
            },
            136, tally);
    }
    {
        SCOPED_TRACE("overlapchain");
        const RoArray arr({20, 8}, quiet_params(), 137);
        const OverlapChainPuf puf(arr, OverlapChainConfig{});
        Xoshiro256pp rng(138);
        const auto enrollment = puf.enroll(rng);
        expect_word_path_matches_bytes(
            arr, puf, enrollment.helper, {puf.config().condition},
            [&](const OverlapChainHelper& h, std::span<const double> scan, const auto&) {
                return evaluate_pairs(puf.pairs(),
                                      distilled(arr, h.beta, puf.config().distiller_degree, scan));
            },
            139, tally);
    }
    {
        SCOPED_TRACE("tempaware");
        using namespace ropuf::tempaware;
        ProcessParams rich{};
        rich.tempco_sigma = 0.015; // crossover-rich: cooperating pairs to assist
        const RoArray arr({16, 16}, rich, 141);
        TempAwareConfig cfg;
        cfg.classification = {-20.0, 85.0, 0.2};
        const TempAwarePuf puf(arr, cfg);
        Xoshiro256pp rng(142);
        const auto enrollment = puf.enroll(rng);
        // Temperatures below, inside and above cooperating intervals.
        std::vector<ropuf::sim::Condition> conditions;
        for (const double t : {-15.0, 25.0, 82.0}) {
            conditions.push_back(ropuf::core::DeviceTraits<TempAwarePuf>::condition_at(puf, t));
        }
        for (const auto& rec : enrollment.helper.records) {
            if (rec.cls != PairClass::Cooperating || conditions.size() >= 6) continue;
            conditions.push_back(ropuf::core::DeviceTraits<TempAwarePuf>::condition_at(
                puf, 0.5 * (rec.t_low + rec.t_high)));
        }
        ASSERT_GE(conditions.size(), 4u);
        // The device's rules, byte per bit: sign of the pair (inverted above
        // a cooperating interval); inside it, helper XOR mask.
        const auto noisy_bits = [](const TempAwareHelper& h, std::span<const double> scan,
                                   const ropuf::sim::Condition& c) {
            const double t = c.temperature_c;
            const auto direct = [&](int p) {
                const auto [a, b] = h.pairs[static_cast<std::size_t>(p)];
                const auto& rec = h.records[static_cast<std::size_t>(p)];
                const bool above = rec.cls == PairClass::Cooperating && t > rec.t_high;
                return static_cast<std::uint8_t>(
                    (scan[static_cast<std::size_t>(a)] > scan[static_cast<std::size_t>(b)]) != above);
            };
            bits::BitVec out;
            for (std::size_t p = 0; p < h.records.size(); ++p) {
                const auto& rec = h.records[p];
                const int pi = static_cast<int>(p);
                if (rec.cls == PairClass::Good) {
                    out.push_back(direct(pi));
                } else if (rec.cls == PairClass::Cooperating) {
                    const bool inside = t >= rec.t_low && t <= rec.t_high;
                    out.push_back(inside ? direct(rec.helper_pair) ^ direct(rec.mask_pair)
                                         : direct(pi));
                }
            }
            return out;
        };
        expect_word_path_matches_bytes(arr, puf, enrollment.helper, conditions, noisy_bits, 143,
                                       tally);
    }
    // The comparison covered decoded, failed and virtually miscorrected blocks.
    EXPECT_GT(tally.ok_blocks, 0);
    EXPECT_GT(tally.failed_blocks, 0);
    EXPECT_GT(tally.virtual_miscorrections, 0);
}

} // namespace

// BCH encoder/decoder tests, parameterized over (m, t). The round-trip
// decoding guarantee (encode∘decode = id within t errors) is property-based:
// random messages + random error sets from tests/pt_util.hpp, with failing
// cases shrunk to a minimal (message, error-set) counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "block_ecc_bits.hpp"
#include "pt_util.hpp"
#include "ropuf/bits/bitvec.hpp"
#include "ropuf/ecc/bch.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/ecc/repetition.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace {

namespace bits = ropuf::bits;
using ropuf::ecc::BchCode;
using ropuf::ecc::BlockEcc;
using ropuf::ecc::BlockEccHelper;
using ropuf::ecc::Gf2m;
using ropuf::ecc::RepetitionCode;
using ropuf::rng::Xoshiro256pp;

struct BchParams {
    int m;
    int t;
    int expected_k; // standard (n, k) values from code tables
};

class BchParam : public ::testing::TestWithParam<BchParams> {};

TEST_P(BchParam, DimensionsMatchStandardTables) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    EXPECT_EQ(code.n(), (1 << m) - 1);
    EXPECT_EQ(code.k(), expected_k);
    EXPECT_EQ(code.parity_bits(), code.n() - code.k());
}

TEST_P(BchParam, EncodeIsSystematic) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    Xoshiro256pp rng(41);
    const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    const auto cw = code.encode(msg);
    ASSERT_EQ(static_cast<int>(cw.size()), code.n());
    EXPECT_EQ(bits::slice(cw, 0, static_cast<std::size_t>(code.k())), msg);
    EXPECT_EQ(code.message_of(cw), msg);
}

TEST_P(BchParam, EncodedWordsAreCodewords) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    Xoshiro256pp rng(42);
    for (int trial = 0; trial < 10; ++trial) {
        const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
        EXPECT_TRUE(code.is_codeword(code.encode(msg)));
    }
}

TEST_P(BchParam, ParityIsLinear) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    Xoshiro256pp rng(43);
    const auto m1 = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    const auto m2 = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    const auto p1 = code.parity(m1);
    const auto p2 = code.parity(m2);
    EXPECT_EQ(code.parity(bits::xor_bits(m1, m2)), bits::xor_bits(p1, p2));
    EXPECT_EQ(code.parity(bits::zeros(static_cast<std::size_t>(code.k()))),
              bits::zeros(static_cast<std::size_t>(code.parity_bits())));
}

TEST_P(BchParam, PropertyRoundTripWithinTErrors) {
    // encode∘decode = id for every message and every error set of weight
    // <= t — including the zero-error fast path (error count 0 is generated
    // too). A failure shrinks to the minimal breaking (message, errors).
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    const auto result = pt::check<pt::CodewordCase>(
        "bch(" + std::to_string(m) + "," + std::to_string(t) + ") round trip", 44, 60,
        [&](pt::Rng& rng) {
            return pt::random_codeword_case(rng, static_cast<std::size_t>(code.k()),
                                            static_cast<std::size_t>(code.n()),
                                            static_cast<std::size_t>(t));
        },
        pt::shrink_codeword_case,
        [&](const pt::CodewordCase& cw) -> std::string {
            const auto codeword = code.encode(cw.message);
            auto received = codeword;
            for (const std::size_t pos : cw.errors) bits::flip(received, pos);
            const auto decoded = code.decode(received);
            if (!decoded.ok) return "decode flagged failure within the t-error radius";
            if (decoded.codeword != codeword) return "decoded to a different codeword";
            if (decoded.corrected != static_cast<int>(cw.errors.size())) {
                return "corrected " + std::to_string(decoded.corrected) + " errors, expected " +
                       std::to_string(cw.errors.size());
            }
            if (code.message_of(decoded.codeword) != cw.message) {
                return "systematic message extraction changed the message";
            }
            return "";
        },
        pt::show_codeword_case);
    EXPECT_FALSE(result.failed) << result.summary();
}

TEST_P(BchParam, DetectsOrMiscorrectsBeyondT) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    Xoshiro256pp rng(45);
    int detected = 0;
    int miscorrected_to_wrong = 0;
    constexpr int kTrials = 30;
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
        const auto cw = code.encode(msg);
        auto received = cw;
        bits::flip_random(received, t + 2, rng);
        const auto result = code.decode(received);
        if (!result.ok) {
            ++detected;
        } else if (result.codeword != cw) {
            ++miscorrected_to_wrong;
            EXPECT_TRUE(code.is_codeword(result.codeword));
        } else {
            // t+2 flips can cancel only if flip_random repeated a position,
            // which it does not — decoding back to cw would need distance<=t.
            ADD_FAILURE() << "t+2 distinct errors decoded back to the original";
        }
    }
    // Either outcome is legitimate, but the decoder must never be silent
    // about success while returning garbage lengths.
    EXPECT_EQ(detected + miscorrected_to_wrong, kTrials);
}

INSTANTIATE_TEST_SUITE_P(
    StandardCodes, BchParam,
    ::testing::Values(BchParams{4, 1, 11}, BchParams{4, 2, 7}, BchParams{4, 3, 5},
                      BchParams{5, 1, 26}, BchParams{5, 2, 21}, BchParams{5, 3, 16},
                      BchParams{6, 1, 57}, BchParams{6, 2, 51}, BchParams{6, 3, 45},
                      BchParams{6, 4, 39}, BchParams{7, 2, 113}, BchParams{7, 4, 99},
                      BchParams{8, 2, 239}, BchParams{8, 5, 215}));

TEST(Bch, HammingCodeSpecialCase) {
    // BCH(7, 4, 1) is the Hamming code.
    const BchCode code(3, 1);
    EXPECT_EQ(code.n(), 7);
    EXPECT_EQ(code.k(), 4);
    // Every single-bit error is correctable.
    Xoshiro256pp rng(47);
    const auto msg = bits::from_string("1011");
    const auto cw = code.encode(msg);
    for (int pos = 0; pos < 7; ++pos) {
        auto received = cw;
        bits::flip(received, static_cast<std::size_t>(pos));
        const auto result = code.decode(received);
        ASSERT_TRUE(result.ok);
        EXPECT_EQ(result.codeword, cw);
    }
}

TEST(Bch, RejectsDegenerateParameters) {
    EXPECT_THROW(BchCode(3, 0), std::invalid_argument);
    EXPECT_THROW(BchCode(4, 8), std::invalid_argument); // no message bits left
}

TEST(Bch, GeneratorDividesXnMinusOne) {
    // g(x) | x^n - 1 is equivalent to: encoding the all-zero message yields
    // zero parity and shifting any codeword cyclically stays a codeword.
    const BchCode code(5, 2);
    Xoshiro256pp rng(48);
    const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    auto cw = code.encode(msg);
    // Cyclic shift by one position.
    bits::BitVec shifted(cw.size());
    for (std::size_t i = 0; i < cw.size(); ++i) {
        shifted[(i + 1) % cw.size()] = cw[i];
    }
    EXPECT_TRUE(code.is_codeword(shifted));
}

// ---------------------------------------------------------------------------
// Bit-exact references. The codec's word-register parity, fixed-scratch
// Berlekamp–Massey and log-stepping Chien search must reproduce these plain
// formulations exactly — including which words fail and which miscorrect.

/// Byte-per-bit LFSR division: one shift of the whole register per message
/// bit, feeding back g(x) when the popped top bit differs from the input.
bits::BitVec reference_parity(const BchCode& code, const bits::BitVec& message) {
    const auto& g = code.generator();
    const int p = code.parity_bits();
    bits::BitVec rem(static_cast<std::size_t>(p), 0);
    for (const std::uint8_t in : message) {
        const auto feedback = static_cast<std::uint8_t>(rem[0] ^ in);
        for (int j = 0; j < p - 1; ++j) {
            rem[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
                rem[static_cast<std::size_t>(j + 1)] ^
                (feedback & g[static_cast<std::size_t>(p - 1 - j)]));
        }
        rem[static_cast<std::size_t>(p - 1)] = static_cast<std::uint8_t>(feedback & g[0]);
    }
    return rem;
}

/// S_j = r(alpha^j), j = 1..2t, bit i of the word the coefficient of x^(n-1-i).
std::vector<int> reference_syndromes(const BchCode& code, const bits::BitVec& word) {
    const Gf2m& f = code.field();
    std::vector<int> s(static_cast<std::size_t>(2 * code.t()), 0);
    for (int j = 1; j <= 2 * code.t(); ++j) {
        for (int i = 0; i < code.n(); ++i) {
            if (word[static_cast<std::size_t>(i)]) {
                s[static_cast<std::size_t>(j - 1)] ^= f.alpha_pow(j * (code.n() - 1 - i));
            }
        }
    }
    return s;
}

/// Berlekamp–Massey with a fresh locator vector per update, then a Chien
/// search that evaluates sigma by Horner (Gf2m::eval_poly) at every position.
BchCode::DecodeResult reference_decode(const BchCode& code, const bits::BitVec& received) {
    const Gf2m& f = code.field();
    const int n = code.n();
    const int t = code.t();
    const auto s = reference_syndromes(code, received);
    if (std::all_of(s.begin(), s.end(), [](int v) { return v == 0; })) {
        return {true, received, 0};
    }
    std::vector<int> sigma{1};
    std::vector<int> prev{1};
    int l = 0;
    int shift = 1;
    int prev_discrepancy = 1;
    for (int r = 0; r < 2 * t; ++r) {
        int d = s[static_cast<std::size_t>(r)];
        for (int i = 1; i <= l && i <= r; ++i) {
            if (static_cast<std::size_t>(i) < sigma.size()) {
                d ^= f.mul(sigma[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(r - i)]);
            }
        }
        if (d == 0) {
            ++shift;
            continue;
        }
        std::vector<int> next = sigma;
        const int scale = f.div(d, prev_discrepancy);
        if (next.size() < prev.size() + static_cast<std::size_t>(shift)) {
            next.resize(prev.size() + static_cast<std::size_t>(shift), 0);
        }
        for (std::size_t i = 0; i < prev.size(); ++i) {
            next[i + static_cast<std::size_t>(shift)] ^= f.mul(scale, prev[i]);
        }
        if (2 * l <= r) {
            prev = sigma;
            prev_discrepancy = d;
            l = r + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
        sigma = std::move(next);
    }
    while (sigma.size() > 1 && sigma.back() == 0) sigma.pop_back();
    const int degree = static_cast<int>(sigma.size()) - 1;
    if (degree > t || degree != l) return {false, received, 0};
    bits::BitVec corrected = received;
    int found = 0;
    for (int e = 0; e < n; ++e) {
        if (f.eval_poly(sigma, f.alpha_pow((n - e) % n)) == 0) {
            corrected[static_cast<std::size_t>(n - 1 - e)] ^= 1u;
            ++found;
        }
    }
    if (found != degree) return {false, received, 0};
    const auto check = reference_syndromes(code, corrected);
    if (!std::all_of(check.begin(), check.end(), [](int v) { return v == 0; })) {
        return {false, received, 0};
    }
    return {true, corrected, found};
}

struct Outcomes {
    int ok = 0;
    int failed = 0;
    int miscorrected = 0;
};

/// Encodes random messages, adds `errors` random flips and checks parity
/// and the full DecodeResult against the references.
void expect_matches_reference(const BchCode& code, int errors, int words, std::uint64_t seed,
                              Outcomes& tally) {
    Xoshiro256pp rng(seed);
    for (int w = 0; w < words; ++w) {
        const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
        const auto parity = code.parity(msg);
        ASSERT_EQ(parity, reference_parity(code, msg)) << "word " << w;
        auto received = bits::concat(msg, parity);
        bits::flip_random(received, errors, rng);
        const auto got = code.decode(received);
        const auto want = reference_decode(code, received);
        ASSERT_EQ(got.ok, want.ok) << errors << " errors, word " << w;
        ASSERT_EQ(got.codeword, want.codeword) << errors << " errors, word " << w;
        ASSERT_EQ(got.corrected, want.corrected) << errors << " errors, word " << w;
        if (!got.ok) {
            ++tally.failed;
        } else if (bits::slice(got.codeword, 0, msg.size()) != msg) {
            ++tally.miscorrected;
        } else {
            ++tally.ok;
        }
    }
}

TEST_P(BchParam, DecodeMatchesReferenceFromZeroToTPlusThreeErrors) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    Outcomes tally;
    for (int errors = 0; errors <= std::min(t + 3, code.n()); ++errors) {
        expect_matches_reference(code, errors, 40, 50 + static_cast<std::uint64_t>(errors),
                                 tally);
    }
    EXPECT_GT(tally.ok, 0);
    EXPECT_GT(tally.failed + tally.miscorrected, 0);
}

struct LargeCode {
    int m;
    int t;
};

class BchLargeParam : public ::testing::TestWithParam<LargeCode> {};

TEST_P(BchLargeParam, MultiWordParityAndDecodeMatchReference) {
    // n-k spans several u64 words of the parity register (and 2t exceeds
    // the decoder's on-stack scratch for the largest t).
    const auto [m, t] = GetParam();
    const BchCode code(m, t);
    ASSERT_GT(code.parity_bits(), 128);
    Outcomes tally;
    for (const int errors : {0, 1, 2, t / 2, t - 1, t, t + 1, t + 2, t + 3}) {
        expect_matches_reference(code, errors, 2, 70 + static_cast<std::uint64_t>(errors),
                                 tally);
    }
    EXPECT_GT(tally.ok, 0);
    EXPECT_GT(tally.failed + tally.miscorrected, 0);
}

INSTANTIATE_TEST_SUITE_P(LargeT, BchLargeParam,
                         ::testing::Values(LargeCode{12, 20}, LargeCode{12, 70},
                                           LargeCode{13, 40}, LargeCode{14, 50}));

TEST(BchParityWords, OneWordRegisterMatchesReferenceForEveryCodeUpToM10) {
    // parity_bits() <= 64 keeps the whole remainder in one register; more
    // spans several words (BchLargeParam checks that path against the same
    // reference). Every (m, t) with m = 3..10 whose parity fits one word:
    // edge messages and random ones, one of each alignment of k modulo 8.
    Xoshiro256pp rng(97);
    int codes = 0;
    for (int m = 3; m <= 10; ++m) {
        for (int t = 1;; ++t) {
            std::optional<BchCode> built;
            try {
                built.emplace(m, t);
            } catch (const std::invalid_argument&) {
                break; // no message bits left
            }
            const BchCode& code = *built;
            if (code.parity_bits() > 64) break;
            ++codes;
            const auto k = static_cast<std::size_t>(code.k());
            std::vector<bits::BitVec> messages{bits::BitVec(k, 0), bits::BitVec(k, 1)};
            for (std::size_t i = 0; i < k; i += std::max<std::size_t>(1, k / 7)) {
                messages.emplace_back(k, 0).at(i) = 1;
            }
            for (int r = 0; r < 24; ++r) messages.push_back(bits::random_bits(k, rng));
            std::vector<std::uint64_t> msg(bits::word_count(k));
            std::vector<std::uint64_t> par(1);
            for (const auto& message : messages) {
                bits::pack_words(message, msg);
                code.parity_words(msg, par);
                ASSERT_EQ(bits::unpack_words(par, static_cast<std::size_t>(code.parity_bits())),
                          reference_parity(code, message))
                    << "m=" << m << " t=" << t << " message " << bits::to_string(message);
            }
        }
    }
    EXPECT_GE(codes, 30);
}

// ---------------------------------------------------------------------------
// BlockEcc on packed words against the byte-per-bit block manager it
// replaced, running on the reference parity and decoder above.

BlockEccHelper reference_block_enroll(const BlockEcc& layout, const bits::BitVec& reference) {
    const BchCode& code = layout.code();
    const int total = static_cast<int>(reference.size());
    const int k = code.k();
    BlockEccHelper helper;
    helper.response_bits = total;
    bits::BitVec message(static_cast<std::size_t>(k));
    for (int b = 0; b < layout.block_count(total); ++b) {
        const int len = layout.block_data_bits(total, b);
        const auto data = reference.begin() + static_cast<std::ptrdiff_t>(b) * k;
        std::fill_n(message.begin(), k - len, std::uint8_t{0});
        std::copy_n(data, len, message.begin() + (k - len));
        const auto parity = reference_parity(code, message);
        helper.parity.insert(helper.parity.end(), parity.begin(), parity.end());
    }
    return helper;
}

struct BlockTally {
    int ok = 0;
    int failed = 0;
    int virtual_miscorrections = 0; ///< decoder ok, but it set a shortened zero
};

ropuf::ecc_test::BitsResult reference_block_reconstruct(const BlockEcc& layout,
                                                        const bits::BitVec& noisy,
                                                        const BlockEccHelper& helper,
                                                        BlockTally& tally) {
    const BchCode& code = layout.code();
    const int total = helper.response_bits;
    const int k = code.k();
    const int p = code.parity_bits();
    ropuf::ecc_test::BitsResult out;
    out.ok = true;
    bits::BitVec word(static_cast<std::size_t>(code.n()));
    for (int b = 0; b < layout.block_count(total); ++b) {
        const int len = layout.block_data_bits(total, b);
        const auto data = noisy.begin() + static_cast<std::ptrdiff_t>(b) * k;
        std::fill_n(word.begin(), k - len, std::uint8_t{0});
        std::copy_n(data, len, word.begin() + (k - len));
        std::copy_n(helper.parity.begin() + static_cast<std::ptrdiff_t>(b) * p, p,
                    word.begin() + k);
        for (auto& bit : word) bit = bit != 0 ? 1 : 0; // the decoder reads nonzero as 1
        const auto result = reference_decode(code, word);
        const auto first = result.codeword.begin();
        const bool virtual_set =
            std::any_of(first, first + (k - len), [](std::uint8_t v) { return v != 0; });
        if (result.ok && virtual_set) ++tally.virtual_miscorrections;
        if (!result.ok || virtual_set) {
            out.ok = false;
            ++out.failed_blocks;
            ++tally.failed;
            out.value.insert(out.value.end(), data, data + len);
            continue;
        }
        ++tally.ok;
        out.corrected += result.corrected;
        out.value.insert(out.value.end(), first + (k - len), first + k);
    }
    return out;
}

/// Response lengths: one bit, a short single block, exact multiples of k
/// and shortened final blocks of several lengths.
std::vector<int> response_lengths(int k, int max_blocks) {
    std::vector<int> out{1, std::max(1, k / 3), k};
    for (int blocks = 2; blocks <= max_blocks; ++blocks) {
        out.push_back((blocks - 1) * k + 1);
        out.push_back((blocks - 1) * k + k / 2);
        out.push_back(blocks * k);
    }
    return out;
}

/// Enrolls random responses, then reconstructs under 0..t+3 errors per
/// block — spread over data and stored parity — and under forged parity;
/// the word path must equal the reference helper and Result field for field.
void expect_block_ecc_matches_reference(const BchCode& code, int max_blocks, int rounds,
                                        std::uint64_t seed, BlockTally& tally) {
    const BlockEcc layout(code);
    Xoshiro256pp rng(seed);
    const int t = code.t();
    const int p = code.parity_bits();
    for (const int total : response_lengths(code.k(), max_blocks)) {
        for (int round = 0; round < rounds; ++round) {
            const auto reference = bits::random_bits(static_cast<std::size_t>(total), rng);
            const auto helper = layout.enroll(reference);
            ASSERT_EQ(helper.response_bits, total);
            ASSERT_EQ(helper.parity, reference_block_enroll(layout, reference).parity)
                << "enroll, " << total << " bits";
            auto noisy = reference;
            auto forged = helper;
            for (int b = 0; b < layout.block_count(total); ++b) {
                const int len = layout.block_data_bits(total, b);
                const int errors = std::min(static_cast<int>(rng.uniform_u64(0, t + 3)), len + p);
                // Distinct positions over [data | parity] of this block.
                bits::BitVec block_err(static_cast<std::size_t>(len + p), 0);
                bits::flip_random(block_err, errors, rng);
                for (int i = 0; i < len + p; ++i) {
                    if (!block_err[static_cast<std::size_t>(i)]) continue;
                    if (i < len) {
                        bits::flip(noisy, static_cast<std::size_t>(b * code.k() + i));
                    } else {
                        bits::flip(forged.parity, static_cast<std::size_t>(b * p + i - len));
                    }
                }
            }
            if (round % 4 == 3) forged.parity = bits::random_bits(forged.parity.size(), rng);
            if (round % 8 == 5) forged.parity[0] = 2; // a non-binary element reads as 1
            const auto got = ropuf::ecc_test::reconstruct_bits(layout, noisy, forged);
            const auto want = reference_block_reconstruct(layout, noisy, forged, tally);
            ASSERT_EQ(got.ok, want.ok) << total << " bits, round " << round;
            ASSERT_EQ(got.value, want.value) << total << " bits, round " << round;
            ASSERT_EQ(got.corrected, want.corrected) << total << " bits, round " << round;
            ASSERT_EQ(got.failed_blocks, want.failed_blocks) << total << " bits, round " << round;
        }
    }
}

TEST_P(BchParam, BlockEccMatchesByteReference) {
    const auto [m, t, expected_k] = GetParam();
    const BchCode code(m, t);
    BlockTally tally;
    expect_block_ecc_matches_reference(code, 3, 24, 90 + static_cast<std::uint64_t>(m * 16 + t),
                                       tally);
    EXPECT_GT(tally.ok, 0);
    EXPECT_GT(tally.failed, 0);
}

TEST_P(BchLargeParam, BlockEccMatchesByteReference) {
    const auto [m, t] = GetParam();
    const BchCode code(m, t);
    BlockTally tally;
    expect_block_ecc_matches_reference(code, 2, 4, 110 + static_cast<std::uint64_t>(m), tally);
    EXPECT_GT(tally.ok, 0);
    EXPECT_GT(tally.failed, 0);
}

TEST(BlockEccWords, ShortParityAndVirtualZeroMiscorrection) {
    // BCH(7,4,1) has 3 parity bits (fewer than a byte). Two errors in a
    // 1-bit shortened block often "correct" a virtual zero, which BlockEcc
    // must report as a failed block.
    const BchCode code(3, 1);
    BlockTally tally;
    expect_block_ecc_matches_reference(code, 4, 200, 120, tally);
    EXPECT_GT(tally.ok, 0);
    EXPECT_GT(tally.virtual_miscorrections, 0);
}

TEST(Repetition, EncodeDecodeMajority) {
    const RepetitionCode rep(5);
    EXPECT_EQ(rep.t(), 2);
    const auto cw = rep.encode_bit(1);
    EXPECT_EQ(bits::weight(cw), 5);
    auto noisy = cw;
    noisy[0] = 0;
    noisy[3] = 0;
    EXPECT_EQ(rep.decode_bit(noisy), 1);
    noisy[4] = 0;
    EXPECT_EQ(rep.decode_bit(noisy), 0); // 3 of 5 flipped: majority lost
}

TEST(Repetition, PropertyRoundTripWithinTErrorsPerBlock) {
    // encode∘decode = id as long as no block of n repetitions carries more
    // than t = (n-1)/2 flips. Errors are drawn per block so every generated
    // case sits inside the guarantee.
    for (const int n : {3, 5, 7}) {
        const RepetitionCode rep(n);
        const auto result = pt::check<pt::CodewordCase>(
            "repetition(" + std::to_string(n) + ") round trip", 47, 60,
            [&](pt::Rng& rng) {
                pt::CodewordCase cw;
                const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
                cw.message = bits::random_bits(k, rng);
                // Up to t distinct flips inside each block of n copies.
                for (std::size_t block = 0; block < k; ++block) {
                    const int flips = rng.uniform_int(0, rep.t());
                    std::vector<std::size_t> positions;
                    while (static_cast<int>(positions.size()) < flips) {
                        const auto pos = block * static_cast<std::size_t>(n) +
                                         static_cast<std::size_t>(
                                             rng.uniform_int(0, n - 1));
                        if (std::find(positions.begin(), positions.end(), pos) ==
                            positions.end()) {
                            positions.push_back(pos);
                        }
                    }
                    cw.errors.insert(cw.errors.end(), positions.begin(), positions.end());
                }
                return cw;
            },
            pt::shrink_codeword_case,
            [&](const pt::CodewordCase& cw) -> std::string {
                auto received = rep.encode(cw.message);
                for (const std::size_t pos : cw.errors) bits::flip(received, pos);
                if (rep.decode(received) != cw.message) {
                    return "majority decode lost the message";
                }
                return "";
            },
            pt::show_codeword_case);
        EXPECT_FALSE(result.failed) << result.summary();
    }
}

TEST(Repetition, RejectsEvenLength) {
    EXPECT_THROW(RepetitionCode(4), std::invalid_argument);
    EXPECT_THROW(RepetitionCode(0), std::invalid_argument);
}

} // namespace

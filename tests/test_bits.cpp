// Unit tests for the bit-vector utilities.
#include <gtest/gtest.h>

#include <algorithm>

#include "ropuf/bits/bitvec.hpp"

namespace {

using namespace ropuf::bits;
using ropuf::rng::Xoshiro256pp;

TEST(BitVec, XorBasics) {
    const auto a = from_string("1100");
    const auto b = from_string("1010");
    EXPECT_EQ(to_string(xor_bits(a, b)), "0110");
    auto c = a;
    xor_into(c, b);
    EXPECT_EQ(to_string(c), "0110");
}

TEST(BitVec, WeightAndHamming) {
    EXPECT_EQ(weight(from_string("101101")), 4);
    EXPECT_EQ(weight(zeros(8)), 0);
    EXPECT_EQ(weight(ones(8)), 8);
    EXPECT_EQ(hamming(from_string("1010"), from_string("0110")), 2);
    EXPECT_EQ(hamming(from_string("1111"), from_string("1111")), 0);
}

TEST(BitVec, FlipSingle) {
    auto v = zeros(5);
    flip(v, 2);
    EXPECT_EQ(to_string(v), "00100");
    flip(v, 2);
    EXPECT_EQ(to_string(v), "00000");
}

TEST(BitVec, FlipRandomFlipsExactlyCountDistinctPositions) {
    Xoshiro256pp rng(11);
    for (int count : {0, 1, 5, 32}) {
        auto v = zeros(32);
        const auto positions = flip_random(v, count, rng);
        EXPECT_EQ(static_cast<int>(positions.size()), count);
        EXPECT_EQ(weight(v), count);
    }
}

TEST(BitVec, RandomBitsRoughlyBalanced) {
    Xoshiro256pp rng(12);
    const auto v = random_bits(20000, rng);
    EXPECT_NEAR(bias(v), 0.5, 0.02);
}

TEST(BitVec, ComplementInverts) {
    const auto v = from_string("10110");
    EXPECT_EQ(to_string(complement(v)), "01001");
    EXPECT_EQ(complement(complement(v)), v);
}

TEST(BitVec, ConcatAndSlice) {
    const auto v = concat(from_string("101"), from_string("0011"));
    EXPECT_EQ(to_string(v), "1010011");
    EXPECT_EQ(to_string(slice(v, 2, 3)), "100");
    EXPECT_EQ(to_string(slice(v, 0, 0)), "");
}

TEST(BitVec, PackUnpackRoundTrip) {
    Xoshiro256pp rng(13);
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 100u}) {
        const auto v = random_bits(n, rng);
        const auto bytes = pack_bytes(v);
        EXPECT_EQ(bytes.size(), (n + 7) / 8);
        EXPECT_EQ(unpack_bytes(bytes, n), v);
    }
}

TEST(BitVec, PackIsMsbFirst) {
    const auto v = from_string("10000001");
    const auto bytes = pack_bytes(v);
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0x81u);
}

TEST(BitVec, StringRoundTripAndValidation) {
    const auto v = from_string("0110101");
    EXPECT_EQ(to_string(v), "0110101");
    EXPECT_THROW(from_string("01x0"), std::invalid_argument);
}

TEST(BitVec, U64RoundTrip) {
    EXPECT_EQ(to_u64(from_string("101")), 5u);
    EXPECT_EQ(to_string(from_u64(5, 3)), "101");
    EXPECT_EQ(to_string(from_u64(5, 6)), "000101");
    for (std::uint64_t x : {0ULL, 1ULL, 255ULL, 1ULL << 40, 0xdeadbeefULL}) {
        EXPECT_EQ(to_u64(from_u64(x, 64)), x);
    }
}

TEST(BitVec, BiasEdgeCases) {
    EXPECT_EQ(bias({}), 0.0);
    EXPECT_EQ(bias(ones(10)), 1.0);
    EXPECT_EQ(bias(zeros(10)), 0.0);
}

TEST(PackedWords, LayoutMatchesPackBytes) {
    // Word w holds bytes 8w..8w+7 of pack_bytes, most significant first.
    Xoshiro256pp rng(31);
    for (const std::size_t n : {1u, 7u, 63u, 64u, 65u, 130u, 200u}) {
        const auto v = random_bits(n, rng);
        std::vector<std::uint64_t> words(word_count(n) + 1, ~std::uint64_t{0});
        pack_words(v, words);
        EXPECT_EQ(words.back(), 0u) << n; // the spare word is zeroed
        const auto bytes = pack_bytes(v);
        for (std::size_t b = 0; b < bytes.size(); ++b) {
            EXPECT_EQ((words[b / 8] >> (56 - 8 * (b % 8))) & 0xffu, bytes[b]) << n;
        }
        EXPECT_EQ(unpack_words(words, n), v);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(test_bit(words, i), v[i] != 0);
    }
    BitVec nonbinary{0, 2, 1, 255};
    std::vector<std::uint64_t> w(1);
    pack_words(nonbinary, w);
    EXPECT_EQ(to_string(unpack_words(w, 4)), "0111");
}

TEST(PackedWords, CopyBitsMatchesElementCopy) {
    Xoshiro256pp rng(32);
    for (int trial = 0; trial < 500; ++trial) {
        const auto src = random_bits(1 + rng.uniform_u64(0, 300), rng);
        auto dst = random_bits(1 + rng.uniform_u64(0, 300), rng);
        const std::size_t from = rng.uniform_u64(0, src.size() - 1);
        const std::size_t to = rng.uniform_u64(0, dst.size() - 1);
        const std::size_t len =
            rng.uniform_u64(0, std::min(src.size() - from, dst.size() - to));
        std::vector<std::uint64_t> s(word_count(src.size()));
        std::vector<std::uint64_t> d(word_count(dst.size()));
        pack_words(src, s);
        pack_words(dst, d);
        copy_bits(s, from, d, to, len);
        std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(from), len,
                    dst.begin() + static_cast<std::ptrdiff_t>(to));
        ASSERT_EQ(unpack_words(d, dst.size()), dst) << "trial " << trial;
        // Bits past the end stay zero.
        for (std::size_t i = dst.size(); i < d.size() * 64; ++i) ASSERT_FALSE(test_bit(d, i));
    }
}

} // namespace

// Helper-data NVM layer tests: blob serialization, storage formats
// (Section VII-C) and the sanity-check / authentication countermeasures.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/formats.hpp"
#include "ropuf/helperdata/sanity.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::helperdata;
using ropuf::rng::Xoshiro256pp;

TEST(Blob, PrimitiveRoundTrip) {
    BlobWriter w;
    w.put_u8(0xab);
    w.put_u16(0x1234);
    w.put_u32(0xdeadbeef);
    w.put_u64(0x0123456789abcdefULL);
    w.put_f64(-1.5e-3);
    BlobReader r(w.bytes());
    EXPECT_EQ(r.get_u8(), 0xab);
    EXPECT_EQ(r.get_u16(), 0x1234);
    EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
    EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
    EXPECT_DOUBLE_EQ(r.get_f64(), -1.5e-3);
    EXPECT_TRUE(r.exhausted());
}

TEST(Blob, BitVectorRoundTrip) {
    Xoshiro256pp rng(231);
    for (std::size_t n : {0u, 1u, 7u, 8u, 13u, 64u, 100u}) {
        BlobWriter w;
        const auto v = bits::random_bits(n, rng);
        w.put_bits(v);
        BlobReader r(w.bytes());
        EXPECT_EQ(r.get_bits(), v);
    }
}

TEST(Blob, TruncationThrowsParseError) {
    BlobWriter w;
    w.put_u64(42);
    const auto& full = w.bytes();
    for (std::size_t cut = 0; cut < 8; ++cut) {
        BlobReader r(std::span<const std::uint8_t>(full.data(), cut));
        EXPECT_THROW(r.get_u64(), ParseError);
    }
}

TEST(Nvm, BitFlipTargetsExactBit) {
    Nvm nvm({0x00, 0xff});
    nvm.flip_bit(0, 3);
    EXPECT_EQ(nvm.bytes()[0], 0x08);
    nvm.flip_bit(1, 0);
    EXPECT_EQ(nvm.bytes()[1], 0xfe);
    EXPECT_THROW(nvm.flip_bit(2, 0), std::out_of_range);
    EXPECT_THROW(nvm.flip_bit(0, 8), std::out_of_range);
}

TEST(Formats, SortedPolicyLeaksComparisons) {
    // Section VII-C: sorted storage orients every pair (faster, slower).
    const std::vector<IndexPair> pairs{{0, 1}, {2, 3}};
    const std::vector<double> freqs{1.0, 2.0, 9.0, 3.0};
    Xoshiro256pp rng(232);
    BlobWriter w;
    write_pair_list(w, pairs, freqs, PairOrderPolicy::SortedByFrequency, rng);
    BlobReader r(w.bytes());
    const auto read_back = read_pair_list(r);
    ASSERT_EQ(read_back.size(), 2u);
    EXPECT_EQ(read_back[0], (IndexPair{1, 0})); // 2.0 > 1.0
    EXPECT_EQ(read_back[1], (IndexPair{2, 3})); // 9.0 > 3.0
}

TEST(Formats, RandomizedPolicyIsUnbiased) {
    const std::vector<IndexPair> pairs{{0, 1}};
    const std::vector<double> freqs{1.0, 2.0};
    Xoshiro256pp rng(233);
    int kept = 0;
    constexpr int kTrials = 2000;
    for (int trial = 0; trial < kTrials; ++trial) {
        BlobWriter w;
        write_pair_list(w, pairs, freqs, PairOrderPolicy::Randomized, rng);
        BlobReader r(w.bytes());
        kept += read_pair_list(r)[0] == IndexPair{0, 1};
    }
    EXPECT_NEAR(static_cast<double>(kept) / kTrials, 0.5, 0.05);
}

TEST(Formats, CoefficientsAndGroupsRoundTrip) {
    BlobWriter w;
    const std::vector<double> beta{1.0, -2.5, 3.25e8};
    const std::vector<int> groups{1, 2, 1, 3};
    write_coefficients(w, beta);
    write_group_assignment(w, groups);
    BlobReader r(w.bytes());
    EXPECT_EQ(read_coefficients(r), beta);
    EXPECT_EQ(read_group_assignment(r), groups);
}

TEST(Sanity, PairListChecks) {
    EXPECT_TRUE(check_pair_list({{0, 1}, {2, 3}}, 4, true).ok);
    EXPECT_FALSE(check_pair_list({{0, 4}}, 4, false).ok);      // out of range
    EXPECT_FALSE(check_pair_list({{-1, 0}}, 4, false).ok);     // negative
    EXPECT_FALSE(check_pair_list({{2, 2}}, 4, false).ok);      // self-pair
    EXPECT_FALSE(check_pair_list({{0, 1}, {1, 2}}, 4, true).ok); // reuse
    EXPECT_TRUE(check_pair_list({{0, 1}, {1, 2}}, 4, false).ok); // reuse allowed
}

TEST(Sanity, ReportCollectsAllViolations) {
    const auto report = check_pair_list({{0, 9}, {1, 1}}, 4, true);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.violations.size(), 2u);
}

TEST(Sanity, GroupAssignmentChecks) {
    EXPECT_TRUE(check_group_assignment({1, 2, 1}, 3).ok);
    EXPECT_FALSE(check_group_assignment({1, 2}, 3).ok);       // wrong length
    EXPECT_FALSE(check_group_assignment({0, 1, 1}, 3).ok);    // id below 1
    EXPECT_FALSE(check_group_assignment({1, 3, 1}, 3).ok);    // gap at 2
}

TEST(Sanity, CoefficientPlausibilityBound) {
    EXPECT_TRUE(check_coefficients({0.1, -0.2, 0.05}, 10.0).ok);
    EXPECT_FALSE(check_coefficients({1000.0}, 10.0).ok); // the attack surface!
    EXPECT_FALSE(check_coefficients({std::nan("")}, 10.0).ok);
    EXPECT_FALSE(check_coefficients({1e308 * 10}, 10.0).ok); // inf
}

TEST(Sanity, ExplainModePinsOneViolationTextPerCheck) {
    using Lines = std::vector<std::string>;
    EXPECT_EQ(check_pair_list({{0, 9}}, 4, true).violations,
              (Lines{"pair 0: RO index out of range"}));
    EXPECT_EQ(check_pair_list({{0, 1}, {2, 2}}, 4, true).violations,
              (Lines{"pair 1: self-pair"}));
    EXPECT_EQ(check_pair_list({{0, 1}, {1, 2}}, 4, true).violations,
              (Lines{"pair 1: RO re-used across pairs"}));
    EXPECT_EQ(check_group_assignment({1, 2}, 3).violations,
              (Lines{"group assignment length != RO count"}));
    EXPECT_EQ(check_group_assignment({1, 0, 1}, 3).violations,
              (Lines{"RO 1: group id below 1"}));
    EXPECT_EQ(check_group_assignment({1, 3, 1}, 3).violations,
              (Lines{"group ids not dense: group 2 empty"}));
    EXPECT_EQ(check_coefficients({0.0, std::nan("")}, 10.0).violations,
              (Lines{"coefficient 1: not finite"}));
    EXPECT_EQ(check_coefficients({0.0, -500000.0}, 2500.0).violations,
              (Lines{"coefficient 1: magnitude 500000.000000 exceeds bound 2500.000000"}));
}

TEST(Sanity, ForgedGroupIdIsOneViolationAndSizesNothing) {
    // An id no assignment of 3 ROs can make dense: one line, not one
    // "group g empty" line per missing id (and no table of 2^31 slots).
    const auto report = check_group_assignment({1, 0x7fffffff, 1}, 3);
    EXPECT_EQ(report.violations,
              (std::vector<std::string>{"RO 1: group id 2147483647 exceeds RO count 3"}));
    EXPECT_FALSE(check_group_assignment({1, 4, 1}, 3, SanityMode::Verdict).ok);
    EXPECT_TRUE(check_group_assignment({1, 3, 2}, 3, SanityMode::Verdict).ok);
}

TEST(Sanity, VerdictModeAgreesWithExplainModeAndFormatsNothing) {
    Xoshiro256pp rng(4242);
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng.next() % static_cast<std::uint64_t>(hi - lo + 1));
    };
    for (int trial = 0; trial < 2000; ++trial) {
        const int ro_count = pick(1, 300);
        std::vector<IndexPair> pairs(static_cast<std::size_t>(pick(0, 40)));
        for (auto& [a, b] : pairs) {
            a = pick(-2, ro_count + 1);
            b = pick(-2, ro_count + 1);
        }
        std::vector<int> group_of(static_cast<std::size_t>(pick(ro_count - 1, ro_count)));
        for (auto& g : group_of) g = trial % 7 == 0 ? 0x7fffffff : pick(0, ro_count / 3 + 2);
        std::vector<double> beta(static_cast<std::size_t>(pick(0, 10)));
        for (auto& b : beta) b = static_cast<double>(pick(-3000, 3000));
        if (!beta.empty() && trial % 5 == 0) beta[0] = std::nan("");

        const auto agree = [](const SanityReport& explained, const SanityReport& verdict) {
            EXPECT_EQ(verdict.ok, explained.ok);
            EXPECT_EQ(explained.ok, explained.violations.empty());
            EXPECT_TRUE(verdict.violations.empty());
        };
        for (const bool reuse : {false, true}) {
            agree(check_pair_list(pairs, ro_count, reuse),
                  check_pair_list(pairs, ro_count, reuse, SanityMode::Verdict));
        }
        agree(check_group_assignment(group_of, ro_count),
              check_group_assignment(group_of, ro_count, SanityMode::Verdict));
        agree(check_coefficients(beta, 2500.0),
              check_coefficients(beta, 2500.0, SanityMode::Verdict));
    }
}

TEST(Sanity, MessageProducersRunOnlyWhenExplaining) {
    int formatted = 0;
    const auto message = [&] {
        ++formatted;
        return std::string("bad");
    };
    SanityReport verdict(SanityMode::Verdict);
    EXPECT_TRUE(verdict.fail(message)); // settled: the check may stop here
    EXPECT_TRUE(verdict.settled());
    EXPECT_EQ(formatted, 0);
    SanityReport explained;
    EXPECT_FALSE(explained.fail(message)); // keep going: list every violation
    EXPECT_FALSE(explained.fail("literal"));
    EXPECT_EQ(formatted, 1);
    EXPECT_EQ(explained.violations, (std::vector<std::string>{"bad", "literal"}));
    EXPECT_FALSE(explained.settled());
}

TEST(Authenticator, SealOpenRoundTrip) {
    const std::vector<std::uint8_t> key{1, 2, 3, 4};
    const HelperAuthenticator auth(key);
    const std::vector<std::uint8_t> blob{10, 20, 30};
    const auto sealed = auth.seal(blob);
    EXPECT_EQ(sealed.size(), blob.size() + 32);
    const auto opened = auth.open(sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, blob);
}

TEST(Authenticator, DetectsAnySingleBitManipulation) {
    const std::vector<std::uint8_t> key{9, 9, 9};
    const HelperAuthenticator auth(key);
    const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
    const auto sealed = auth.seal(blob);
    for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
        auto tampered = sealed;
        tampered[byte] ^= 0x40;
        EXPECT_FALSE(auth.open(tampered).has_value()) << "byte " << byte;
    }
}

TEST(Authenticator, WrongKeyRejects) {
    const HelperAuthenticator a(std::vector<std::uint8_t>{1});
    const HelperAuthenticator b(std::vector<std::uint8_t>{2});
    const std::vector<std::uint8_t> blob{7, 7};
    EXPECT_FALSE(b.open(a.seal(blob)).has_value());
}

TEST(Authenticator, TooShortInputRejected) {
    const HelperAuthenticator auth(std::vector<std::uint8_t>{1});
    EXPECT_FALSE(auth.open(std::vector<std::uint8_t>(16, 0)).has_value());
}

} // namespace

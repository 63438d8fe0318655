// Group-based RO PUF pipeline tests (paper Fig. 4).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "block_ecc_bits.hpp"
#include "ropuf/distiller/regression.hpp"
#include "ropuf/group/group_puf.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::group;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

GroupPufConfig test_config() {
    GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    cfg.enroll_samples = 32;
    return cfg;
}

ProcessParams quiet_params() {
    ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

class GroupPufSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupPufSeeds, EnrollThenReconstruct) {
    const RoArray arr({16, 8}, quiet_params(), GetParam());
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(GetParam() ^ 0x777);
    const auto enrollment = puf.enroll(rng);
    ASSERT_GT(enrollment.key.size(), 20u);
    int ok = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto rec = puf.reconstruct(enrollment.helper, rng);
        ok += rec.ok && rec.key == enrollment.key;
    }
    EXPECT_GE(ok, 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupPufSeeds, ::testing::Values(201u, 202u, 203u, 204u));

TEST(GroupPuf, KeyLengthMatchesGroupStructure) {
    const RoArray arr({16, 8}, quiet_params(), 211);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(212);
    const auto enrollment = puf.enroll(rng);
    int expected_key = 0;
    int expected_kendall = 0;
    for (const auto& m : enrollment.grouping.members) {
        expected_key += compact_bits(static_cast<int>(m.size()));
        expected_kendall += kendall_bits(static_cast<int>(m.size()));
    }
    EXPECT_EQ(static_cast<int>(enrollment.key.size()), expected_key);
    EXPECT_EQ(static_cast<int>(enrollment.kendall_ref.size()), expected_kendall);
    EXPECT_EQ(enrollment.helper.ecc.response_bits, expected_kendall);
}

TEST(GroupPuf, EncodeGroupsConsistentWithHandComputation) {
    // Two groups: {2, 0} (labels 0->0, 1->2) and {1} (singleton).
    // Residuals: r0 = 5, r1 = 99, r2 = 7 -> group 1 order: label1 (RO 2,
    // value 7) before label0 (RO 0, value 5) -> Kendall bit 1, compact bit 1.
    const std::vector<std::vector<int>> members{{0, 2}, {1}};
    const std::vector<double> residuals{5.0, 99.0, 7.0};
    const auto coded = GroupBasedPuf::encode_groups(members, residuals);
    EXPECT_EQ(bits::to_string(coded.kendall), "1");
    EXPECT_EQ(bits::to_string(coded.key), "1");
}

TEST(GroupPuf, ReconstructionFailsOnNonDenseGroups) {
    const RoArray arr({16, 8}, quiet_params(), 213);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(214);
    auto helper = puf.enroll(rng).helper;
    helper.group_of[0] = 1000; // creates a gap
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

TEST(GroupPuf, ReconstructionFailsOnOversizedGroup) {
    GroupPufConfig cfg = test_config();
    cfg.max_group_size = 4;
    const RoArray arr({16, 8}, quiet_params(), 215);
    const GroupBasedPuf puf(arr, cfg);
    Xoshiro256pp rng(216);
    auto helper = puf.enroll(rng).helper;
    // Merge everything into group 1.
    for (auto& g : helper.group_of) g = 1;
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

TEST(GroupPuf, ReconstructionFailsOnBadCoefficientCount) {
    const RoArray arr({16, 8}, quiet_params(), 217);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(218);
    auto helper = puf.enroll(rng).helper;
    helper.beta.push_back(1.0); // 7 coefficients match no degree
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

TEST(GroupPuf, AcceptsHigherDegreeCoefficients) {
    // The naive device infers the degree from the coefficient count — a
    // degree-3 vector (10 coefficients) parses fine. This is what lets the
    // attacker inject arbitrary surfaces.
    const RoArray arr({16, 8}, quiet_params(), 219);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(220);
    auto helper = puf.enroll(rng).helper;
    std::vector<double> beta3(10, 0.0);
    for (std::size_t i = 0; i < helper.beta.size(); ++i) beta3[i] = helper.beta[i];
    helper.beta = beta3;
    const auto rec = puf.reconstruct(helper, rng);
    EXPECT_TRUE(rec.ok); // same surface, padded with zero cubic terms
}

TEST(GroupPuf, SteepInjectionOverridesGrouping) {
    // Fig. 6a precondition: a steep injected surface fully determines the
    // regenerated orders. With an attacker-consistent partition + parity, the
    // device reconstructs the attacker's key.
    const ArrayGeometry g{10, 4};
    const RoArray arr(g, quiet_params(), 221);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(222);
    const auto enrollment = puf.enroll(rng);

    // Attacker surface: steep vertical plane; pair ROs vertically.
    GroupPufHelper attack = enrollment.helper;
    attack.beta[2] -= 1000.0; // subtracting -1000y adds +1000y to residuals
    attack.group_of.assign(static_cast<std::size_t>(g.count()), 0);
    bits::BitVec expected_kendall;
    int gid = 1;
    for (int x = 0; x < g.cols; ++x) {
        for (int y = 0; y + 1 < g.rows; y += 2) {
            attack.group_of[static_cast<std::size_t>(g.index(x, y))] = gid;
            attack.group_of[static_cast<std::size_t>(g.index(x, y + 1))] = gid;
            // Higher y gets +1000y: the higher-indexed RO is larger -> bit 1.
            expected_kendall.push_back(1);
            ++gid;
        }
    }
    attack.ecc = ropuf::ecc::BlockEcc(puf.code()).enroll(expected_kendall);
    const auto rec = puf.reconstruct(attack, rng);
    ASSERT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, expected_kendall); // 2-RO groups: key bit = kendall bit
}

TEST(GroupPuf, SerializationRoundTrip) {
    const RoArray arr({16, 8}, quiet_params(), 223);
    const GroupBasedPuf puf(arr, test_config());
    Xoshiro256pp rng(224);
    const auto enrollment = puf.enroll(rng);
    const auto parsed = parse_group_puf(serialize(enrollment.helper));
    EXPECT_EQ(parsed.beta, enrollment.helper.beta);
    EXPECT_EQ(parsed.group_of, enrollment.helper.group_of);
    EXPECT_EQ(parsed.ecc.parity, enrollment.helper.ecc.parity);
    const auto rec = puf.reconstruct(parsed, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

TEST(GroupPuf, HigherDistillerDegreeAlsoWorks) {
    GroupPufConfig cfg = test_config();
    cfg.distiller_degree = 3; // DAC'13's other recommended value
    const RoArray arr({16, 8}, quiet_params(), 225);
    const GroupBasedPuf puf(arr, cfg);
    Xoshiro256pp rng(226);
    const auto enrollment = puf.enroll(rng);
    const auto rec = puf.reconstruct(enrollment.helper, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

/// Regroups a helper into one group of the first `size` ROs plus singletons,
/// with the all-zero Kendall reference as parity (singletons carry no bits).
void one_big_group(GroupPufHelper& helper, int size, const ropuf::ecc::BchCode& code) {
    for (std::size_t i = 0; i < helper.group_of.size(); ++i) {
        const int ro = static_cast<int>(i);
        helper.group_of[i] = ro < size ? 1 : ro - size + 2;
    }
    helper.ecc = ropuf::ecc::BlockEcc(code).enroll(
        bits::zeros(static_cast<std::size_t>(kendall_bits(size))));
}

TEST(GroupPuf, MaxGroupSizeMustFitTheCompactCode) {
    // 21! overflows the 64-bit order rank: such a group would make
    // compact_bits throw out of enrollment or out of a forged probe.
    const RoArray arr({10, 4}, quiet_params(), 227);
    for (const int bad : {-1, 0, 21, 64}) {
        GroupPufConfig cfg = test_config();
        cfg.max_group_size = bad;
        EXPECT_THROW(GroupBasedPuf(arr, cfg), std::invalid_argument) << bad;
    }
    GroupPufConfig cfg = test_config();
    cfg.max_group_size = 20;
    const GroupBasedPuf puf(arr, cfg);
    Xoshiro256pp rng(228);
    auto helper = puf.enroll(rng).helper;
    // A forged 20-RO group regenerates without throwing; a 21-RO group is refused.
    one_big_group(helper, 20, puf.code());
    EXPECT_TRUE(puf.helper_consistent(helper));
    EXPECT_NO_THROW(puf.reconstruct(helper, rng));
    one_big_group(helper, 21, puf.code());
    EXPECT_FALSE(puf.helper_consistent(helper));
    EXPECT_FALSE(puf.reconstruct(helper, rng).ok);
}

// ---------------------------------------------------------------------------
// Flat regeneration against the per-group-vector reference: the device as
// it was built before the flat partition — members_from_assignment,
// encode_groups, BlockEcc over BitVecs, kendall_decode_exact and
// compact_encode.

enum class Outcome { Inconsistent, EccFailed, NotAnOrder, Ok };

struct Regen {
    Outcome outcome = Outcome::Inconsistent;
    ropuf::core::ReconstructResult rec;
};

Regen reference_regen(const GroupBasedPuf& puf, const GroupPufHelper& helper,
                      std::span<const double> freqs) {
    Regen out;
    if (static_cast<int>(helper.group_of.size()) != puf.array().count()) return out;
    std::vector<std::vector<int>> members;
    try {
        members = members_from_assignment(helper.group_of);
    } catch (const std::invalid_argument&) {
        return out;
    }
    for (const auto& m : members) {
        if (static_cast<int>(m.size()) > puf.config().max_group_size) return out;
    }
    int total = 0;
    for (const auto& m : members) total += kendall_bits(static_cast<int>(m.size()));
    const ropuf::ecc::BlockEcc block_ecc(puf.code());
    if (helper.ecc.response_bits != total) return out;
    if (static_cast<int>(helper.ecc.parity.size()) != block_ecc.helper_bits(total)) return out;
    int degree = -1;
    for (int d = 0; d <= 16 && degree < 0; ++d) {
        if (ropuf::distiller::coefficient_count(d) == static_cast<int>(helper.beta.size())) {
            degree = d;
        }
    }
    if (degree < 0) return out;
    out.outcome = Outcome::EccFailed;
    const ropuf::distiller::PolySurface surface(degree, helper.beta);
    const auto resid = ropuf::distiller::residuals(puf.array().geometry(), freqs, surface);
    const auto noisy = GroupBasedPuf::encode_groups(members, resid);
    const auto rec = ropuf::ecc_test::reconstruct_bits(block_ecc, noisy.kendall, helper.ecc);
    if (!rec.ok) return out;
    out.outcome = Outcome::NotAnOrder;
    bits::BitVec key;
    std::size_t cursor = 0;
    for (const auto& group : members) {
        const int g = static_cast<int>(group.size());
        const auto kb = static_cast<std::size_t>(kendall_bits(g));
        const auto order = kendall_decode_exact(bits::slice(rec.value, cursor, kb), g);
        cursor += kb;
        if (!order) return out;
        const auto packed = compact_encode(*order);
        key.insert(key.end(), packed.begin(), packed.end());
    }
    out.outcome = Outcome::Ok;
    out.rec = {true, key, rec.corrected};
    return out;
}

/// Checks the flat device against the reference on one helper and scan;
/// returns the reference outcome.
Outcome expect_same_regen(const GroupBasedPuf& puf, const GroupPufHelper& helper,
                          std::span<const double> freqs, const std::string& what) {
    const auto want = reference_regen(puf, helper, freqs);
    EXPECT_EQ(puf.helper_consistent(helper), want.outcome != Outcome::Inconsistent) << what;
    const auto got = puf.reconstruct_measured(helper, puf.config().condition, freqs);
    EXPECT_EQ(got.ok, want.rec.ok) << what;
    EXPECT_EQ(got.key, want.rec.key) << what;
    EXPECT_EQ(got.corrected, want.rec.corrected) << what;
    return want.outcome;
}

/// Reassigns the helper's ROs to a random partition: groups of 1..max_size
/// with dense ids, members scattered over the array.
void random_partition(GroupPufHelper& helper, int max_size, Xoshiro256pp& rng) {
    const std::size_t n = helper.group_of.size();
    std::vector<std::size_t> ros(n);
    std::iota(ros.begin(), ros.end(), std::size_t{0});
    for (std::size_t i = n - 1; i > 0; --i) std::swap(ros[i], ros[rng.uniform_u64(0, i)]);
    int id = 0;
    for (std::size_t at = 0; at < n;) {
        const std::size_t size =
            std::min(n - at, 1 + rng.uniform_u64(0, static_cast<std::uint64_t>(max_size - 1)));
        ++id;
        for (std::size_t i = at; i < at + size; ++i) helper.group_of[ros[i]] = id;
        at += size;
    }
}

TEST(GroupRegenEquivalence, RandomAndForgedHelpersMatchReference) {
    const RoArray arr({10, 4}, quiet_params(), 229);
    const GroupBasedPuf puf(arr, test_config());
    const ropuf::ecc::BlockEcc block_ecc(puf.code());
    const int n = arr.count();
    Xoshiro256pp rng(230);
    const auto enrollment = puf.enroll(rng);
    const auto scan = [&] { return arr.measure_all(puf.config().condition, rng); };
    int tally[4] = {0, 0, 0, 0};
    const auto check = [&](const GroupPufHelper& h, const std::vector<double>& freqs,
                           const std::string& what) {
        ++tally[static_cast<int>(expect_same_regen(puf, h, freqs, what))];
    };

    // The enrolled helper, and honest regeneration under fresh noise.
    for (int i = 0; i < 20; ++i) check(enrollment.helper, scan(), "enrolled");

    // Random partitions with matching, random or noisy parity.
    for (int i = 0; i < 300; ++i) {
        GroupPufHelper h = enrollment.helper;
        random_partition(h, puf.config().max_group_size, rng);
        const auto freqs = scan();
        const auto resid = ropuf::distiller::residuals(
            arr.geometry(), freqs, ropuf::distiller::PolySurface(2, h.beta));
        const auto kendall =
            GroupBasedPuf::encode_groups(members_from_assignment(h.group_of), resid).kendall;
        h.ecc = block_ecc.enroll(kendall);
        // Parity flips past t drive miscorrection, often into codes that are
        // no total order.
        const int flips = static_cast<int>(rng.uniform_u64(0, 6));
        for (int f = 0; f < flips; ++f) {
            bits::flip(h.ecc.parity, rng.uniform_u64(0, h.ecc.parity.size() - 1));
        }
        check(h, freqs, "random partition, " + std::to_string(flips) + " parity flips");
        h.ecc.parity = bits::random_bits(h.ecc.parity.size(), rng);
        check(h, freqs, "random partition, random parity");
    }

    // Structural forgeries, one field at a time.
    const auto forged = [&](auto&& edit, const std::string& what) {
        GroupPufHelper h = enrollment.helper;
        edit(h);
        check(h, scan(), what);
    };
    forged([](GroupPufHelper& h) { h.group_of[3] = 0; }, "id 0");
    forged([](GroupPufHelper& h) { h.group_of[3] = -7; }, "negative id");
    forged([&](GroupPufHelper& h) { h.group_of[3] = n + 1; }, "id > n");
    forged([&](GroupPufHelper& h) { h.group_of[3] = n; }, "id n leaves gaps");
    forged([](GroupPufHelper& h) {
        const int top = *std::max_element(h.group_of.begin(), h.group_of.end());
        for (auto& id : h.group_of) {
            if (id == 1) id = top + 1; // group 1 emptied: a gap at the front
        }
    }, "gap at id 1");
    forged([](GroupPufHelper& h) { h.group_of.pop_back(); }, "assignment too short");
    forged([](GroupPufHelper& h) { h.group_of.push_back(1); }, "assignment too long");
    forged([&](GroupPufHelper& h) { one_big_group(h, 13, puf.code()); }, "oversized group");
    forged([&](GroupPufHelper& h) { one_big_group(h, 12, puf.code()); }, "group at the size limit");
    forged([](GroupPufHelper& h) { ++h.ecc.response_bits; }, "response_bits + 1");
    forged([](GroupPufHelper& h) { --h.ecc.response_bits; }, "response_bits - 1");
    forged([](GroupPufHelper& h) { h.ecc.parity.push_back(0); }, "parity too long");
    forged([](GroupPufHelper& h) { h.ecc.parity.pop_back(); }, "parity too short");
    forged([](GroupPufHelper& h) { h.ecc.parity[0] = 2; }, "non-binary parity element");
    for (const std::size_t count : {0u, 2u, 4u, 5u, 7u, 11u}) {
        forged([&](GroupPufHelper& h) { h.beta.assign(count, 0.0); },
               std::to_string(count) + " coefficients");
    }
    forged([](GroupPufHelper& h) { h.beta.assign(10, 0.0); h.beta[0] = h.beta[1] = 1.0; },
           "degree-3 coefficients");
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {inf, -inf, nan}) {
        for (std::size_t at : {0u, 2u, 5u}) {
            forged([&](GroupPufHelper& h) { h.beta[at] = bad; },
                   "beta[" + std::to_string(at) + "] = " + std::to_string(bad));
        }
    }

    // Exact residual ties: a zero surface over a scan rounded to whole MHz
    // leaves many equal residuals, ordered by label.
    for (int i = 0; i < 20; ++i) {
        GroupPufHelper h = enrollment.helper;
        random_partition(h, puf.config().max_group_size, rng);
        h.beta.assign(1, 0.0);
        auto freqs = scan();
        for (auto& f : freqs) f = std::round(f / 4.0);
        const auto kendall = GroupBasedPuf::encode_groups(members_from_assignment(h.group_of),
                                                          freqs).kendall;
        h.ecc = block_ecc.enroll(kendall);
        check(h, freqs, "residual ties");
    }

    // Every outcome was reached, including ECC miscorrection into a code
    // that is no total order.
    for (int o = 0; o < 4; ++o) EXPECT_GT(tally[o], 0) << "outcome " << o;
}

TEST(GroupRegenEquivalence, GroupsUpToTwentyMatchReference) {
    GroupPufConfig cfg = test_config();
    cfg.max_group_size = 20;
    const RoArray arr({16, 8}, quiet_params(), 231);
    const GroupBasedPuf puf(arr, cfg);
    const ropuf::ecc::BlockEcc block_ecc(puf.code());
    Xoshiro256pp rng(232);
    const auto enrollment = puf.enroll(rng);
    for (int i = 0; i < 60; ++i) {
        GroupPufHelper h = enrollment.helper;
        random_partition(h, 20, rng);
        const auto freqs = arr.measure_all(cfg.condition, rng);
        const auto resid = ropuf::distiller::residuals(
            arr.geometry(), freqs, ropuf::distiller::PolySurface(2, h.beta));
        h.ecc = block_ecc.enroll(
            GroupBasedPuf::encode_groups(members_from_assignment(h.group_of), resid).kendall);
        for (int f = static_cast<int>(rng.uniform_u64(0, 4)); f > 0; --f) {
            bits::flip(h.ecc.parity, rng.uniform_u64(0, h.ecc.parity.size() - 1));
        }
        expect_same_regen(puf, h, freqs, "groups up to 20, case " + std::to_string(i));
    }
}

} // namespace

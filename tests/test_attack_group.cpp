// Section VI-C attack tests: full key recovery against the group-based PUF.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "ropuf/attack/group_attack.hpp"
#include "ropuf/helperdata/sanity.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::attack;
using namespace ropuf::group;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

GroupPufConfig device_config() {
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

// Drives `session` over the victim's oracle to completion; returns its result.
template <typename AttackSession, typename Puf>
auto run_session(AttackSession&& session, Victim<Puf>& victim) {
    auto oracle = make_oracle(victim);
    run_to_completion(session, oracle);
    return session.result();
}

struct Scenario {
    RoArray array;
    GroupBasedPuf puf;
    GroupBasedPuf::Enrollment enrollment;

    explicit Scenario(std::uint64_t seed, ArrayGeometry g = {10, 4})
        : array(g, quiet_params(), seed), puf(array, device_config()), enrollment{} {
        Xoshiro256pp rng(seed ^ 0x6a6a);
        enrollment = puf.enroll(rng);
    }
};

TEST(GroupAttack, ComparisonInstanceIsWellFormed) {
    Scenario s(501);
    const auto& geom = s.array.geometry();
    const auto instance = GroupBasedAttack::build_comparison(s.enrollment.helper, geom,
                                                             s.puf.code(), 7, 23, 1000.0);
    // Strict dense partition.
    EXPECT_TRUE(
        ropuf::helperdata::check_group_assignment(instance.group_of, geom.count()).ok);
    // Targets share group 1.
    EXPECT_EQ(instance.group_of[7], 1);
    EXPECT_EQ(instance.group_of[23], 1);
    // The injected plane is equal on the two targets.
    EXPECT_NEAR(instance.surface[7], instance.surface[23], 1e-9);
    // The two hypotheses differ exactly in the key's first bit.
    EXPECT_NE(instance.expected_key[0][0], instance.expected_key[1][0]);
    EXPECT_EQ(bits::slice(instance.expected_key[0], 1, instance.expected_key[0].size() - 1),
              bits::slice(instance.expected_key[1], 1, instance.expected_key[1].size() - 1));
}

TEST(GroupAttack, ComparatorMatchesEnrollmentResiduals) {
    Scenario s(502);
    const auto& geom = s.array.geometry();
    GroupBasedAttack::Victim victim(s.puf, 503);
    auto oracle = make_oracle(victim);
    const GroupBasedAttack::Config cfg;

    // Ground truth: noiseless residuals under the enrolled surface.
    std::vector<double> freqs(static_cast<std::size_t>(geom.count()));
    for (int i = 0; i < geom.count(); ++i) freqs[static_cast<std::size_t>(i)] = s.array.true_frequency(i);
    const ropuf::distiller::PolySurface surface(2, s.enrollment.helper.beta);
    const auto resid = ropuf::distiller::residuals(geom, freqs, surface);

    // Compare several same-group RO pairs (stable margins by construction).
    int checked = 0;
    for (const auto& grp : s.enrollment.grouping.members) {
        if (grp.size() < 2) continue;
        const int lo = std::min(grp[0], grp[1]);
        const int hi = std::max(grp[0], grp[1]);
        // The comparator experiment as GroupSession runs it: hypothesis h = 1
        // ("residual(hi) > residual(lo)") wins when its probe passes once.
        const auto instance = GroupBasedAttack::build_comparison(
            s.enrollment.helper, geom, s.puf.code(), lo, hi, cfg.steep_amp);
        std::optional<bool> hi_greater;
        for (int attempt = 0; attempt < cfg.max_retries && !hi_greater; ++attempt) {
            for (int h = 0; h < 2 && !hi_greater; ++h) {
                for (int q = 0; q < cfg.majority_wins && !hi_greater; ++q) {
                    const auto probe =
                        make_probe<GroupBasedPuf>(instance.helper[h], instance.expected_key[h]);
                    if (!oracle.evaluate_one(probe)) hi_greater = h == 1;
                }
            }
        }
        ASSERT_TRUE(hi_greater.has_value());
        EXPECT_EQ(*hi_greater,
                  resid[static_cast<std::size_t>(hi)] > resid[static_cast<std::size_t>(lo)])
            << "ROs " << lo << " vs " << hi;
        ++checked;
        if (checked >= 6) break;
    }
    EXPECT_GE(checked, 3);
}

class GroupAttackSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupAttackSeeds, RecoversFullKeySortMode) {
    Scenario s(GetParam());
    GroupBasedAttack::Victim victim(s.puf, GetParam() ^ 0x3c3c);
    const auto result = run_session(
        GroupSession(s.enrollment.helper, s.array.geometry(), s.puf.code()), victim);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupAttackSeeds, ::testing::Values(511u, 512u, 513u));

TEST(GroupAttack, ExhaustiveModeAlsoRecoversKey) {
    Scenario s(514);
    GroupBasedAttack::Victim victim(s.puf, 515);
    GroupBasedAttack::Config cfg;
    cfg.mode = GroupBasedAttack::Mode::ExhaustivePairs;
    const auto result = run_session(
        GroupSession(s.enrollment.helper, s.array.geometry(), s.puf.code(), cfg), victim);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
}

TEST(GroupAttack, SortModeUsesFewerComparisonsThanExhaustive) {
    Scenario s(516, ArrayGeometry{16, 8});
    GroupBasedAttack::Victim v1(s.puf, 517);
    GroupBasedAttack::Victim v2(s.puf, 518);
    GroupBasedAttack::Config sort_cfg;
    GroupBasedAttack::Config exh_cfg;
    exh_cfg.mode = GroupBasedAttack::Mode::ExhaustivePairs;
    const auto r_sort =
        run_session(GroupSession(s.enrollment.helper, s.array.geometry(), s.puf.code(), sort_cfg),
                    v1);
    const auto r_exh =
        run_session(GroupSession(s.enrollment.helper, s.array.geometry(), s.puf.code(), exh_cfg),
                    v2);
    ASSERT_TRUE(r_sort.complete);
    ASSERT_TRUE(r_exh.complete);
    EXPECT_EQ(r_sort.recovered_key, r_exh.recovered_key);
    EXPECT_LT(r_sort.comparisons, r_exh.comparisons);
}

TEST(GroupAttack, LargerArrayStillFullRecovery) {
    Scenario s(519, ArrayGeometry{16, 8});
    GroupBasedAttack::Victim victim(s.puf, 520);
    const auto result = run_session(
        GroupSession(s.enrollment.helper, s.array.geometry(), s.puf.code()), victim);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
    EXPECT_GT(static_cast<int>(s.enrollment.key.size()), 30);
}

TEST(GroupAttack, DeviceSanityChecksBlockTheInjection) {
    // Countermeasure check (Section VII best practices): a device running the
    // coefficient-plausibility bound rejects the attack surfaces outright.
    Scenario s(521);
    const auto instance = GroupBasedAttack::build_comparison(
        s.enrollment.helper, s.array.geometry(), s.puf.code(), 0, 11, 1000.0);
    // Bound above the honest constant term (~f_nominal = 200 MHz) but far
    // below the injected plane coefficients (~steep_amp = 1000).
    const auto report = ropuf::helperdata::check_coefficients(instance.helper[0].beta,
                                                              /*magnitude_bound=*/300.0);
    EXPECT_FALSE(report.ok);
    // The honest helper passes the same check.
    EXPECT_TRUE(ropuf::helperdata::check_coefficients(s.enrollment.helper.beta, 300.0).ok);
}

TEST(GroupAttack, QueryCountReportedAndBounded) {
    Scenario s(522);
    GroupBasedAttack::Victim victim(s.puf, 523);
    const auto result = run_session(
        GroupSession(s.enrollment.helper, s.array.geometry(), s.puf.code()), victim);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.queries, victim.queries());
    EXPECT_GT(result.comparisons, 0);
    // Each comparison costs a handful of queries.
    EXPECT_LE(result.queries, 10LL * result.comparisons + 10);
}

} // namespace

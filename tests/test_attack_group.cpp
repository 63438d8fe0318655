// Section VI-C attack tests: full key recovery against the group-based PUF.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "ropuf/attack/adaptive.hpp"
#include "ropuf/attack/calibration.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/distiller/poly_surface.hpp"
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

/// The comparator experiment as it was built with std::sort and a bucket
/// list per comparison: the reference the workspace build must equal.
GroupBasedAttack::ComparisonInstance sort_reference_comparison(const GroupPufHelper& pristine,
                                                               const ArrayGeometry& geometry,
                                                               const ropuf::ecc::BchCode& code,
                                                               int a, int b, double steep_amp) {
    GroupBasedAttack::ComparisonInstance out;
    out.target_a = a;
    out.target_b = b;
    const int n = geometry.count();
    const double nx = static_cast<double>(-(geometry.y_of(b) - geometry.y_of(a)));
    const double ny = static_cast<double>(geometry.x_of(b) - geometry.x_of(a));
    const auto plane = ropuf::distiller::PolySurface::plane(0.0, steep_amp * nx, steep_amp * ny);
    out.surface = plane.evaluate_grid(geometry);
    const auto s_of = [&](int i) { return out.surface[static_cast<std::size_t>(i)]; };

    out.group_of.assign(static_cast<std::size_t>(n), 0);
    out.group_of[static_cast<std::size_t>(a)] = 1;
    out.group_of[static_cast<std::size_t>(b)] = 1;
    std::vector<int> rest;
    for (int i = 0; i < n; ++i) {
        if (i != a && i != b) rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(), [&](int u, int w) {
        if (s_of(u) != s_of(w)) return s_of(u) < s_of(w);
        return u < w;
    });
    std::vector<std::vector<int>> buckets;
    for (int ro : rest) {
        if (buckets.empty() || s_of(ro) - s_of(buckets.back().front()) > steep_amp * 0.5) {
            buckets.emplace_back();
        }
        buckets.back().push_back(ro);
    }
    std::vector<std::pair<int, int>> forced_pairs;
    std::vector<int> singletons;
    for (std::size_t j = 0; j + 1 < buckets.size(); j += 2) {
        const auto& lo = buckets[j];
        const auto& hi = buckets[j + 1];
        const std::size_t paired = std::min(lo.size(), hi.size());
        for (std::size_t i = 0; i < paired; ++i) forced_pairs.emplace_back(lo[i], hi[i]);
        for (std::size_t i = paired; i < lo.size(); ++i) singletons.push_back(lo[i]);
        for (std::size_t i = paired; i < hi.size(); ++i) singletons.push_back(hi[i]);
    }
    if (buckets.size() % 2 == 1) {
        for (int ro : buckets.back()) singletons.push_back(ro);
    }
    int next_group = 2;
    for (const auto& [u, w] : forced_pairs) {
        out.group_of[static_cast<std::size_t>(u)] = next_group;
        out.group_of[static_cast<std::size_t>(w)] = next_group;
        ++next_group;
    }
    for (int ro : singletons) out.group_of[static_cast<std::size_t>(ro)] = next_group++;

    bits::BitVec forced_bits;
    for (const auto& [u, w] : forced_pairs) {
        forced_bits.push_back(s_of(std::max(u, w)) > s_of(std::min(u, w)) ? 1 : 0);
    }
    const ropuf::ecc::BlockEcc block_ecc(code);
    std::vector<double> beta_attack = pristine.beta;
    for (std::size_t c = 0; c < 3; ++c) beta_attack[c] -= plane.beta()[c];
    const bool use_data_inversion =
        std::min<int>(static_cast<int>(forced_bits.size()), code.k() - 1) >= code.t();
    for (int h = 0; h < 2; ++h) {
        bits::BitVec kendall(forced_bits.size() + 1, static_cast<std::uint8_t>(h));
        std::copy(forced_bits.begin(), forced_bits.end(), kendall.begin() + 1);
        auto& helper = out.helper[h];
        helper.beta = beta_attack;
        helper.group_of = out.group_of;
        if (use_data_inversion) {
            invert_for_parity(kendall, block_ecc, 0, code.t(), {0});
            helper.ecc = block_ecc.enroll(kendall);
        } else {
            helper.ecc = block_ecc.enroll(kendall);
            flip_parity_bits(helper.ecc, block_ecc, 0, code.t());
        }
        out.expected_key[h] = kendall;
    }
    return out;
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
    return out;
}

/// Every field of two comparator instances, doubles by bit pattern.
void expect_same_instance(const GroupBasedAttack::ComparisonInstance& got,
                          const GroupBasedAttack::ComparisonInstance& want) {
    ASSERT_EQ(got.target_a, want.target_a);
    ASSERT_EQ(got.target_b, want.target_b);
    ASSERT_EQ(bit_patterns(got.surface), bit_patterns(want.surface));
    ASSERT_EQ(got.group_of, want.group_of);
    for (int h = 0; h < 2; ++h) {
        SCOPED_TRACE(h);
        ASSERT_EQ(bit_patterns(got.helper[h].beta), bit_patterns(want.helper[h].beta));
        ASSERT_EQ(got.helper[h].group_of, want.helper[h].group_of);
        ASSERT_EQ(got.helper[h].ecc.response_bits, want.helper[h].ecc.response_bits);
        ASSERT_EQ(got.helper[h].ecc.parity, want.helper[h].ecc.parity);
        ASSERT_EQ(got.expected_key[h], want.expected_key[h]);
    }
}

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

TEST(GroupAttack, ComparisonMatchesSortReference) {
    // The counting-sort build into a reused workspace must give the sort-based
    // instance bit for bit: on every ordered target pair of three chips (the
    // 8x8 chip's axis-aligned targets give fat buckets), at the steep
    // amplitude, at the plausibility-capped one the adaptive session uses
    // and at a negative one (the key order reversed).
    Scenario s(531);
    GroupPufHelper synthetic;
    synthetic.beta = {201.5, -0.75, 0.3125, 0.01, -0.02, 0.005};
    const ropuf::ecc::BchCode code(6, 3);
    struct Chip {
        ArrayGeometry geometry;
        const GroupPufHelper* pristine;
        const ropuf::ecc::BchCode* code;
    };
    const Chip chips[] = {{s.array.geometry(), &s.enrollment.helper, &s.puf.code()},
                          {{16, 1}, &synthetic, &code},
                          {{8, 8}, &synthetic, &code}};
    GroupBasedAttack::ComparisonWorkspace ws;
    int checked = 0;
    for (const auto& chip : chips) {
        const auto& g = chip.geometry;
        for (int a = 0; a < g.count(); ++a) {
            for (int b = 0; b < g.count(); ++b) {
                if (a == b) continue;
                const double unit[3] = {0.0, static_cast<double>(-(g.y_of(b) - g.y_of(a))),
                                        static_cast<double>(g.x_of(b) - g.x_of(a))};
                const double capped = capped_surface_amp(unit, chip.pristine->beta, 400.0);
                for (const double amp : {1000.0, capped, -1000.0}) {
                    SCOPED_TRACE(testing::Message() << g.cols << "x" << g.rows << " " << a
                                                    << " vs " << b << " at " << amp);
                    GroupBasedAttack::build_comparison(*chip.pristine, g, *chip.code, a, b, amp,
                                                       ws);
                    expect_same_instance(ws.instance, sort_reference_comparison(
                                                          *chip.pristine, g, *chip.code, a, b,
                                                          amp));
                    if (testing::Test::HasFatalFailure()) return;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 3 * (40 * 39 + 16 * 15 + 64 * 63));
    // The by-value form is the same build.
    expect_same_instance(
        GroupBasedAttack::build_comparison(s.enrollment.helper, s.array.geometry(), s.puf.code(),
                                           3, 30, 1000.0),
        sort_reference_comparison(s.enrollment.helper, s.array.geometry(), s.puf.code(), 3, 30,
                                  1000.0));
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

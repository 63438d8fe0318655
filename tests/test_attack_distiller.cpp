// Section VI-D attack tests: distiller + 1-out-of-k masking (Fig. 6b) and
// distiller + overlapping chain (Fig. 6c).
#include <gtest/gtest.h>

#include <cmath>

#include "ropuf/attack/distiller_attack.hpp"
#include "ropuf/helperdata/sanity.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf::attack;
using namespace ropuf::pairing;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

// Drives `session` over the victim's oracle to completion; returns its result.
template <typename AttackSession, typename Puf>
auto run_session(AttackSession&& session, Victim<Puf>& victim) {
    auto oracle = make_oracle(victim);
    run_to_completion(session, oracle);
    return session.result();
}

ProcessParams quiet_params() {
    ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

// ---------------------------------------------------------------------------
// Fig. 6b
// ---------------------------------------------------------------------------

struct MaskedScenario {
    RoArray array;
    MaskedChainPuf puf;
    MaskedChainPuf::Enrollment enrollment;

    explicit MaskedScenario(std::uint64_t seed, ArrayGeometry g = {20, 8})
        : array(g, quiet_params(), seed), puf(array, MaskedChainConfig{}), enrollment{} {
        Xoshiro256pp rng(seed ^ 0xb6b6);
        enrollment = puf.enroll(rng);
    }
};

TEST(MaskedAttack, IsolationSurfaceGeometry) {
    const ArrayGeometry g{20, 8};
    // Target: the pair at columns (4, 5), row 3.
    const int u = g.index(4, 3);
    const int w = g.index(5, 3);
    const auto s = MaskedChainAttack::isolation_surface(g, u, w, 1000.0);
    const auto grid = s.evaluate_grid(g);
    // Equal on the target pair.
    EXPECT_NEAR(grid[static_cast<std::size_t>(u)], grid[static_cast<std::size_t>(w)], 1e-6);
    // Forced on the same columns in a different row.
    const double other_row = grid[static_cast<std::size_t>(g.index(4, 0))] -
                             grid[static_cast<std::size_t>(g.index(5, 0))];
    EXPECT_GT(std::abs(other_row), 50.0);
    // Forced on a different column pair in the same row.
    const double same_row = grid[static_cast<std::size_t>(g.index(8, 3))] -
                            grid[static_cast<std::size_t>(g.index(9, 3))];
    EXPECT_GT(std::abs(same_row), 1000.0);
}

class MaskedAttackSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskedAttackSeeds, RecoversFullKey) {
    MaskedScenario s(GetParam());
    MaskedChainAttack::Victim victim(s.puf, GetParam() ^ 0x5a5a);
    const auto result = run_session(MaskedChainSession(s.puf, s.enrollment.helper), victim);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.recovered_key, s.enrollment.key);
    EXPECT_EQ(result.targets, static_cast<int>(s.enrollment.key.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedAttackSeeds, ::testing::Values(601u, 602u, 603u));

TEST(MaskedAttack, QueryCostPerBitIsSmall) {
    MaskedScenario s(604);
    MaskedChainAttack::Victim victim(s.puf, 605);
    const auto result = run_session(MaskedChainSession(s.puf, s.enrollment.helper), victim);
    ASSERT_TRUE(result.complete);
    const auto m = static_cast<std::int64_t>(s.enrollment.key.size());
    EXPECT_LE(result.queries, 8 * m);
}

// ---------------------------------------------------------------------------
// Fig. 6c
// ---------------------------------------------------------------------------

struct OverlapScenario {
    RoArray array;
    OverlapChainPuf puf;
    OverlapChainPuf::Enrollment enrollment;

    explicit OverlapScenario(std::uint64_t seed, ArrayGeometry g = {10, 4})
        : array(g, quiet_params(), seed),
          puf(array, [] {
              OverlapChainConfig cfg;
              cfg.ecc_t = 4;
              return cfg;
          }()),
          enrollment{} {
        Xoshiro256pp rng(seed ^ 0xc6c6);
        enrollment = puf.enroll(rng);
    }
};

TEST(OverlapAttack, ProbeSurfacesCoverFig6cPattern) {
    const ArrayGeometry g{10, 4};
    const auto probes = OverlapChainAttack::probe_surfaces(g, 1000.0);
    // One cross-row plane + 9 column-boundary quadratics.
    ASSERT_EQ(probes.size(), 10u);
    // The plane vanishes across row-wrap pairs (paper's chain wraps rows).
    const auto plane = probes[0].evaluate_grid(g);
    EXPECT_NEAR(plane[static_cast<std::size_t>(g.index(9, 0))],
                plane[static_cast<std::size_t>(g.index(0, 1))], 1e-9);
    // Quadratic probe at boundary (4,5) vanishes on that column pair — the
    // extremum marked with a triangle in Fig. 6c.
    const auto quad = probes[5].evaluate_grid(g); // c = 4 => index 1 + 4
    EXPECT_NEAR(quad[static_cast<std::size_t>(g.index(4, 2))],
                quad[static_cast<std::size_t>(g.index(5, 2))], 1e-9);
}

class OverlapAttackSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapAttackSeeds, RecoversFullKeyWith2ToThe4Hypotheses) {
    OverlapScenario s(GetParam());
    OverlapChainAttack::Victim victim(s.puf, GetParam() ^ 0x1441);
    const auto result = run_session(OverlapChainSession(s.puf, s.enrollment.helper), victim);
    ASSERT_TRUE(result.complete);
    // An overlapping chain (no reliability filtering!) can contain pairs
    // with near-zero residual margin whose enrolled value is a coin flip of
    // the averaging; the attack recovers the likelier side, so allow one
    // such bit to disagree while every well-margined bit must match.
    EXPECT_LE(ropuf::bits::hamming(result.recovered_key, s.enrollment.key), 1);
    // The paper's Fig. 6c claim: the largest simultaneous unknown set on a
    // 10x4 row-major chain is the 4 per-row vertex pairs.
    EXPECT_EQ(result.max_set_size, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapAttackSeeds, ::testing::Values(611u, 612u, 613u));

TEST(OverlapAttack, HypothesisCountStaysPolynomial) {
    OverlapScenario s(614);
    OverlapChainAttack::Victim victim(s.puf, 615);
    const auto result = run_session(OverlapChainSession(s.puf, s.enrollment.helper), victim);
    ASSERT_TRUE(result.complete);
    // 10 probes, each at most 2^4 assignments (plus retries).
    EXPECT_LE(result.hypotheses, 10 * 16 * 3);
    EXPECT_GE(result.probes, 9);
}

TEST(OverlapAttack, SerpentineChainAlsoRecoverable) {
    // With a serpentine chain the turn pairs join the first quadratic probe's
    // unknown set (2^7 worst case) — the generic driver still recovers all.
    const ArrayGeometry g{10, 4};
    const RoArray arr(g, quiet_params(), 616);
    OverlapChainConfig cfg;
    cfg.order = ChainOrder::Serpentine;
    cfg.ecc_t = 4;
    const OverlapChainPuf puf(arr, cfg);
    Xoshiro256pp rng(617);
    const auto enrollment = puf.enroll(rng);
    OverlapChainAttack::Victim victim(puf, 618);
    const auto result = run_session(OverlapChainSession(puf, enrollment.helper), victim);
    ASSERT_TRUE(result.complete);
    EXPECT_LE(ropuf::bits::hamming(result.recovered_key, enrollment.key), 1);
    EXPECT_GT(result.max_set_size, 4); // turn pairs inflate the first set
}

TEST(OverlapAttack, CoefficientBoundCountermeasureFlagsSurfaces) {
    const ArrayGeometry g{10, 4};
    for (const auto& s : OverlapChainAttack::probe_surfaces(g, 1000.0)) {
        // beta' = beta - S carries S's huge coefficients.
        EXPECT_FALSE(ropuf::helperdata::check_coefficients(s.beta(), 50.0).ok);
    }
}

} // namespace

// Selection-substitution probe tests: intra-group relations are recovered
// exactly, and — the point of the exercise — the key's entropy is untouched.
#include <gtest/gtest.h>

#include <cmath>

#include "ropuf/attack/masking_attack.hpp"
#include "ropuf/distiller/regression.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf;
using attack::SelectionProbeSession;
using attack::SelectionSubstitutionProbe;

struct Scenario {
    sim::RoArray array;
    pairing::MaskedChainPuf puf;
    pairing::MaskedChainPuf::Enrollment enrollment;

    explicit Scenario(std::uint64_t seed)
        : array({20, 8},
                [] {
                    sim::ProcessParams p{};
                    p.sigma_noise_mhz = 0.02;
                    return p;
                }(),
                seed),
          puf(array, pairing::MaskedChainConfig{}),
          enrollment{} {
        rng::Xoshiro256pp rng(seed ^ 0x5e1e);
        enrollment = puf.enroll(rng);
    }
};

// Drives `session` over the victim's oracle to completion; returns its result.
template <typename AttackSession, typename Puf>
auto run_session(AttackSession&& session, attack::Victim<Puf>& victim) {
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    return session.result();
}

TEST(SelectionProbe, SubstitutionHelperRepointsOneGroup) {
    Scenario s(1001);
    const auto variant = SelectionSubstitutionProbe::make_substitution_helper(
        s.enrollment.helper, s.puf.code(), /*g=*/2, /*j=*/0, /*inject=*/0);
    for (std::size_t g = 0; g < variant.masking.selected.size(); ++g) {
        if (g == 2) {
            EXPECT_EQ(variant.masking.selected[g], 0);
        } else {
            EXPECT_EQ(variant.masking.selected[g], s.enrollment.helper.masking.selected[g]);
        }
    }
    EXPECT_EQ(variant.beta, s.enrollment.helper.beta); // no distiller injection
}

TEST(SelectionProbe, RecoveredRelationsMatchGroundTruth) {
    Scenario s(1002);
    SelectionSubstitutionProbe::Victim victim(s.puf, s.enrollment.key, 1003);
    const auto result =
        run_session(SelectionProbeSession(s.enrollment.helper, s.puf.code()), victim);

    // Ground truth from the noiseless enrolled residuals.
    const auto& geom = s.array.geometry();
    std::vector<double> freqs(static_cast<std::size_t>(geom.count()));
    for (int i = 0; i < geom.count(); ++i) {
        freqs[static_cast<std::size_t>(i)] = s.array.true_frequency(i);
    }
    const distiller::PolySurface surface(2, s.enrollment.helper.beta);
    const auto resid = distiller::residuals(geom, freqs, surface);
    const auto& base = s.puf.base_pairs();
    const int k = s.enrollment.helper.masking.k;

    int checked = 0;
    for (const auto& rel : result.groups) {
        const auto sel_pair = base[static_cast<std::size_t>(rel.group * k + rel.selected)];
        const auto sel_bit = resid[static_cast<std::size_t>(sel_pair.first)] >
                                     resid[static_cast<std::size_t>(sel_pair.second)]
                                 ? 1
                                 : 0;
        for (int j = 0; j < k; ++j) {
            if (j == rel.selected) continue;
            const auto pair = base[static_cast<std::size_t>(rel.group * k + j)];
            const double margin = resid[static_cast<std::size_t>(pair.first)] -
                                  resid[static_cast<std::size_t>(pair.second)];
            if (std::abs(margin) < 0.1) continue; // metastable sibling: skip
            const int truth_bit = margin > 0 ? 1 : 0;
            EXPECT_EQ(rel.relation[static_cast<std::size_t>(j)], truth_bit ^ sel_bit)
                << "group " << rel.group << " candidate " << j;
            ++checked;
        }
    }
    EXPECT_GT(checked, 20);
}

TEST(SelectionProbe, KeyEntropyIsUntouched) {
    // The headline negative result: one unresolved bit per group remains.
    Scenario s(1004);
    SelectionSubstitutionProbe::Victim victim(s.puf, s.enrollment.key, 1005);
    const auto result =
        run_session(SelectionProbeSession(s.enrollment.helper, s.puf.code()), victim);
    EXPECT_EQ(result.residual_key_entropy_bits,
              static_cast<int>(s.enrollment.key.size()));
    // And indeed, nothing in the result determines a single key bit: the
    // relation of the selected pair to itself is the only '0-by-definition'.
    for (const auto& rel : result.groups) {
        EXPECT_EQ(rel.relation[static_cast<std::size_t>(rel.selected)], 0);
    }
}

TEST(SelectionProbe, QueryCostIsKMinusOnePerGroup) {
    Scenario s(1006);
    SelectionSubstitutionProbe::Victim victim(s.puf, s.enrollment.key, 1007);
    const auto result =
        run_session(SelectionProbeSession(s.enrollment.helper, s.puf.code()), victim);
    const auto groups = static_cast<std::int64_t>(result.groups.size());
    const auto k = s.enrollment.helper.masking.k;
    // any_pass probes: 1 query when H0 (pass), up to 4 when H1.
    EXPECT_GE(result.queries, groups * (k - 1));
    EXPECT_LE(result.queries, groups * (k - 1) * 4);
}

} // namespace

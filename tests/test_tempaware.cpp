// Temperature-aware cooperative RO PUF tests: classification (Fig. 3) and the
// masked-cooperation device.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ropuf/tempaware/tempaware_puf.hpp"

namespace {

using namespace ropuf::tempaware;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ArrayGeometry;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

TEST(PairLine, FitThroughTwoPoints) {
    const auto line = fit_pair_line(2.0, -2.0, -20.0, 80.0, 25.0);
    EXPECT_NEAR(line.at(-20.0), 2.0, 1e-12);
    EXPECT_NEAR(line.at(80.0), -2.0, 1e-12);
    EXPECT_NEAR(line.slope, -0.04, 1e-12);
}

TEST(Classify, GoodPairStablePositive) {
    const ClassificationConfig cfg{-20.0, 85.0, 0.2};
    PairLine line{1.0, 0.001, 25.0}; // always well above threshold
    const auto c = classify_pair(line, cfg);
    EXPECT_EQ(c.cls, PairClass::Good);
    EXPECT_EQ(c.reference_bit, 1);
}

TEST(Classify, GoodPairStableNegative) {
    const ClassificationConfig cfg{-20.0, 85.0, 0.2};
    PairLine line{-1.0, 0.001, 25.0};
    const auto c = classify_pair(line, cfg);
    EXPECT_EQ(c.cls, PairClass::Good);
    EXPECT_EQ(c.reference_bit, 0);
}

TEST(Classify, BadPairWeakEverywhere) {
    const ClassificationConfig cfg{-20.0, 85.0, 0.2};
    PairLine line{0.05, 0.0005, 25.0};
    EXPECT_EQ(classify_pair(line, cfg).cls, PairClass::Bad);
}

TEST(Classify, CooperatingPairHasInteriorCrossover) {
    const ClassificationConfig cfg{-20.0, 85.0, 0.2};
    // Crosses zero at T = 25 + 0.5/0.02 = 50, well inside the range.
    PairLine line{0.5, -0.02, 25.0};
    const auto c = classify_pair(line, cfg);
    ASSERT_EQ(c.cls, PairClass::Cooperating);
    EXPECT_NEAR(c.t_low, 50.0 - 10.0, 1e-9);
    EXPECT_NEAR(c.t_high, 50.0 + 10.0, 1e-9);
    EXPECT_EQ(c.reference_bit, 1); // positive below the crossover
    // Interval endpoints are exactly where |delta f| = threshold.
    EXPECT_NEAR(std::abs(line.at(c.t_low)), cfg.delta_f_th, 1e-9);
    EXPECT_NEAR(std::abs(line.at(c.t_high)), cfg.delta_f_th, 1e-9);
}

TEST(Classify, EdgeClippedCrossoverIsBad) {
    const ClassificationConfig cfg{-20.0, 85.0, 0.2};
    // Crossover at T = 84: upper half of the unreliable window clips Tmax.
    PairLine line{-0.02 * (84.0 - 25.0), 0.02, 25.0};
    EXPECT_EQ(classify_pair(line, cfg).cls, PairClass::Bad);
}

TEST(Classify, ArrayClassificationMatchesGroundTruth) {
    const ArrayGeometry g{16, 8};
    const ProcessParams p{};
    const RoArray arr(g, p, 131);
    const ClassificationConfig cfg{-20.0, 85.0, 0.2};
    const auto pairs = ropuf::pairing::neighbor_chain(g, ropuf::pairing::ChainOrder::Serpentine,
                                                      ropuf::pairing::ChainOverlap::Disjoint);
    Xoshiro256pp rng(132);
    const auto classified = classify_pairs(arr, pairs, cfg, 64, rng);
    ASSERT_EQ(classified.size(), pairs.size());
    int good = 0;
    int coop = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [a, b] = pairs[i];
        // Ground truth from the noiseless model.
        const double d_cold = arr.delta_f(a, b, {cfg.t_min, 1.2});
        const double d_hot = arr.delta_f(a, b, {cfg.t_max, 1.2});
        if (classified[i].cls == PairClass::Good) {
            ++good;
            EXPECT_GT(std::min(std::abs(d_cold), std::abs(d_hot)), cfg.delta_f_th * 0.5);
            EXPECT_EQ(classified[i].reference_bit, d_cold > 0 ? 1 : 0);
        }
        if (classified[i].cls == PairClass::Cooperating) {
            ++coop;
            EXPECT_NE(d_cold > 0, d_hot > 0) << "cooperating pair must cross over";
        }
    }
    EXPECT_GT(good, 20); // most pairs are stable
    EXPECT_GE(coop, 1);  // tempco spread creates some crossovers
}

// ---------------------------------------------------------------------------
// Device-level tests
// ---------------------------------------------------------------------------

TempAwareConfig device_config() {
    TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    return cfg;
}

class TempAwareSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TempAwareSeeds, ReconstructsAcrossTemperatureSweep) {
    const ArrayGeometry g{16, 16};
    const RoArray arr(g, ProcessParams{}, GetParam());
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(GetParam() ^ 0x55);
    const auto enrollment = puf.enroll(rng);
    ASSERT_GT(enrollment.key.size(), 30u);
    for (double t : {-15.0, 0.0, 25.0, 50.0, 75.0, 82.0}) {
        const auto rec = puf.reconstruct(enrollment.helper, t, rng);
        ASSERT_TRUE(rec.ok) << "T = " << t;
        EXPECT_EQ(rec.key, enrollment.key) << "T = " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TempAwareSeeds, ::testing::Values(31u, 32u, 33u, 34u));

TEST(TempAware, CooperationConstraintHoldsAtEnrollment) {
    const ArrayGeometry g{16, 16};
    ProcessParams rich{};
    rich.tempco_sigma = 0.015; // crossover-rich: guarantees cooperating pairs
    const RoArray arr(g, rich, 141);
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(142);
    const auto enrollment = puf.enroll(rng);
    int coop_with_helpers = 0;
    for (std::size_t p = 0; p < enrollment.helper.records.size(); ++p) {
        const auto& rec = enrollment.helper.records[p];
        if (rec.cls != PairClass::Cooperating) continue;
        ++coop_with_helpers;
        ASSERT_GE(rec.helper_pair, 0);
        ASSERT_GE(rec.mask_pair, 0);
        // The masked-cooperation constraint: rc XOR rg = rh.
        const auto rc = enrollment.reference_bits[p];
        const auto rg = enrollment.reference_bits[static_cast<std::size_t>(rec.mask_pair)];
        const auto rh = enrollment.reference_bits[static_cast<std::size_t>(rec.helper_pair)];
        EXPECT_EQ(rc ^ rg, rh);
        // Assisting pair must be classified cooperating with disjoint interval.
        const auto& hrec = enrollment.helper.records[static_cast<std::size_t>(rec.helper_pair)];
        EXPECT_EQ(hrec.cls, PairClass::Cooperating);
        EXPECT_TRUE(hrec.t_high < rec.t_low || hrec.t_low > rec.t_high);
        // Mask must be a good pair.
        EXPECT_EQ(enrollment.helper.records[static_cast<std::size_t>(rec.mask_pair)].cls,
                  PairClass::Good);
    }
    EXPECT_GE(coop_with_helpers, 1);
}

TEST(TempAware, KeyPositionsAreDense) {
    const ArrayGeometry g{16, 8};
    const RoArray arr(g, ProcessParams{}, 143);
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(144);
    const auto enrollment = puf.enroll(rng);
    const int bits = TempAwarePuf::key_bits(enrollment.helper);
    EXPECT_EQ(bits, static_cast<int>(enrollment.key.size()));
    std::vector<bool> seen(static_cast<std::size_t>(bits), false);
    for (std::size_t p = 0; p < enrollment.helper.records.size(); ++p) {
        const int pos = TempAwarePuf::key_position(enrollment.helper, static_cast<int>(p));
        if (enrollment.helper.records[p].cls == PairClass::Bad) {
            EXPECT_EQ(pos, -1);
        } else {
            ASSERT_GE(pos, 0);
            ASSERT_LT(pos, bits);
            EXPECT_FALSE(seen[static_cast<std::size_t>(pos)]);
            seen[static_cast<std::size_t>(pos)] = true;
        }
    }
}

TEST(TempAware, BoundaryManipulationForcesErrors) {
    // Reclassifying a good pair as cooperating-with-interval-below-T forces
    // a deterministic inversion error — the paper's acceleration mechanism.
    const ArrayGeometry g{16, 16};
    const RoArray arr(g, ProcessParams{}, 145);
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(146);
    const auto enrollment = puf.enroll(rng);
    auto tampered = enrollment.helper;
    int flipped = 0;
    for (std::size_t p = 0; p < tampered.records.size() && flipped < 8; ++p) {
        if (tampered.records[p].cls == PairClass::Good) {
            tampered.records[p].cls = PairClass::Cooperating;
            tampered.records[p].t_low = 20.0;
            tampered.records[p].t_high = 23.0; // below ambient 25: invert
            tampered.records[p].helper_pair = 0;
            tampered.records[p].mask_pair = 0;
            ++flipped;
        }
    }
    // 8 forced errors in a t = 3 code: reconstruction must fail.
    const auto rec = puf.reconstruct(tampered, 25.0, rng);
    EXPECT_TRUE(!rec.ok || rec.key != enrollment.key);
}

TEST(TempAware, SerializationRoundTrip) {
    const ArrayGeometry g{16, 8};
    const RoArray arr(g, ProcessParams{}, 147);
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(148);
    const auto enrollment = puf.enroll(rng);
    const auto parsed = parse_temp_aware(serialize(enrollment.helper));
    EXPECT_EQ(parsed.pairs, enrollment.helper.pairs);
    ASSERT_EQ(parsed.records.size(), enrollment.helper.records.size());
    for (std::size_t i = 0; i < parsed.records.size(); ++i) {
        EXPECT_EQ(parsed.records[i].cls, enrollment.helper.records[i].cls);
        EXPECT_EQ(parsed.records[i].helper_pair, enrollment.helper.records[i].helper_pair);
        EXPECT_DOUBLE_EQ(parsed.records[i].t_low, enrollment.helper.records[i].t_low);
    }
    const auto rec = puf.reconstruct(parsed, 25.0, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

TEST(TempAware, DeterministicScanProducesValidEnrollment) {
    TempAwareConfig cfg = device_config();
    cfg.policy = HelperSelectionPolicy::DeterministicScan;
    const ArrayGeometry g{16, 16};
    const RoArray arr(g, ProcessParams{}, 149);
    const TempAwarePuf puf(arr, cfg);
    Xoshiro256pp rng(150);
    const auto enrollment = puf.enroll(rng);
    const auto rec = puf.reconstruct(enrollment.helper, 25.0, rng);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.key, enrollment.key);
}

TEST(TempAware, InconsistentHelperFailsSafelyOnASuppliedScan) {
    const ArrayGeometry g{16, 16};
    ProcessParams rich{};
    rich.tempco_sigma = 0.015; // crossover-rich: cooperating pairs to reference
    const RoArray arr(g, rich, 151);
    const TempAwarePuf puf(arr, device_config());
    Xoshiro256pp rng(152);
    const auto enrollment = puf.enroll(rng);
    const auto& records = enrollment.helper.records;
    // A cooperating pair and a temperature inside its interval, so
    // regeneration follows its assisting and masking references.
    const auto coop = std::find_if(records.begin(), records.end(), [](const PairRecord& r) {
        return r.cls == PairClass::Cooperating;
    });
    ASSERT_NE(coop, records.end());
    const auto c = static_cast<std::size_t>(coop - records.begin());
    const auto condition = ropuf::core::DeviceTraits<TempAwarePuf>::condition_at(
        puf, 0.5 * (coop->t_low + coop->t_high));
    const auto scan = arr.measure_all(condition, rng);

    const auto honest = puf.reconstruct_measured(enrollment.helper, condition, scan);
    ASSERT_TRUE(honest.ok);
    EXPECT_EQ(honest.key, enrollment.key);

    const int n_pairs = static_cast<int>(enrollment.helper.pairs.size());
    std::vector<TempAwareHelper> broken(10, enrollment.helper);
    broken[0].records.pop_back();
    broken[1].pairs.back().second = arr.count(); // caught only at the last pair
    broken[2].pairs.front().first = -1;
    broken[3].records[c].helper_pair = n_pairs;
    broken[4].records[c].mask_pair = -1;
    broken[5].records[c].helper_pair = static_cast<int>(c);
    // A referenced pair out of range, wherever the walk meets it first.
    broken[6].pairs[static_cast<std::size_t>(coop->helper_pair)].first = arr.count();
    broken[7].pairs[static_cast<std::size_t>(coop->mask_pair)].second = -1;
    broken[8].ecc.response_bits += 1;
    broken[9].ecc.parity.push_back(0);
    for (std::size_t i = 0; i < broken.size(); ++i) {
        SCOPED_TRACE(i);
        // The pre-measurement check sees the structure; the references only
        // regeneration follows.
        const bool structural = i <= 2 || i == 6 || i == 7;
        if (structural) {
            EXPECT_FALSE(puf.helper_consistent(broken[i]));
        }
        ropuf::core::ReconstructResult rec;
        EXPECT_NO_THROW(rec = puf.reconstruct_measured(broken[i], condition, scan));
        EXPECT_FALSE(rec.ok);
        EXPECT_TRUE(rec.key.empty());
    }
}

} // namespace

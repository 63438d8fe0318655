// Parser robustness fuzzing: a device must survive ARBITRARY helper NVM
// content — the attacker writes whatever he likes. Every parse either throws
// ParseError or yields a structure the device then rejects or handles; no
// crash, no runaway allocation, no out-of-range access. The same corpus also
// runs through the device's structural validation (DeviceTraits::sanity and
// the sanity validator, Verdict and Explain mode, which must agree) and, as
// one batch, through a Victim oracle bare and behind a SanityCheckingOracle:
// ParseError is the only exception any of them may raise. Blob generation
// and structure-preserving mutation come from the shared property-testing
// harness (tests/pt_util.hpp).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "pt_util.hpp"
#include "ropuf/attack/oracle.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/fuzzy/robust.hpp"
#include "ropuf/group/group_puf.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

namespace {

namespace bits = ropuf::bits;
using namespace ropuf;
using pt::mutate_blob;
using pt::random_blob;
using ropuf::helperdata::Nvm;
using ropuf::helperdata::ParseError;
using ropuf::helperdata::SanityMode;
using ropuf::rng::Xoshiro256pp;

/// 60 blobs, alternately random and mutations of the honest blob, plus the
/// attack-shaped variants the caller forged from the honest helper.
std::vector<Nvm> fuzz_corpus(Xoshiro256pp& rng, const Nvm& honest,
                             const std::vector<Nvm>& attack_shaped = {}) {
    std::vector<Nvm> corpus;
    for (int trial = 0; trial < 60; ++trial) {
        corpus.emplace_back(trial % 2 == 0 ? random_blob(rng, 4096)
                                           : mutate_blob(honest.bytes(), rng));
    }
    corpus.insert(corpus.end(), attack_shaped.begin(), attack_shaped.end());
    return corpus;
}

/// Steep-surface probes (Section VI-C/D): the honest helper with one
/// coefficient blown up by orders of magnitude, as the distiller attacks
/// write them.
template <typename Helper, typename Store>
std::vector<Nvm> steep_surfaces(const Helper& honest, Xoshiro256pp& rng, const Store& store) {
    std::vector<Nvm> out;
    for (int i = 0; i < 8 && !honest.beta.empty(); ++i) {
        auto forged = honest;
        const auto k = static_cast<std::size_t>(rng.uniform_u64(0, forged.beta.size() - 1));
        forged.beta[k] = (i % 2 == 0 ? 1.0 : -1.0) * 5.0e5 * (i + 1);
        out.push_back(store(forged));
    }
    return out;
}

/// Runs `corpus` through everything the device does with an NVM blob. The
/// validator's two modes must agree on every blob; Verdict mode formats
/// nothing; no call throws anything but the parse refusal.
template <core::Device Puf>
void expect_device_survives(const Puf& puf, const bits::BitVec& key,
                            const std::vector<Nvm>& corpus, std::uint64_t seed) {
    using Traits = core::DeviceTraits<Puf>;
    const auto validator = attack::make_sanity_validator(puf);
    std::vector<core::Probe> probes;
    for (const auto& nvm : corpus) {
        probes.push_back(core::Probe{nvm, std::nullopt});
        std::optional<typename Traits::Helper> helper;
        try {
            helper = Traits::parse(nvm);
        } catch (const ParseError&) {
        }
        if (helper) {
            const auto explained = Traits::sanity(puf, *helper);
            const auto verdict = Traits::sanity(puf, *helper, SanityMode::Verdict);
            EXPECT_EQ(verdict.ok, explained.ok);
            EXPECT_EQ(explained.ok, explained.violations.empty());
            EXPECT_TRUE(verdict.violations.empty());
        }
        const auto explained = validator(nvm);
        const auto verdict = validator(nvm, SanityMode::Verdict);
        EXPECT_EQ(verdict.ok, explained.ok);
        EXPECT_EQ(explained.ok, explained.violations.empty());
        EXPECT_TRUE(verdict.violations.empty());
        if (!helper) {
            EXPECT_FALSE(verdict.ok);
        }
    }

    attack::Victim<Puf> bare(puf, key, seed);
    auto oracle = attack::make_oracle(bare);
    std::vector<bool> verdicts;
    EXPECT_NO_THROW(verdicts = oracle.evaluate(probes));
    EXPECT_EQ(verdicts.size(), probes.size());
    EXPECT_EQ(oracle.stats().queries, static_cast<std::int64_t>(probes.size()));

    attack::Victim<Puf> guarded(puf, key, seed);
    auto sanity =
        std::make_shared<core::SanityCheckingOracle>(attack::make_oracle(guarded), validator);
    core::AnyOracle defended(sanity);
    EXPECT_NO_THROW(verdicts = defended.evaluate(probes));
    EXPECT_EQ(verdicts.size(), probes.size());
    EXPECT_EQ(defended.stats().queries, static_cast<std::int64_t>(probes.size()));
    if (sanity->refused() > 0) {
        EXPECT_FALSE(sanity->last_violations().empty());
    }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, SeqPairingSurvivesArbitraryNvm) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1101);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    Xoshiro256pp rng(GetParam());
    const auto enrollment = puf.enroll(rng);
    // Attack-shaped: swapped pairs (Section VI-A) and RO re-use across pairs.
    std::vector<Nvm> forged;
    for (std::size_t p = 1; p < 8; ++p) {
        auto swapped = enrollment.helper;
        std::swap(swapped.pairs[0], swapped.pairs[p]);
        forged.push_back(pairing::serialize(swapped));
        auto reused = enrollment.helper;
        reused.pairs[p].second = reused.pairs[0].first;
        forged.push_back(pairing::serialize(reused));
    }
    const auto corpus = fuzz_corpus(rng, pairing::serialize(enrollment.helper), forged);

    for (const auto& blob : corpus) {
        try {
            const auto parsed = pairing::parse_seq_pairing(blob);
            // Parsed garbage: the device must fail safely, never crash.
            const auto rec = puf.reconstruct(parsed, rng);
            if (rec.ok) {
                // A mutated blob may still round-trip to the true key — but
                // then it must BE the true key, not arbitrary bits.
                EXPECT_EQ(rec.key.size(), enrollment.key.size());
            }
        } catch (const ParseError&) {
            // Expected for structurally broken blobs.
        }
    }
    expect_device_survives(puf, enrollment.key, corpus, GetParam());
}

TEST_P(FuzzSeeds, MaskedChainSurvivesArbitraryNvm) {
    const sim::RoArray chip({20, 8}, sim::ProcessParams{}, 1104);
    const pairing::MaskedChainPuf puf(chip, pairing::MaskedChainConfig{});
    Xoshiro256pp rng(GetParam() ^ 0x5);
    const auto enrollment = puf.enroll(rng);
    const auto store = [](const pairing::MaskedChainHelper& h) { return pairing::serialize(h); };
    auto forged = steep_surfaces(enrollment.helper, rng, store);
    auto bad_selection = enrollment.helper;
    bad_selection.masking.selected.back() = bad_selection.masking.k;
    forged.push_back(store(bad_selection));
    const auto corpus = fuzz_corpus(rng, store(enrollment.helper), forged);

    for (const auto& blob : corpus) {
        try {
            (void)puf.reconstruct(pairing::parse_masked_chain(blob), rng);
        } catch (const ParseError&) {
        }
    }
    expect_device_survives(puf, enrollment.key, corpus, GetParam());
}

TEST_P(FuzzSeeds, OverlapChainSurvivesArbitraryNvm) {
    const sim::RoArray chip({10, 4}, sim::ProcessParams{}, 1105);
    const pairing::OverlapChainPuf puf(chip, pairing::OverlapChainConfig{});
    Xoshiro256pp rng(GetParam() ^ 0x6);
    const auto enrollment = puf.enroll(rng);
    const auto store = [](const pairing::OverlapChainHelper& h) { return pairing::serialize(h); };
    const auto corpus = fuzz_corpus(rng, store(enrollment.helper),
                                    steep_surfaces(enrollment.helper, rng, store));

    for (const auto& blob : corpus) {
        try {
            (void)puf.reconstruct(pairing::parse_overlap_chain(blob), rng);
        } catch (const ParseError&) {
        }
    }
    expect_device_survives(puf, enrollment.key, corpus, GetParam());
}

TEST_P(FuzzSeeds, GroupPufSurvivesArbitraryNvm) {
    sim::ProcessParams params{};
    params.sigma_noise_mhz = 0.02;
    const sim::RoArray chip({10, 4}, params, 1102);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    Xoshiro256pp rng(GetParam() ^ 0x1);
    const auto enrollment = puf.enroll(rng);
    const auto store = [](const group::GroupPufHelper& h) { return group::serialize(h); };
    auto forged = steep_surfaces(enrollment.helper, rng, store);
    for (const int id : {0, -1, 41, 0x7fffffff}) {
        auto regrouped = enrollment.helper;
        regrouped.group_of[static_cast<std::size_t>(rng.uniform_u64(0, 39))] = id;
        forged.push_back(store(regrouped));
    }
    const auto corpus = fuzz_corpus(rng, store(enrollment.helper), forged);

    for (const auto& blob : corpus) {
        try {
            const auto parsed = group::parse_group_puf(blob);
            (void)puf.reconstruct(parsed, rng);
        } catch (const ParseError&) {
        }
    }
    expect_device_survives(puf, enrollment.key, corpus, GetParam());
}

TEST_P(FuzzSeeds, TempAwareSurvivesArbitraryNvm) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1103);
    tempaware::TempAwareConfig cfg;
    cfg.enroll_samples = 8;
    const tempaware::TempAwarePuf puf(chip, cfg);
    Xoshiro256pp rng(GetParam() ^ 0x2);
    const auto enrollment = puf.enroll(rng);
    // Attack-shaped: records rewritten as cooperating with forged intervals
    // and references (Section VI-E), some in range and some not.
    std::vector<Nvm> forged;
    for (int i = 0; i < 8; ++i) {
        auto helper = enrollment.helper;
        auto& rec = helper.records[static_cast<std::size_t>(i) % helper.records.size()];
        rec.cls = tempaware::PairClass::Cooperating;
        rec.t_low = i % 3 == 0 ? 90.0 : 10.0;
        rec.t_high = i % 2 == 0 ? 5.0 : 30.0;
        rec.helper_pair = i - 2;
        rec.mask_pair = static_cast<int>(helper.pairs.size()) - i;
        forged.push_back(tempaware::serialize(helper));
    }
    const auto corpus = fuzz_corpus(rng, tempaware::serialize(enrollment.helper), forged);

    for (const auto& blob : corpus) {
        try {
            const auto parsed = tempaware::parse_temp_aware(blob);
            (void)puf.reconstruct(parsed, 25.0, rng);
        } catch (const ParseError&) {
        }
    }
    expect_device_survives(puf, enrollment.key, corpus, GetParam());
}

TEST_P(FuzzSeeds, FuzzyHelperSurvivesArbitraryNvm) {
    const ecc::BchCode code(6, 3);
    const fuzzy::FuzzyExtractor fe(code);
    Xoshiro256pp rng(GetParam() ^ 0x3);
    const auto response = bits::random_bits(100, rng);
    const auto enrollment = fe.enroll(response, rng);
    const auto honest = fuzzy::serialize(enrollment.helper).bytes();

    for (int trial = 0; trial < 60; ++trial) {
        const auto blob = trial % 2 == 0 ? random_blob(rng, 4096) : mutate_blob(honest, rng);
        try {
            const auto parsed = fuzzy::parse_fuzzy(Nvm(blob));
            (void)fe.reconstruct(response, parsed);
        } catch (const ParseError&) {
        }
    }
}

TEST_P(FuzzSeeds, ForgedCountFieldCannotDriveAllocation) {
    // A 4-byte blob claiming 2^32-1 pairs must throw, not reserve gigabytes.
    Xoshiro256pp rng(GetParam() ^ 0x4);
    helperdata::BlobWriter w;
    w.put_u32(0xffffffffu);
    w.put_u32(static_cast<std::uint32_t>(rng.next()));
    EXPECT_THROW(pairing::parse_seq_pairing(Nvm(w.bytes())), ParseError);
    helperdata::BlobReader r(w.bytes());
    EXPECT_THROW(helperdata::read_pair_list(r), ParseError);
    helperdata::BlobReader r2(w.bytes());
    EXPECT_THROW(helperdata::read_coefficients(r2), ParseError);
    helperdata::BlobReader r3(w.bytes());
    EXPECT_THROW(helperdata::read_group_assignment(r3), ParseError);

    // A group id no 40-RO assignment can make dense must be refused, not
    // sized into a 2^31-entry table — by the validator and by the victim.
    sim::ProcessParams params{};
    params.sigma_noise_mhz = 0.02;
    const sim::RoArray chip({10, 4}, params, 1102);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    const auto enrollment = puf.enroll(rng);
    auto forged_groups = enrollment.helper;
    forged_groups.group_of[0] = 0x7fffffff;
    const auto forged_nvm = group::serialize(forged_groups);
    const auto validator = attack::make_sanity_validator(puf);
    EXPECT_FALSE(validator(forged_nvm).ok);
    EXPECT_FALSE(validator(forged_nvm, SanityMode::Verdict).ok);
    attack::Victim<group::GroupBasedPuf> victim(puf, enrollment.key, GetParam());
    std::vector<bool> verdicts;
    EXPECT_NO_THROW(victim.evaluate_probes(
        std::vector<core::Probe>{core::Probe{forged_nvm, std::nullopt}}, verdicts));
    EXPECT_EQ(verdicts, std::vector<bool>{true});

    // Bit counts within 7 of 2^32 must not round up to zero payload bytes:
    // the 4-byte count alone (or with a few trailing bytes) has to throw.
    for (std::uint32_t nbits = 0xfffffff9u; nbits != 0; ++nbits) {
        helperdata::BlobWriter forged;
        forged.put_u32(nbits);
        const auto pad = static_cast<int>(rng.next() % 4);
        for (int i = 0; i < pad; ++i) forged.put_u8(0xff);
        helperdata::BlobReader rb(forged.bytes());
        EXPECT_THROW(rb.get_bits(), ParseError) << "bit count " << nbits;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(2101u, 2102u, 2103u, 2104u, 2105u));

} // namespace

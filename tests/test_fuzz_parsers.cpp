// Parser robustness fuzzing: a device must survive ARBITRARY helper NVM
// content — the attacker writes whatever he likes. Every parse either throws
// ParseError or yields a structure the device then rejects or handles; no
// crash, no runaway allocation, no out-of-range access. Blob generation and
// structure-preserving mutation come from the shared property-testing
// harness (tests/pt_util.hpp).
#include <gtest/gtest.h>

#include "pt_util.hpp"
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
using ropuf::rng::Xoshiro256pp;

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, SeqPairingSurvivesArbitraryNvm) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1101);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    Xoshiro256pp rng(GetParam());
    const auto enrollment = puf.enroll(rng);
    const auto honest = pairing::serialize(enrollment.helper).bytes();

    for (int trial = 0; trial < 60; ++trial) {
        const auto blob = trial % 2 == 0 ? random_blob(rng, 4096) : mutate_blob(honest, rng);
        try {
            const auto parsed = pairing::parse_seq_pairing(Nvm(blob));
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
    const auto honest = group::serialize(enrollment.helper).bytes();

    for (int trial = 0; trial < 60; ++trial) {
        const auto blob = trial % 2 == 0 ? random_blob(rng, 4096) : mutate_blob(honest, rng);
        try {
            const auto parsed = group::parse_group_puf(Nvm(blob));
            (void)puf.reconstruct(parsed, rng);
        } catch (const ParseError&) {
        }
    }
}

TEST_P(FuzzSeeds, TempAwareSurvivesArbitraryNvm) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1103);
    tempaware::TempAwareConfig cfg;
    cfg.enroll_samples = 8;
    const tempaware::TempAwarePuf puf(chip, cfg);
    Xoshiro256pp rng(GetParam() ^ 0x2);
    const auto enrollment = puf.enroll(rng);
    const auto honest = tempaware::serialize(enrollment.helper).bytes();

    for (int trial = 0; trial < 60; ++trial) {
        const auto blob = trial % 2 == 0 ? random_blob(rng, 4096) : mutate_blob(honest, rng);
        try {
            const auto parsed = tempaware::parse_temp_aware(Nvm(blob));
            (void)puf.reconstruct(parsed, 25.0, rng);
        } catch (const ParseError&) {
        }
    }
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

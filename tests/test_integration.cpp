// Cross-module integration tests: NVM-level end-to-end attack flows and the
// countermeasure story.
#include <gtest/gtest.h>

#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/fuzzy/robust.hpp"
#include "ropuf/helperdata/sanity.hpp"

namespace {

namespace bits = ropuf::bits;
using ropuf::rng::Xoshiro256pp;
using ropuf::sim::ProcessParams;
using ropuf::sim::RoArray;

TEST(Integration, SeqPairingAttackThroughSerializedNvm) {
    // Full loop: enroll -> serialize to NVM bytes -> attacker parses the
    // bytes, runs the attack, writes variants -> device parses them back.
    const RoArray arr({16, 8}, ProcessParams{}, 701);
    const ropuf::pairing::SeqPairingPuf puf(arr, ropuf::pairing::SeqPairingConfig{});
    Xoshiro256pp rng(702);
    const auto enrollment = puf.enroll(rng);

    // What the attacker reads from NVM.
    const auto nvm = ropuf::pairing::serialize(enrollment.helper);
    const auto attacker_view = ropuf::pairing::parse_seq_pairing(nvm);

    ropuf::attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 703);
    ropuf::attack::SeqPairingSession session(attacker_view, puf.code());
    auto oracle = ropuf::attack::make_oracle(victim);
    ropuf::attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    ASSERT_TRUE(result.resolved);
    EXPECT_EQ(result.recovered_key, enrollment.key);
}

TEST(Integration, GroupAttackRecoversKeyUsableForDecryption) {
    // The recovered key equals the device key bit-for-bit, i.e. whatever the
    // application derives from it (e.g. an AES key via SHA-256) matches too.
    const RoArray arr({10, 4}, [] {
        ProcessParams p{};
        p.sigma_noise_mhz = 0.02;
        return p;
    }(), 704);
    ropuf::group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const ropuf::group::GroupBasedPuf puf(arr, cfg);
    Xoshiro256pp rng(705);
    const auto enrollment = puf.enroll(rng);

    ropuf::attack::GroupBasedAttack::Victim victim(puf, 706);
    ropuf::attack::GroupSession session(enrollment.helper, arr.geometry(), puf.code());
    auto oracle = ropuf::attack::make_oracle(victim);
    ropuf::attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    ASSERT_TRUE(result.complete);

    const auto device_app_key =
        ropuf::fuzzy::hash_response("app-key", enrollment.key);
    const auto attacker_app_key =
        ropuf::fuzzy::hash_response("app-key", result.recovered_key);
    EXPECT_EQ(device_app_key, attacker_app_key);
}

TEST(Integration, AuthenticatedHelperBlocksManipulationEndToEnd) {
    // A device that HMAC-seals its helper NVM rejects every attack variant:
    // the Section VII countermeasure layered onto the weakest construction.
    const RoArray arr({16, 8}, ProcessParams{}, 707);
    const ropuf::pairing::SeqPairingPuf puf(arr, ropuf::pairing::SeqPairingConfig{});
    Xoshiro256pp rng(708);
    const auto enrollment = puf.enroll(rng);
    const std::vector<std::uint8_t> device_key{0x42, 0x17, 0x99};
    const ropuf::helperdata::HelperAuthenticator auth(device_key);

    const auto sealed = auth.seal(ropuf::pairing::serialize(enrollment.helper).bytes());
    // Honest path still works.
    const auto opened = auth.open(sealed);
    ASSERT_TRUE(opened.has_value());
    const auto parsed = ropuf::pairing::parse_seq_pairing(ropuf::helperdata::Nvm(*opened));
    EXPECT_TRUE(puf.reconstruct(parsed, rng).ok);

    // Attacker rewrites any byte of the sealed blob: device refuses to parse.
    for (std::size_t i = 0; i < sealed.size(); i += sealed.size() / 7) {
        auto tampered = sealed;
        tampered[i] ^= 0x01;
        EXPECT_FALSE(auth.open(tampered).has_value());
    }
}

TEST(Integration, SanityCheckingDeviceRejectsSwappedPairsReuse) {
    // Section VII-C: "the re-use of ROs across pairs should also be
    // prohibited somehow". The swap attack preserves the pair *set*, so
    // reuse checks do NOT stop it — but a reuse-introducing manipulation
    // (pointing two list slots at the same pair) is caught.
    const RoArray arr({16, 8}, ProcessParams{}, 709);
    const ropuf::pairing::SeqPairingPuf puf(arr, ropuf::pairing::SeqPairingConfig{});
    Xoshiro256pp rng(710);
    const auto enrollment = puf.enroll(rng);

    auto swapped = enrollment.helper;
    std::swap(swapped.pairs[0], swapped.pairs[1]);
    EXPECT_TRUE(ropuf::helperdata::check_pair_list(swapped.pairs, arr.count(), true).ok)
        << "swap attack is invisible to structural checks (as the paper notes)";

    auto reused = enrollment.helper;
    reused.pairs[1] = reused.pairs[0];
    EXPECT_FALSE(ropuf::helperdata::check_pair_list(reused.pairs, arr.count(), true).ok);
}

TEST(Integration, FuzzyExtractorResistsTheSwapStyleAttack) {
    // The same pair-swap trick applied to a fuzzy-extractor device: since
    // helper data is one opaque offset (no pair list), the attacker's only
    // lever is offset bit flips, whose effect is response-independent. Verify
    // the failure behaviour carries no information: flipping any single
    // offset bit changes the key the *same deterministic way* regardless of
    // which response bits are 0 or 1.
    const ropuf::ecc::BchCode code(6, 3);
    const ropuf::fuzzy::FuzzyExtractor fe(code);
    Xoshiro256pp rng(711);
    const auto r1 = bits::random_bits(63, rng);
    auto r2 = r1;
    bits::flip(r2, 7); // different secret
    const auto e1 = fe.enroll(r1, rng);
    const auto e2 = fe.enroll(r2, rng);
    for (std::size_t pos : {0u, 5u, 40u}) {
        auto h1 = e1.helper;
        auto h2 = e2.helper;
        bits::flip(h1.offset, pos);
        bits::flip(h2.offset, pos);
        const auto rec1 = fe.reconstruct(r1, h1);
        const auto rec2 = fe.reconstruct(r2, h2);
        // Both devices keep decoding (same observable), both keys shift.
        EXPECT_EQ(rec1.ok, rec2.ok);
        EXPECT_NE(rec1.key, e1.key);
        EXPECT_NE(rec2.key, e2.key);
    }
}

TEST(Integration, AllFourVictimsShareTheEccSubstrate) {
    // Consistency: every construction's helper parity has the length the
    // shared BlockEcc arithmetic predicts.
    const RoArray arr({16, 8}, ProcessParams{}, 712);
    Xoshiro256pp rng(713);

    const ropuf::pairing::SeqPairingPuf seq(arr, ropuf::pairing::SeqPairingConfig{});
    const auto seq_enr = seq.enroll(rng);
    const ropuf::ecc::BlockEcc seq_ecc(seq.code());
    EXPECT_EQ(static_cast<int>(seq_enr.helper.ecc.parity.size()),
              seq_ecc.helper_bits(static_cast<int>(seq_enr.key.size())));

    const ropuf::pairing::MaskedChainPuf masked(arr, ropuf::pairing::MaskedChainConfig{});
    const auto masked_enr = masked.enroll(rng);
    const ropuf::ecc::BlockEcc masked_ecc(masked.code());
    EXPECT_EQ(static_cast<int>(masked_enr.helper.ecc.parity.size()),
              masked_ecc.helper_bits(static_cast<int>(masked_enr.key.size())));

    ropuf::group::GroupPufConfig gcfg;
    const ropuf::group::GroupBasedPuf grp(arr, gcfg);
    const auto grp_enr = grp.enroll(rng);
    const ropuf::ecc::BlockEcc grp_ecc(grp.code());
    EXPECT_EQ(static_cast<int>(grp_enr.helper.ecc.parity.size()),
              grp_ecc.helper_bits(static_cast<int>(grp_enr.kendall_ref.size())));
}

} // namespace

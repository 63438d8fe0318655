// E15 — defense evaluation: the Section VII best practices layered onto the
// attacked constructions, and what each layer stops.
//
//   layer 0: naive device           — all Section VI attacks succeed
//   layer 1: structural checks      — stops malformed/reuse blobs, NOT swaps
//   layer 2: coefficient bound      — stops every distiller injection
//   layer 3: HMAC-sealed helper NVM — stops all manipulation (leaves DoS)
#include "bench_util.hpp"

#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/hardened/hardened_devices.hpp"

int main() {
    using namespace ropuf;
    using namespace ropuf::hardened;
    benchutil::header("E15: countermeasure evaluation", "Section VII best practices",
                      "each hardening layer removes a class of Section VI manipulations");

    const std::vector<std::uint8_t> device_key{0xaa, 0xbb, 0xcc};

    benchutil::section("sequential pairing victim");
    {
        const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 1501);
        const pairing::SeqPairingPuf naive(chip, pairing::SeqPairingConfig{});
        const HardenedSeqPairingPuf hardened(naive, device_key);
        rng::Xoshiro256pp rng(1502);
        const auto enrollment = naive.enroll(rng);
        const auto sealed = hardened.enroll(rng);

        // Naive device: the attack succeeds.
        attack::SeqPairingAttack::Victim victim(naive, enrollment.key, 1503);
        attack::SeqPairingSession session(enrollment.helper, naive.code());
        auto oracle = attack::make_oracle(victim);
        attack::run_to_completion(session, oracle);
        const auto& attack_result = session.result();
        std::printf("  naive device      : attack %s (%lld queries)\n",
                    attack_result.resolved && attack_result.recovered_key == enrollment.key
                        ? "RECOVERS THE FULL KEY"
                        : "failed",
                    static_cast<long long>(attack_result.queries));

        // Structural checks alone: the swap variants still pass (the paper's
        // point — ordering checks cannot see a swap).
        int swaps_passing_checks = 0;
        for (int j = 1; j <= 10; ++j) {
            const auto variant = attack::SeqPairingAttack::make_swap_helper(
                enrollment.helper, naive.code(), 0, j, naive.code().t());
            swaps_passing_checks +=
                helperdata::check_pair_list(variant.pairs, chip.count(), true).ok;
        }
        std::printf("  structural checks : %d/10 swap variants sail through (swaps are\n",
                    swaps_passing_checks);
        std::printf("                      invisible to range/reuse validation)\n");

        // Sealed device: every variant refused; honest path intact.
        rng::Xoshiro256pp nrng(1504);
        int refused = 0;
        for (int j = 1; j <= 10; ++j) {
            const auto variant = attack::SeqPairingAttack::make_swap_helper(
                enrollment.helper, naive.code(), 0, j, naive.code().t());
            auto forged = pairing::serialize(variant).bytes();
            forged.insert(forged.end(), sealed.sealed_nvm.end() - 32, sealed.sealed_nvm.end());
            const auto rec = hardened.reconstruct(forged, nrng);
            refused += !rec.ok && rec.refusal == Refusal::SealBroken;
        }
        const auto honest = hardened.reconstruct(sealed.sealed_nvm, nrng);
        std::printf("  sealed device     : %d/10 variants refused at the seal; honest\n",
                    refused);
        std::printf("                      regeneration %s\n",
                    honest.ok ? "still works" : "BROKEN (bug!)");
    }

    benchutil::section("group-based victim");
    {
        sim::ProcessParams params{};
        params.sigma_noise_mhz = 0.02;
        const sim::RoArray chip({10, 4}, params, 1505);
        group::GroupPufConfig cfg;
        cfg.delta_f_th = 0.15;
        const group::GroupBasedPuf naive(chip, cfg);
        const HardenedGroupPuf hardened(naive, device_key);
        rng::Xoshiro256pp rng(1506);
        const auto enrollment = naive.enroll(rng);

        attack::GroupBasedAttack::Victim victim(naive, 1507);
        attack::GroupSession session(enrollment.helper, chip.geometry(), naive.code());
        auto oracle = attack::make_oracle(victim);
        attack::run_to_completion(session, oracle);
        const auto& attack_result = session.result();
        std::printf("  naive device      : attack %s (%lld queries)\n",
                    attack_result.complete && attack_result.recovered_key == enrollment.key
                        ? "RECOVERS THE FULL KEY"
                        : "failed",
                    static_cast<long long>(attack_result.queries));

        // Coefficient plausibility bound alone (no seal):
        rng::Xoshiro256pp nrng(1508);
        const auto instance = attack::GroupBasedAttack::build_comparison(
            enrollment.helper, chip.geometry(), naive.code(), 0, 11, 1000.0);
        int refused = 0;
        for (int h = 0; h < 2; ++h) {
            const auto rec = hardened.reconstruct_checked_only(instance.helper[h], nrng);
            refused += !rec.ok && rec.refusal == Refusal::Implausible;
        }
        const auto honest_checked = hardened.reconstruct_checked_only(enrollment.helper, nrng);
        std::printf("  coefficient bound : %d/2 injection hypotheses refused as implausible;\n",
                    refused);
        std::printf("                      honest helper %s\n",
                    honest_checked.ok ? "accepted" : "REJECTED (bug!)");
    }

    benchutil::section("residual attacker capability under full hardening");
    std::printf("  manipulation      => refusal (observable): denial of service only\n");
    std::printf("  leakage via reads => unchanged; the schemes' helper data still\n");
    std::printf("                       reveals structure (pair sets, group sizes) —\n");
    std::printf("                       the fuzzy extractor remains the cleaner design\n");
    std::printf("\n[shape check] naive falls, checks stop Fig. 6 injections, the seal\n");
    std::printf("              stops everything; the honest path survives every layer.\n");
    return 0;
}

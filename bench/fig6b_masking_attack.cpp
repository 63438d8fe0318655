// E9 — paper Fig. 6b / Section VI-D: entropy distiller + 1-out-of-k masking
// (k = 5) attack: isolate each selected pair with a vertex quadratic.
#include "bench_util.hpp"

#include "ropuf/attack/distiller_attack.hpp"

int main() {
    using namespace ropuf;
    benchutil::header("E9: distiller + 1-out-of-k masking attack", "Fig. 6b + Section VI-D",
                      "vertex quadratic isolates one selected pair; 2 hypotheses per bit");

    sim::ProcessParams params{};
    params.sigma_noise_mhz = 0.02;
    const sim::ArrayGeometry g{20, 8};
    const sim::RoArray chip(g, params, 61);
    pairing::MaskedChainConfig cfg; // k = 5 as in the paper's figure
    const pairing::MaskedChainPuf puf(chip, cfg);
    rng::Xoshiro256pp rng(62);
    const auto enrollment = puf.enroll(rng);

    benchutil::section("victim enrollment");
    std::printf("  base pairs: %zu, k = %d, key bits: %zu\n", puf.base_pairs().size(), cfg.k,
                enrollment.key.size());

    benchutil::section("isolation surface for key bit 0 (the Fig. 6b pattern)");
    const auto target = pairing::select_pairs(
        puf.base_pairs(), enrollment.helper.masking)[0];
    const auto surface =
        attack::MaskedChainAttack::isolation_surface(g, target.first, target.second, 1000.0);
    benchutil::heatmap(surface.evaluate_grid(g), g.cols, g.rows);
    std::printf("  (extremum between the target pair's columns — the paper's triangle)\n");

    benchutil::section("full key recovery");
    attack::MaskedChainAttack::Victim victim(puf, 63);
    attack::MaskedChainSession session(puf, enrollment.helper);
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    std::printf("  targets attacked : %d\n", result.targets);
    std::printf("  oracle queries   : %lld (%.2f per key bit)\n",
                static_cast<long long>(result.queries),
                static_cast<double>(result.queries) / static_cast<double>(result.targets));
    std::printf("  true key         : %s\n", bits::to_string(enrollment.key).c_str());
    std::printf("  recovered key    : %s\n", bits::to_string(result.recovered_key).c_str());
    const bool ok = result.complete && result.recovered_key == enrollment.key;
    std::printf("  => %s\n", ok ? "FULL KEY RECOVERED" : "attack failed");

    benchutil::section("k sweep (masking depth does not protect)");
    std::printf("  %4s %10s %10s %10s\n", "k", "key bits", "queries", "recovered");
    for (int k : {2, 3, 5, 8}) {
        pairing::MaskedChainConfig kcfg;
        kcfg.k = k;
        const pairing::MaskedChainPuf kpuf(chip, kcfg);
        rng::Xoshiro256pp krng(64);
        const auto kenr = kpuf.enroll(krng);
        attack::MaskedChainAttack::Victim kvictim(kpuf, 65);
        attack::MaskedChainSession ksession(kpuf, kenr.helper);
        auto koracle = attack::make_oracle(kvictim);
        attack::run_to_completion(ksession, koracle);
        const auto& kres = ksession.result();
        std::printf("  %4d %10zu %10lld %10s\n", k, kenr.key.size(),
                    static_cast<long long>(kres.queries),
                    kres.complete && kres.recovered_key == kenr.key ? "FULL" : "no");
    }
    std::printf("\n[shape check] ~4 queries per bit independent of k: masking only\n");
    std::printf("              changes which pairs carry bits, not their exposure.\n");
    return ok ? 0 : 1;
}

// E10 — paper Fig. 6c / Section VI-D: entropy distiller + overlapping chain
// of neighbors. Isolating single bits is impossible with the quadratic
// pattern; 2^4 hypotheses per vertex placement still recover everything.
#include "bench_util.hpp"

#include "ropuf/attack/distiller_attack.hpp"

int main() {
    using namespace ropuf;
    benchutil::header("E10: distiller + overlapping chain attack", "Fig. 6c + Section VI-D",
                      "4 bits per vertex placement are physical; 2^4 hypotheses resolve them");

    // The paper's Fig. 6c array: 4 x 10 ROs, row-major chain (labels 1..40).
    sim::ProcessParams params{};
    params.sigma_noise_mhz = 0.02;
    const sim::ArrayGeometry g{10, 4};
    const sim::RoArray chip(g, params, 71);
    pairing::OverlapChainConfig cfg;
    cfg.ecc_t = 4;
    const pairing::OverlapChainPuf puf(chip, cfg);
    rng::Xoshiro256pp rng(72);
    const auto enrollment = puf.enroll(rng);

    benchutil::section("victim enrollment");
    std::printf("  overlapping pairs / key bits: %zu, BCH(%d,%d,t=%d)\n", enrollment.key.size(),
                puf.code().n(), puf.code().k(), puf.code().t());

    benchutil::section("probe surface with vertex at columns (4,5) — Fig. 6c's pattern");
    const auto probes = attack::OverlapChainAttack::probe_surfaces(g, 1000.0);
    benchutil::heatmap(probes[5].evaluate_grid(g), g.cols, g.rows);
    std::printf("  (extremum column pair marked 0; one undetermined bit per row)\n");

    benchutil::section("full key recovery");
    attack::OverlapChainAttack::Victim victim(puf, 73);
    attack::OverlapChainSession session(puf, enrollment.helper);
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    std::printf("  probes (surface placements) : %d\n", result.probes);
    std::printf("  hypothesis evaluations      : %d\n", result.hypotheses);
    std::printf("  largest simultaneous set    : %d bits (paper: 4 => 2^4 hypotheses)\n",
                result.max_set_size);
    std::printf("  oracle queries              : %lld\n", static_cast<long long>(result.queries));
    std::printf("  true key      : %s\n", bits::to_string(enrollment.key).c_str());
    std::printf("  recovered key : %s\n", bits::to_string(result.recovered_key).c_str());
    const int diff = bits::hamming(result.recovered_key, enrollment.key);
    const bool ok = result.complete && diff <= 1;
    std::printf("  => %s (%d/%zu bits)\n",
                diff == 0 ? "FULL KEY RECOVERED"
                : ok      ? "KEY RECOVERED UP TO ONE METASTABLE BIT"
                          : "attack failed",
                static_cast<int>(enrollment.key.size()) - diff, enrollment.key.size());

    benchutil::section("chain-order variant (serpentine instead of row-major)");
    {
        pairing::OverlapChainConfig scfg;
        scfg.order = pairing::ChainOrder::Serpentine;
        scfg.ecc_t = 4;
        const pairing::OverlapChainPuf spuf(chip, scfg);
        rng::Xoshiro256pp srng(74);
        const auto senr = spuf.enroll(srng);
        attack::OverlapChainAttack::Victim svictim(spuf, 75);
        attack::OverlapChainSession ssession(spuf, senr.helper);
        auto soracle = attack::make_oracle(svictim);
        attack::run_to_completion(ssession, soracle);
        const auto& sres = ssession.result();
        const int sdiff = bits::hamming(sres.recovered_key, senr.key);
        std::printf("  largest set %d bits, queries %lld => %s\n", sres.max_set_size,
                    static_cast<long long>(sres.queries),
                    sres.complete && sdiff <= 1 ? "KEY RECOVERED (<=1 metastable bit)"
                                                : "attack failed");
    }
    std::printf("\n[shape check] row-major max set = 4 (the paper's 2^4); serpentine's\n");
    std::printf("              turn pairs enlarge the first set but recovery still holds.\n");
    return ok ? 0 : 1;
}

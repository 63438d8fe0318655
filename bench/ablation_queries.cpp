// E13 — ablation: attack query complexity.
//
//  * sort-based vs exhaustive pairwise order recovery (group-based attack);
//  * SPRT vs fixed-budget hypothesis decisions;
//  * injected-offset level vs decision quality (why d = t is the sweet spot).
#include "bench_util.hpp"

#include "ropuf/attack/distinguisher.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/seqpair_attack.hpp"

int main() {
    using namespace ropuf;
    benchutil::header("E13: query-complexity ablations", "(design-choice ablations)",
                      "sort-merge beats exhaustive; SPRT beats fixed budget; d = t optimal");

    benchutil::section("group attack: sort-merge vs exhaustive pairwise");
    std::printf("  %8s %12s %14s %12s %10s\n", "array", "mode", "comparisons", "queries",
                "recovered");
    for (const sim::ArrayGeometry g : {sim::ArrayGeometry{10, 4}, sim::ArrayGeometry{16, 8}}) {
        sim::ProcessParams params{};
        params.sigma_noise_mhz = 0.02;
        const sim::RoArray chip(g, params, 1301);
        group::GroupPufConfig cfg;
        cfg.delta_f_th = 0.15;
        const group::GroupBasedPuf puf(chip, cfg);
        rng::Xoshiro256pp rng(1302);
        const auto enrollment = puf.enroll(rng);
        for (auto mode : {attack::GroupBasedAttack::Mode::SortMerge,
                          attack::GroupBasedAttack::Mode::ExhaustivePairs}) {
            attack::GroupBasedAttack::Victim victim(puf, 1303);
            attack::GroupBasedAttack::Config acfg;
            acfg.mode = mode;
            attack::GroupSession session(enrollment.helper, g, puf.code(), acfg);
            auto oracle = attack::make_oracle(victim);
            attack::run_to_completion(session, oracle);
            const auto& result = session.result();
            std::printf("  %4dx%-3d %12s %14d %12lld %10s\n", g.cols, g.rows,
                        mode == attack::GroupBasedAttack::Mode::SortMerge ? "sort-merge"
                                                                          : "exhaustive",
                        result.comparisons, static_cast<long long>(result.queries),
                        result.complete && result.recovered_key == enrollment.key ? "FULL"
                                                                                  : "no");
        }
    }

    benchutil::section("SPRT vs fixed budget (synthetic p0 = 0.05, p1 = 0.95)");
    std::printf("  %14s %14s %14s %12s\n", "decider", "avg queries", "errors/1000", "");
    rng::Xoshiro256pp rng(1304);
    for (const bool use_sprt : {true, false}) {
        std::int64_t queries = 0;
        int errors = 0;
        constexpr int kDecisions = 1000;
        for (int d = 0; d < kDecisions; ++d) {
            const bool truth_is_h1 = rng.bernoulli(0.5);
            const double p = truth_is_h1 ? 0.95 : 0.05;
            if (use_sprt) {
                const auto res = attack::distinguish_sprt(
                    [&] { return rng.bernoulli(p); }, [&] { return rng.bernoulli(1.0 - p); },
                    0.1, 0.9, 0.01, 0.01, 100);
                queries += res.queries;
                errors += (res.best == 1) != truth_is_h1;
            } else {
                const auto res = attack::distinguish_fixed(
                    {[&] { return rng.bernoulli(p); }, [&] { return rng.bernoulli(1.0 - p); }},
                    11);
                queries += res.queries;
                errors += (res.best == 1) != truth_is_h1;
            }
        }
        std::printf("  %14s %14.2f %14d\n", use_sprt ? "SPRT" : "fixed(11)",
                    static_cast<double>(queries) / kDecisions, errors);
    }

    benchutil::section("injected offset d sweep (seq-pairing relation test, t = 3)");
    std::printf("  %4s %18s %18s %12s\n", "d", "P[fail | H0 true]", "P[fail | H1 true]",
                "separation");
    sim::ProcessParams params{};
    params.sigma_random_mhz = 0.3; // shrink LISA's pair gaps into the noisy regime
    params.sigma_noise_mhz = 0.15;
    // Zero the spatial trend: LISA sorts by absolute frequency, so a 5 MHz
    // systematic spread would swamp the random variation and glue every
    // pair gap far above the noise (no observable PDF spread).
    params.gradient_x_mhz = 0.0;
    params.gradient_y_mhz = 0.0;
    params.quad_bow_mhz = 0.0;
    const sim::RoArray chip({16, 8}, params, 1305);
    pairing::SeqPairingConfig dcfg;
    dcfg.delta_f_th = 0.2;
    const pairing::SeqPairingPuf puf(chip, dcfg);
    rng::Xoshiro256pp erng(1306);
    const auto enrollment = puf.enroll(erng);
    // Ground-truth equal / differing partner within block 0.
    int j_eq = -1;
    int j_ne = -1;
    const auto limit = std::min<std::size_t>(enrollment.key.size(),
                                             static_cast<std::size_t>(puf.code().k()));
    for (std::size_t j = 1; j < limit; ++j) {
        if (enrollment.key[j] == enrollment.key[0] && j_eq < 0) j_eq = static_cast<int>(j);
        if (enrollment.key[j] != enrollment.key[0] && j_ne < 0) j_ne = static_cast<int>(j);
    }
    for (int d = 0; d <= puf.code().t() + 1; ++d) {
        stats::Proportion p0;
        stats::Proportion p1;
        rng::Xoshiro256pp nrng(1307);
        const auto h_eq =
            attack::SeqPairingAttack::make_swap_helper(enrollment.helper, puf.code(), 0, j_eq, d);
        const auto h_ne =
            attack::SeqPairingAttack::make_swap_helper(enrollment.helper, puf.code(), 0, j_ne, d);
        for (int trial = 0; trial < 400; ++trial) {
            const auto r0 = puf.reconstruct(h_eq, nrng);
            p0.add(!r0.ok || r0.key != enrollment.key);
            const auto r1 = puf.reconstruct(h_ne, nrng);
            p1.add(!r1.ok || r1.key != enrollment.key);
        }
        std::printf("  %4d %18.3f %18.3f %12.3f\n", d, p0.rate(), p1.rate(),
                    p1.rate() - p0.rate());
    }
    std::printf("\n[shape check] separation is maximal at intermediate d (d = t for quiet\n              devices, lower d when baseline noise already fills the budget),\n");
    std::printf("              and collapses at d = 0 (both pass) and d > t (both fail).\n");
    return 0;
}

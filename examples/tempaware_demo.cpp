// tempaware_demo: the temperature-aware cooperative RO PUF across its
// operating range, then the Section VI-B relation-recovery attack.
#include <cstdio>

#include "ropuf/attack/tempaware_attack.hpp"

int main() {
    using namespace ropuf;

    sim::ProcessParams params{};
    params.tempco_sigma = 0.015; // crossover-rich silicon
    const sim::RoArray chip({16, 16}, params, 2009);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    const tempaware::TempAwarePuf puf(chip, cfg);
    rng::Xoshiro256pp rng(7);
    const auto enrollment = puf.enroll(rng);

    int good = 0;
    int bad = 0;
    int coop = 0;
    for (const auto& rec : enrollment.helper.records) {
        good += rec.cls == tempaware::PairClass::Good;
        bad += rec.cls == tempaware::PairClass::Bad;
        coop += rec.cls == tempaware::PairClass::Cooperating;
    }
    std::printf("classification over [%.0f, %.0f] C (Fig. 3): good=%d bad=%d coop=%d\n",
                cfg.classification.t_min, cfg.classification.t_max, good, bad, coop);
    std::printf("key: %zu bits\n", enrollment.key.size());

    std::puts("\ntemperature sweep (honest helper data):");
    for (double t : {-15.0, 5.0, 25.0, 45.0, 65.0, 82.0}) {
        int ok = 0;
        for (int trial = 0; trial < 10; ++trial) {
            const auto rec = puf.reconstruct(enrollment.helper, t, rng);
            ok += rec.ok && rec.key == enrollment.key;
        }
        std::printf("  T = %+6.1f C : %2d/10 regenerations OK\n", t, ok);
    }

    std::puts("\nSection VI-B attack at T = 25 C:");
    attack::TempAwareAttack::Victim victim(puf, enrollment.key, 25.0, 8);
    attack::TempAwareSession session(enrollment.helper, puf.code(), victim.ambient_c());
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    std::printf("  relation tests : %d\n", result.relation_tests);
    std::printf("  oracle queries : %lld\n", static_cast<long long>(result.queries));
    if (result.resolved) {
        std::printf("  recovered key  : %s\n", bits::to_string(result.recovered_key).c_str());
        std::printf("  => %s\n", result.recovered_key == enrollment.key
                                     ? "FULL KEY RECOVERED (paper extension: good pairs too)"
                                     : "mismatch");
    } else {
        std::puts("  => attack unresolved (too few cooperating pairs at this seed)");
    }
    return 0;
}

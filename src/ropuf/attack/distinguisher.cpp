#include "ropuf/attack/distinguisher.hpp"

#include <algorithm>
#include <cassert>

namespace ropuf::attack {

DistinguishResult distinguish_fixed(const std::vector<HypothesisProbe>& probes, int budget,
                                    double alpha) {
    assert(!probes.empty());
    DistinguishResult out;
    out.rates.resize(probes.size());
    for (std::size_t h = 0; h < probes.size(); ++h) {
        for (int q = 0; q < budget; ++q) {
            out.rates[h].add(probes[h]());
            ++out.queries;
        }
    }
    // Accept the lowest failure rate; report confidence vs the runner-up.
    std::size_t best = 0;
    for (std::size_t h = 1; h < probes.size(); ++h) {
        if (out.rates[h].rate() < out.rates[best].rate()) best = h;
    }
    out.best = static_cast<int>(best);
    double best_p = 1.0;
    for (std::size_t h = 0; h < probes.size(); ++h) {
        if (h == best) continue;
        best_p = std::min(best_p, 1.0);
        const double p = stats::two_proportion_p_value(out.rates[best], out.rates[h]);
        best_p = std::min(best_p, p);
    }
    // With a single hypothesis there is nothing to compare against.
    out.p_value = probes.size() > 1 ? best_p : 0.0;
    out.confident = out.p_value < alpha;
    return out;
}

DistinguishResult distinguish_sprt(const HypothesisProbe& h0_probe,
                                   const HypothesisProbe& h1_probe, double p_low, double p_high,
                                   double alpha, double beta, int max_queries) {
    DistinguishResult out;
    out.rates.resize(2);
    // Test the H0 manipulation: under "H0 correct" its failure prob is p_low,
    // under "H0 incorrect" it is p_high. Accepting the SPRT's H1 branch means
    // the probe's failure rate is high, i.e. hypothesis 1 is the truth.
    stats::Sprt sprt(p_low, p_high, alpha, beta);
    while (sprt.decision() == stats::Sprt::Decision::Continue &&
           sprt.observations() < max_queries) {
        const bool failed = h0_probe();
        out.rates[0].add(failed);
        ++out.queries;
        sprt.feed(failed);
    }
    if (sprt.decision() == stats::Sprt::Decision::AcceptH0) {
        out.best = 0;
        out.confident = true;
        out.p_value = alpha;
        return out;
    }
    if (sprt.decision() == stats::Sprt::Decision::AcceptH1) {
        // Confirm with the complementary manipulation (cheap cross-check).
        const bool confirm_failed = h1_probe();
        out.rates[1].add(confirm_failed);
        ++out.queries;
        out.best = 1;
        out.confident = true;
        out.p_value = alpha;
        return out;
    }
    // Undecided within budget: fall back to rate comparison of both probes.
    for (int q = 0; q < 8; ++q) {
        out.rates[1].add(h1_probe());
        ++out.queries;
    }
    out.best = out.rates[0].rate() <= out.rates[1].rate() ? 0 : 1;
    out.p_value = stats::two_proportion_p_value(out.rates[0], out.rates[1]);
    out.confident = false;
    return out;
}

MajorityResult majority_probe(const HypothesisProbe& probe, int wins, int max_queries) {
    MajorityResult out;
    int failures = 0;
    int passes = 0;
    while (failures < wins && passes < wins && out.queries < max_queries) {
        if (probe()) {
            ++failures;
        } else {
            ++passes;
        }
        ++out.queries;
    }
    out.failed = failures >= passes;
    return out;
}

} // namespace ropuf::attack

// Hypothesis distinguishing by failure-rate observation — the statistical
// framework of paper Section VI and Fig. 5.
//
// "For each iteration, two or more hypotheses H_i provide a statement about
// the bits of concern, of which exactly one is correct. Every hypothesis
// corresponds with a specific manipulation of the public helper data. We
// exploit differences in key regeneration failure rate to assess their
// correctness."
//
// Each hypothesis is presented as a thunk that performs one oracle query with
// that hypothesis's helper data and returns whether regeneration failed. Two
// decision procedures are provided: a fixed per-hypothesis budget and Wald's
// SPRT (query-optimal). Their users are the E13 ablation and the tests; the
// attack sessions decide with CoroSession::any_pass (attack/session.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ropuf/stats/estimators.hpp"
#include "ropuf/stats/sprt.hpp"

namespace ropuf::attack {

/// One oracle query under a fixed hypothesis; returns true on failure.
using HypothesisProbe = std::function<bool()>;

struct DistinguishResult {
    int best = -1;                         ///< index of the accepted hypothesis
    std::vector<stats::Proportion> rates;  ///< observed failure rates
    std::int64_t queries = 0;              ///< oracle queries spent
    double p_value = 1.0;                  ///< best-vs-runner-up two-proportion test
    bool confident = false;                ///< p_value below the requested alpha
};

/// Queries every hypothesis `budget` times and accepts the one with the
/// lowest failure rate (the correct hypothesis does not add errors, so its
/// failure PDF sits left of the others — Fig. 5).
DistinguishResult distinguish_fixed(const std::vector<HypothesisProbe>& probes, int budget,
                                    double alpha = 0.05);

/// Binary SPRT between exactly two hypotheses. `p_low`/`p_high` are the
/// design failure probabilities of the correct / incorrect hypothesis (after
/// error injection). Falls back to the fixed-budget majority when the SPRT
/// has not decided within `max_queries`.
DistinguishResult distinguish_sprt(const HypothesisProbe& h0_probe,
                                   const HypothesisProbe& h1_probe, double p_low, double p_high,
                                   double alpha, double beta, int max_queries);

/// Repeats a single probe until `wins` successes or failures accumulate for
/// one side; returns true when failures dominate. Used for near-deterministic
/// separations (injected-offset attacks), where 3 queries typically decide.
struct MajorityResult {
    bool failed = false;
    std::int64_t queries = 0;
};
MajorityResult majority_probe(const HypothesisProbe& probe, int wins = 2, int max_queries = 25);

} // namespace ropuf::attack

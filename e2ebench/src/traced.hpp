// The traced run's trial rebuild: one registry trial re-assembled from the
// library's public constructors, with a timer around every call into a
// layer; and the enrollment part of it on its own.
#pragma once

#include <string>

#include "bench.hpp"
#include "ropuf/core/attack_engine.hpp"

namespace e2e {

/// Runs `scenario` once with `params` (params.seed is the trial seed) the
/// way the registry does, timing each layer into `acc`. The rebuilt trial
/// must reproduce `reference` — the registry's report for the same trial —
/// in queries, measurements, refused and accuracy; a divergence is appended
/// to acc.parity_errors. `spans` adds per-batch trace spans below the trial.
void run_traced_trial(const std::string& scenario, const ropuf::core::ScenarioParams& params,
                      const ropuf::core::AttackReport& reference, LayerTotals& acc, bool spans);

/// Manufactures the chip of the same trial and enrolls it, as the registry
/// does, and stops there: the enrollment replay of the untraced run.
void enroll_trial(const std::string& scenario, const ropuf::core::ScenarioParams& params);

} // namespace e2e

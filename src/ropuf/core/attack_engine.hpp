// Construction-agnostic attack engine.
//
// Every attack in the paper is, operationally, the same experiment: pick a
// construction, enroll a victim device, hand the attacker the public helper
// NVM and the failure oracle, and count queries until the key falls. The
// ScenarioRegistry names each such experiment (construction x attack x
// parameter grid) once; benches, examples and tests enumerate the registry
// instead of hand-rolling the setup, and every run reports the same
// AttackReport (queries, recovered-bit accuracy, wall time) so scenarios are
// comparable across constructions — the paper's Table "attack cost" view as
// an API.
//
// The registry itself is construction- and attack-agnostic: scenarios are
// registered from the attack layer (ropuf/attack/scenarios.hpp), keeping the
// dependency direction sim -> constructions -> core -> attacks intact.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ropuf/bits/bitvec.hpp"

namespace ropuf::core {

/// Knobs every scenario understands. A default-constructed value reproduces
/// the scenario's paper-matched setup; benches sweep individual fields.
struct ScenarioParams {
    std::uint64_t seed = 1;        ///< master seed (chip/enroll/victim derive from it)
    int cols = 0;                  ///< 0 = scenario default geometry
    int rows = 0;
    double sigma_noise_mhz = -1.0; ///< < 0 = scenario default measurement noise
    double ambient_c = 25.0;       ///< victim operating temperature
    int majority_wins = 0;         ///< 0 = attack default decision redundancy
    int ecc_m = 0;                 ///< 0 = construction default BCH field degree (n = 2^m - 1)
    int ecc_t = 0;                 ///< 0 = construction default corrected errors per block
    std::int64_t query_budget = 0; ///< hard oracle query budget; 0 = unlimited
    std::string defense;           ///< device-side countermeasure token, e.g. "sanity",
                                   ///< "mac", "lockout(8)"; empty or "none" = undefended
                                   ///< (resolved by ropuf::defense::default_registry())
    bool trace = false;            ///< record a queries-vs-accuracy progress trace
};

/// How a scenario run ended.
enum class AttackOutcome {
    recovered,          ///< exact full-key recovery
    gave_up,            ///< attack completed without the full key (incl. negative results)
    budget_exhausted,   ///< the query budget cut the attack short
    refused_by_defense, ///< a defended oracle refused probes and the key survived
    locked_out,         ///< the device bricked itself (lockout / rate-limit tripped)
};

std::string_view to_string(AttackOutcome outcome);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
AttackOutcome outcome_from_string(std::string_view name);

/// One point of a progress trace: cumulative oracle queries vs recovered-bit
/// accuracy of the attack's partial key at that moment.
struct ProgressPoint {
    std::int64_t queries = 0;
    double accuracy = 0.0;
};

/// Uniform outcome of one scenario run.
struct AttackReport {
    std::string scenario;      ///< registry name (filled by the engine)
    std::string construction;  ///< DeviceTraits kind
    std::string attack;        ///< attack identifier
    std::string paper_ref;     ///< paper section / figure
    int key_bits = 0;          ///< enrolled key length
    std::int64_t queries = 0;  ///< oracle queries spent
    std::int64_t measurements = 0; ///< oscillator measurements (queries x cost)
    std::int64_t refused = 0;  ///< probes a defense refused (subset of queries)
    double accuracy = 0.0;     ///< recovered-bit accuracy against the true key
    bool key_recovered = false;///< exact full-key recovery
    bool complete = false;     ///< the attack's own completion flag
    AttackOutcome outcome = AttackOutcome::gave_up; ///< how the run ended
    double wall_ms = 0.0;      ///< wall-clock time of the run (filled by the engine)
    std::string notes;         ///< scenario-specific remarks
    std::vector<ProgressPoint> trace; ///< optional progress trace (empty = untraced)
};

/// One registered experiment.
struct Scenario {
    std::string name;         ///< "construction/attack", e.g. "seqpair/swap"
    std::string construction; ///< DeviceTraits kind
    std::string attack;
    std::string paper_ref;
    std::string description;
    std::function<AttackReport(const ScenarioParams&)> run;
    /// Defense token *names* this scenario can honor: empty = any
    /// registered defense. Scenarios that bypass the oracle stack
    /// ({"none"}) or pin a defense ({"none", "sanity"} for the deprecated
    /// -defended aliases) declare it here so the xp planner can reject an
    /// incompatible (scenario, defense) grid point at plan time instead of
    /// aborting — and permanently wedging resume of — a half-finished
    /// sweep; `run` still throws as the backstop.
    /// Defaulted so registration sites may omit it (the common "any
    /// defense" case) without tripping -Wmissing-field-initializers
    /// under the -Werror CI legs.
    std::vector<std::string> allowed_defenses = {};
};

class ScenarioRegistry {
public:
    /// The process-wide registry. Starts empty; the attack layer's
    /// ropuf::attack::default_registry() populates it with the builtins.
    static ScenarioRegistry& instance();

    /// Registers a new scenario; throws std::invalid_argument when a
    /// scenario with the same name already exists. Silent duplicates used to
    /// be replaced, which masked double-registration bugs — intentional
    /// re-registration goes through add_or_replace.
    void add(Scenario scenario);

    /// Registers a scenario, replacing an existing one with the same name
    /// (idempotent re-registration).
    void add_or_replace(Scenario scenario);

    const Scenario* find(std::string_view name) const;
    const std::vector<Scenario>& scenarios() const { return scenarios_; }
    std::vector<std::string> names() const;
    std::size_t size() const { return scenarios_.size(); }

private:
    std::vector<Scenario> scenarios_;
};

/// Runs registered scenarios and stamps the uniform report fields.
class AttackEngine {
public:
    explicit AttackEngine(const ScenarioRegistry& registry) : registry_(&registry) {}

    /// Runs one scenario by name; throws std::out_of_range for unknown names,
    /// naming the request and the closest registered scenario.
    AttackReport run(std::string_view name, const ScenarioParams& params = {}) const;

    /// Runs every registered scenario in registration order.
    std::vector<AttackReport> run_all(const ScenarioParams& params = {}) const;

private:
    const ScenarioRegistry* registry_;
};

/// Runs one resolved scenario and stamps the uniform report fields
/// (identity + wall time). Shared by AttackEngine and CampaignRunner; safe
/// to call concurrently — scenarios hold no shared mutable state.
AttackReport run_scenario(const Scenario& scenario, const ScenarioParams& params);

/// Fraction of `truth` bits the recovered key reproduces (position-wise;
/// missing positions count as wrong). Empty truth yields 0.
double bit_accuracy(const bits::BitVec& recovered, const bits::BitVec& truth);

/// The candidate with the smallest edit distance to `name` (ties: first), or
/// empty when `candidates` is empty. Shared by every "unknown name" error
/// path (engine, CLI, sweep-spec keys) to turn typos into suggestions.
std::string closest_match(std::string_view name, const std::vector<std::string>& candidates);

/// Formats "unknown <what>: '<name>'" plus a "did you mean" suffix when a
/// plausible candidate exists.
std::string unknown_name_message(std::string_view what, std::string_view name,
                                 const std::vector<std::string>& candidates);

/// One-line JSON object for machine consumption (BENCH_*.json emitters).
std::string to_json(const AttackReport& report);

/// Fixed-width table rendering for benches and demos.
std::string report_table_header();
std::string report_table_row(const AttackReport& report);

} // namespace ropuf::core

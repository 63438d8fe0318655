#include "ropuf/attack/scenarios.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "ropuf/attack/distiller_attack.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/masking_attack.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/attack/tempaware_attack.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/fuzzy/fuzzy_extractor.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/pairing/neighbor_chain.hpp"

namespace ropuf::attack {

namespace {

using core::AttackReport;
using core::ScenarioParams;

/// Derived sub-seeds: chip manufacture, enrollment noise and victim noise
/// must be independent streams of the one master seed.
std::uint64_t sub_seed(const ScenarioParams& p, std::uint64_t stream) {
    return p.seed * 0x9e3779b97f4a7c15ull + stream;
}

sim::ArrayGeometry geometry_or(const ScenarioParams& p, sim::ArrayGeometry fallback) {
    if (p.cols > 0 && p.rows > 0) return {p.cols, p.rows};
    return fallback;
}

sim::ProcessParams process_or(const ScenarioParams& p, sim::ProcessParams fallback) {
    if (p.sigma_noise_mhz >= 0.0) fallback.sigma_noise_mhz = p.sigma_noise_mhz;
    return fallback;
}

/// Applies the uniform ECC knob to any construction config carrying the
/// shared ecc_m/ecc_t fields (all five constructions do).
template <typename Config>
void apply_ecc(const ScenarioParams& p, Config& cfg) {
    if (p.ecc_m > 0) cfg.ecc_m = p.ecc_m;
    if (p.ecc_t > 0) cfg.ecc_t = p.ecc_t;
}

/// Quiet process matching the distiller/group test setups.
sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

/// Tempco-rich process for the HOST'09 construction (crossovers must be
/// common enough that cooperation is worth building).
sim::ProcessParams crossover_rich_params() {
    sim::ProcessParams p{};
    p.tempco_sigma = 0.015;
    return p;
}

/// The middleware stack a scenario drives its session against. The concrete
/// middleware handles stay accessible for outcome classification.
struct OracleStack {
    core::AnyOracle oracle;
    defense::AppliedDefense applied; ///< null handle when undefended
    std::shared_ptr<core::BudgetedOracle> budget;
};

/// victim <- [defense from the registry, when named] <- [budget when set];
/// innermost first. The countermeasure gets everything the construction can
/// offer (make_defense_context), with a defense-side seed stream independent
/// of chip/enroll/victim noise.
template <core::Device Puf>
OracleStack build_stack(Victim<Puf>& victim, const Puf& puf,
                        const typename core::DeviceTraits<Puf>::Helper& enrolled,
                        const ScenarioParams& p) {
    OracleStack stack;
    stack.oracle = make_oracle(victim);
    if (!p.defense.empty() && p.defense != "none") {
        stack.applied = defense::apply_defense(
            p.defense, stack.oracle, make_defense_context(puf, enrolled, sub_seed(p, 4)));
        stack.oracle = stack.applied.oracle;
    }
    if (p.query_budget > 0) {
        stack.budget = std::make_shared<core::BudgetedOracle>(stack.oracle, p.query_budget);
        stack.oracle = core::AnyOracle(stack.budget);
    }
    return stack;
}

/// Runs the session to completion (or budget) and fills the uniform report
/// fields, including the outcome classification and the optional trace.
AttackReport drive(Session& session, OracleStack& stack, const ScenarioParams& p,
                   const bits::BitVec& truth) {
    AttackReport report;
    std::vector<core::ProgressPoint> trace;
    run_to_completion(session, stack.oracle, p.trace ? &truth : nullptr,
                      p.trace ? &trace : nullptr);

    const auto stats = stack.oracle.stats();
    if (obs::Registry* reg = obs::registry()) {
        // Per-defense-token oracle traffic. Tokens are few (one per matrix
        // column) and change per trial at most, so the locked name intern
        // here is off every inner loop.
        const std::string token =
            (p.defense.empty() || p.defense == "none") ? "none" : p.defense;
        reg->add(reg->counter("oracle.queries{defense=" + token + "}"),
                 static_cast<double>(stats.queries));
        reg->add(reg->counter("oracle.measurements{defense=" + token + "}"),
                 static_cast<double>(stats.measurements));
        reg->add(reg->counter("oracle.refused{defense=" + token + "}"),
                 static_cast<double>(stats.refused));
        if (stack.applied.locked()) {
            reg->add(reg->counter("oracle.lockouts{defense=" + token + "}"), 1.0);
        }
    }
    const auto key = session.partial_key();
    const bool resolved = session.done() && session.resolved();
    report.key_bits = static_cast<int>(truth.size());
    report.queries = stats.queries;
    report.measurements = stats.measurements;
    report.refused = stats.refused;
    report.accuracy = core::bit_accuracy(key, truth);
    report.key_recovered = resolved && key == truth;
    report.complete = resolved;
    report.notes = session.notes();
    report.trace = std::move(trace);
    if (report.key_recovered) {
        report.outcome = core::AttackOutcome::recovered;
    } else if (stack.budget && stack.budget->exhausted()) {
        report.outcome = core::AttackOutcome::budget_exhausted;
    } else if (stack.applied.locked()) {
        report.outcome = core::AttackOutcome::locked_out;
    } else if (stack.applied.refused() > 0) {
        report.outcome = core::AttackOutcome::refused_by_defense;
    } else {
        report.outcome = core::AttackOutcome::gave_up;
    }
    return report;
}

AttackReport run_seqpair_swap(const ScenarioParams& p, helperdata::PairOrderPolicy policy) {
    const sim::RoArray chip(geometry_or(p, {16, 8}), process_or(p, sim::ProcessParams{}),
                            sub_seed(p, 1));
    pairing::SeqPairingConfig dcfg;
    dcfg.policy = policy;
    apply_ecc(p, dcfg);
    const pairing::SeqPairingPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);

    SeqPairingAttack::Victim victim(puf, enrollment.key, sub_seed(p, 3));
    SeqPairingAttack::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    SeqPairingSession session(enrollment.helper, puf.code(), cfg);
    auto stack = build_stack(victim, puf, enrollment.helper, p);
    return drive(session, stack, p, enrollment.key);
}

AttackReport run_tempaware_substitution(const ScenarioParams& p) {
    const sim::RoArray chip(geometry_or(p, {16, 16}), process_or(p, crossover_rich_params()),
                            sub_seed(p, 1));
    tempaware::TempAwareConfig dcfg;
    dcfg.classification = {-20.0, 85.0, 0.2};
    dcfg.enroll_samples = 64;
    apply_ecc(p, dcfg);
    const tempaware::TempAwarePuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);

    TempAwareAttack::Victim victim(puf, enrollment.key, p.ambient_c, sub_seed(p, 3));
    TempAwareAttack::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    TempAwareSession session(enrollment.helper, puf.code(), victim.ambient_c(), cfg);
    auto stack = build_stack(victim, puf, enrollment.helper, p);
    return drive(session, stack, p, enrollment.key);
}

AttackReport run_group(const ScenarioParams& p, GroupBasedAttack::Mode mode,
                       bool adaptive = false) {
    const sim::RoArray chip(geometry_or(p, {10, 4}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    group::GroupPufConfig dcfg;
    dcfg.delta_f_th = 0.15;
    apply_ecc(p, dcfg);
    const group::GroupBasedPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);

    GroupBasedAttack::Victim victim(puf, sub_seed(p, 3));
    GroupBasedAttack::Config cfg;
    cfg.mode = mode;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    GroupSession session(enrollment.helper, chip.geometry(), puf.code(), cfg);
    auto stack = build_stack(victim, puf, enrollment.helper, p);
    return drive(session, stack, p, enrollment.key);
}

AttackReport run_masked_chain_distiller(const ScenarioParams& p, bool adaptive = false) {
    const sim::RoArray chip(geometry_or(p, {20, 8}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    pairing::MaskedChainConfig dcfg;
    apply_ecc(p, dcfg);
    const pairing::MaskedChainPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);

    MaskedChainAttack::Victim victim(puf, sub_seed(p, 3));
    MaskedChainAttack::Config cfg;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    MaskedChainSession session(puf, enrollment.helper, cfg);
    auto stack = build_stack(victim, puf, enrollment.helper, p);
    return drive(session, stack, p, enrollment.key);
}

AttackReport run_masked_chain_probe(const ScenarioParams& p) {
    const sim::RoArray chip(geometry_or(p, {20, 8}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    pairing::MaskedChainConfig dcfg;
    apply_ecc(p, dcfg);
    const pairing::MaskedChainPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);

    SelectionSubstitutionProbe::Victim victim(puf, enrollment.key, sub_seed(p, 3));
    SelectionSubstitutionProbe::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    // Deliberately key-free: the probe quantifies why selection substitution
    // alone cannot recover the key (one unresolved bit per group remains) —
    // partial_key() stays empty, so accuracy reads 0 by construction.
    SelectionProbeSession session(enrollment.helper, puf.code(), cfg);
    auto stack = build_stack(victim, puf, enrollment.helper, p);
    AttackReport report = drive(session, stack, p, enrollment.key);
    report.complete =
        session.done() && session.result().groups.size() == enrollment.key.size();
    return report;
}

AttackReport run_overlap_chain_distiller(const ScenarioParams& p, bool adaptive = false) {
    const sim::RoArray chip(geometry_or(p, {10, 4}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    pairing::OverlapChainConfig dcfg;
    apply_ecc(p, dcfg);
    const pairing::OverlapChainPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);

    OverlapChainAttack::Victim victim(puf, sub_seed(p, 3));
    OverlapChainAttack::Config cfg;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    OverlapChainSession session(puf, enrollment.helper, cfg);
    auto stack = build_stack(victim, puf, enrollment.helper, p);
    return drive(session, stack, p, enrollment.key);
}

AttackReport run_fuzzy_reference(const ScenarioParams& p) {
    // The paper's Section VII reference solution measured through the same
    // engine: helper manipulation against a code-offset fuzzy extractor is a
    // structurally negative result — every offset-bit flip shifts the key
    // identically for any secret, so the failure observable carries no
    // per-bit hypothesis. The scenario quantifies both halves: honest-helper
    // reliability parity, and manipulation yielding only response-independent
    // key shifts.
    //
    // The reference construction bypasses the oracle machinery entirely (it
    // measures the extractor directly), so a requested countermeasure would
    // never be interposed — refuse rather than emit a record whose defense
    // label never ran.
    if (!p.defense.empty() && p.defense != "none") {
        throw std::invalid_argument(
            "fuzzy/reference measures the extractor directly and cannot run "
            "with defense=" + p.defense + " — drop it from the sweep for this scenario");
    }
    const sim::RoArray chip(geometry_or(p, {16, 8}), process_or(p, sim::ProcessParams{}),
                            sub_seed(p, 1));
    const sim::Condition ambient{p.ambient_c, 1.20};
    const auto pairs = pairing::neighbor_chain(chip.geometry(), pairing::ChainOrder::Serpentine,
                                               pairing::ChainOverlap::Overlapping);
    const ecc::BchCode code(p.ecc_m > 0 ? p.ecc_m : 6, p.ecc_t > 0 ? p.ecc_t : 5);
    const fuzzy::FuzzyExtractor fe(code);

    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enroll_freqs = chip.enroll_frequencies(ambient, 32, rng);
    const auto response = pairing::evaluate_pairs(pairs, enroll_freqs);
    const auto enrollment = fe.enroll(response, rng);

    rng::Xoshiro256pp victim_rng(sub_seed(p, 3));
    std::int64_t queries = 0;
    const auto regenerate = [&](const fuzzy::FuzzyHelper& helper) {
        ++queries;
        const auto noisy =
            pairing::evaluate_pairs(pairs, chip.measure_all(ambient, victim_rng));
        return fe.reconstruct(noisy, helper);
    };

    const int reliability_trials = p.majority_wins > 0 ? p.majority_wins : 50;
    int honest_ok = 0;
    for (int trial = 0; trial < reliability_trials; ++trial) {
        const auto rec = regenerate(enrollment.helper);
        honest_ok += rec.ok && rec.key == enrollment.key;
    }

    // One probe per offset stride: flipped helper bits must keep decoding
    // (shifted key) or fail — never reveal which hypothesis a response bit
    // satisfies.
    int probes = 0;
    int response_independent = 0;
    for (std::size_t pos = 0; pos < enrollment.helper.offset.size();
         pos += static_cast<std::size_t>(code.n())) {
        auto tampered = enrollment.helper;
        bits::flip(tampered.offset, pos);
        const auto rec = regenerate(tampered);
        response_independent += !rec.ok || rec.key != enrollment.key;
        ++probes;
    }

    AttackReport report;
    report.key_bits = static_cast<int>(enrollment.key.size() * 8);
    report.queries = queries;
    report.measurements = queries * chip.count();
    report.accuracy = 0.0;
    report.key_recovered = false;
    report.complete = probes > 0;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "negative by design: %d/%d honest regens ok, %d/%d flips response-independent",
                  honest_ok, reliability_trials, response_independent, probes);
    report.notes = buf;
    return report;
}

} // namespace

void register_builtin_scenarios(core::ScenarioRegistry& registry) {
    registry.add_or_replace({"seqpair/swap", "seqpair", "pair-swap + ECC rewrite", "VI-A/Fig.5",
                  "Swap stored pair order to test r_i = r_j, settle the final two "
                  "candidates via rewritten ECC helper data.",
                  [](const ScenarioParams& p) {
                      return run_seqpair_swap(p, helperdata::PairOrderPolicy::Randomized);
                  }});
    registry.add_or_replace({"seqpair/swap-sorted", "seqpair", "storage-order leak", "VII-C",
                  "Same attack against a device whose enrollment stored pairs "
                  "sorted by frequency: the key leaks with a handful of queries.",
                  [](const ScenarioParams& p) {
                      return run_seqpair_swap(p, helperdata::PairOrderPolicy::SortedByFrequency);
                  }});
    registry.add_or_replace({"tempaware/substitution", "tempaware", "assistance substitution", "VI-B",
                  "Widen a cooperating pair's crossover interval over the ambient "
                  "temperature and substitute assistants/masks to read relations.",
                  run_tempaware_substitution});
    registry.add_or_replace({"group/sortmerge", "group", "distiller injection + repartition", "VI-C/Fig.6a",
                  "Remote residual comparator (steep plane + 2-RO repartition + "
                  "reprogrammed key); merge-sorts every enrolled group.",
                  [](const ScenarioParams& p) {
                      return run_group(p, GroupBasedAttack::Mode::SortMerge);
                  }});
    registry.add_or_replace({"group/exhaustive", "group", "all-pairs comparator", "VI-C (E13)",
                  "Same comparator, exhaustive g(g-1)/2 pairwise bits per group "
                  "(the query-cost ablation).",
                  [](const ScenarioParams& p) {
                      return run_group(p, GroupBasedAttack::Mode::ExhaustivePairs);
                  }});
    registry.add_or_replace({"maskedchain/distiller", "maskedchain", "isolation surfaces", "VI-D/Fig.6b",
                  "Quadratic isolation surface per selected pair forces every other "
                  "bit; two hypotheses per key bit.",
                  [](const ScenarioParams& p) { return run_masked_chain_distiller(p); }});
    registry.add_or_replace({"maskedchain/probe", "maskedchain", "selection substitution", "VI-D (neg.)",
                  "Re-points 1-out-of-k selections to recover intra-group relations "
                  "only — demonstrates why this alone never recovers the key.",
                  run_masked_chain_probe});
    registry.add_or_replace({"overlapchain/distiller", "overlapchain", "multi-bit hypotheses", "VI-D/Fig.6c",
                  "Probe surfaces leave small undetermined bit sets; enumerate 2^u "
                  "assignments with reprogrammed ECC redundancy.",
                  [](const ScenarioParams& p) { return run_overlap_chain_distiller(p); }});
    registry.add_or_replace({"fuzzy/reference", "fuzzy", "manipulation probe (negative)",
                  "VII/Fig.7",
                  "Code-offset fuzzy extractor reference: helper flips shift the "
                  "key response-independently, so no per-bit failure hypothesis "
                  "exists — the paper's recommended fix, measured as a scenario.",
                  run_fuzzy_reference,
                  /*allowed_defenses=*/{"none"}});

    // Adaptive variants of the distiller attacks: detect a blanket-refusal
    // pattern (a validating defense fails every steep-surface hypothesis),
    // fall back to structure-preserving plausibility-capped surfaces that
    // pass the Section VII checks, and stop spending queries when even those
    // die (a MAC-bound or bricked device). The attacker's answer in the
    // arms race the defense registry opens.
    registry.add_or_replace(
        {"group/sortmerge-adaptive", "group", "capped-plane fallback comparator", "VI-C/VII",
         "group/sortmerge that detects refusal patterns and re-injects with "
         "plausibility-capped planes — beats validation-only defenses that "
         "stop the steep-surface original.",
         [](const ScenarioParams& p) {
             return run_group(p, GroupBasedAttack::Mode::SortMerge, /*adaptive=*/true);
         }});
    registry.add_or_replace(
        {"maskedchain/distiller-adaptive", "maskedchain",
         "capped isolation-surface fallback", "VI-D/VII",
         "maskedchain/distiller with constant-free, plausibility-capped "
         "isolation surfaces as the refusal fallback.",
         [](const ScenarioParams& p) {
             return run_masked_chain_distiller(p, /*adaptive=*/true);
         }});
    registry.add_or_replace(
        {"overlapchain/distiller-adaptive", "overlapchain",
         "capped probe-surface fallback", "VI-D/VII",
         "overlapchain/distiller with constant-free, plausibility-capped "
         "probe surfaces as the refusal fallback.",
         [](const ScenarioParams& p) {
             return run_overlap_chain_distiller(p, /*adaptive=*/true);
         }});

    // DEPRECATED aliases. PR 4 registered five hand-written "-defended"
    // twins (the same experiment with a SanityCheckingOracle interposed);
    // that axis is now general — any scenario crosses with any registered
    // countermeasure via ScenarioParams::defense / the sweep-spec `defense`
    // key. The old names survive as thin aliases that pin defense=sanity so
    // existing specs, scripts and result files keep their meaning; new work
    // should sweep `defense = sanity` against the base scenario instead.
    struct DefendedAlias {
        const char* name;
        const char* base;
        const char* construction;
        const char* attack;
        const char* paper_ref;
    };
    const DefendedAlias aliases[] = {
        {"seqpair/swap-defended", "seqpair/swap", "seqpair",
         "pair-swap + ECC rewrite (defended)", "VI-A/VII"},
        {"tempaware/substitution-defended", "tempaware/substitution", "tempaware",
         "assistance substitution (defended)", "VI-B/VII"},
        {"group/sortmerge-defended", "group/sortmerge", "group",
         "distiller injection (defended)", "VI-C/VII"},
        {"maskedchain/distiller-defended", "maskedchain/distiller", "maskedchain",
         "isolation surfaces (defended)", "VI-D/VII"},
        {"overlapchain/distiller-defended", "overlapchain/distiller", "overlapchain",
         "multi-bit hypotheses (defended)", "VI-D/VII"},
    };
    for (const auto& alias : aliases) {
        const std::string base = alias.base;
        const std::string name = alias.name;
        // Resolve the base scenario eagerly (it is registered above) and
        // capture its run function by value: the alias stays valid even if
        // the registry is copied or outlived — no self-reference.
        auto base_run = registry.find(base)->run;
        registry.add_or_replace(
            {alias.name, alias.construction, alias.attack, alias.paper_ref,
             "DEPRECATED alias of '" + base +
                 "' with defense=sanity — use the defense axis instead.",
             [base_run, base, name](const ScenarioParams& p) {
                 // The alias IS a pinned defense; crossing it with a
                 // different token would run sanity while the record claims
                 // the other defense. Fail loudly instead of mislabeling.
                 if (!p.defense.empty() && p.defense != "none" && p.defense != "sanity") {
                     throw std::invalid_argument(
                         "'" + name + "' pins defense=sanity and cannot run with defense=" +
                         p.defense + " — sweep '" + base + "' with the defense axis instead");
                 }
                 ScenarioParams dp = p;
                 dp.defense = "sanity";
                 return base_run(dp);
             },
             /*allowed_defenses=*/{"none", "sanity"}});
    }
}

core::ScenarioRegistry& default_registry() {
    auto& registry = core::ScenarioRegistry::instance();
    static const bool registered = [&registry] {
        register_builtin_scenarios(registry);
        return true;
    }();
    (void)registered;
    return registry;
}

} // namespace ropuf::attack

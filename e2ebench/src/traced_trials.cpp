// Rebuilt registry trials for the traced run.
//
// Each function below re-assembles one scenario of attack/scenarios.cpp from
// the library's public constructors — chip, construction, enroll, Victim,
// the attack's *Session, the defense registry — and drives it the way
// attack::run_to_completion does. The one substitution is the base of the
// oracle stack: TimedVictimOracle makes the same public calls as
// attack::Victim::evaluate_probes (parse, helper_consistent,
// measure_batch_into, reconstruct_measured) with a timer around each. The
// seed derivations and construction defaults are copies of the registry's;
// the parity check against the registry's own report for the same trial is
// what proves the copy still times the same program. The untraced run uses
// the same rebuilds up to the chip's enrollment (enroll_trial) to time it.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "traced.hpp"

#include "ropuf/attack/distiller_attack.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/masking_attack.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/tempaware_attack.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/fuzzy/fuzzy_extractor.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/pairing/neighbor_chain.hpp"

namespace e2e {

namespace {

using namespace ropuf;
using core::ScenarioParams;

// ---- copies of the registry's scenario conventions (attack/scenarios.cpp)

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

template <typename Config>
void apply_ecc(const ScenarioParams& p, Config& cfg) {
    if (p.ecc_m > 0) cfg.ecc_m = p.ecc_m;
    if (p.ecc_t > 0) cfg.ecc_t = p.ecc_t;
}

sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

sim::ProcessParams crossover_rich_params() {
    sim::ProcessParams p{};
    p.tempco_sigma = 0.015;
    return p;
}

// ---- timing helpers

/// Adds the scope's wall time to `sink`.
class Timed {
public:
    explicit Timed(double& sink) : sink_(sink), t0_(Clock::now()) {}
    ~Timed() { sink_ += seconds_between(t0_, Clock::now()); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

private:
    double& sink_;
    Clock::time_point t0_;
};

/// A TraceSink span that exists only in sampled trials.
class SampledSpan {
public:
    SampledSpan(bool on, std::string_view name) : sink_(on ? obs::trace() : nullptr) {
        if (sink_ != nullptr) sink_->begin(name);
    }
    ~SampledSpan() {
        if (sink_ != nullptr) sink_->end();
    }
    SampledSpan(const SampledSpan&) = delete;
    SampledSpan& operator=(const SampledSpan&) = delete;

private:
    obs::TraceSink* sink_;
};

/// Everything one traced trial writes to.
struct TrialCtx {
    LayerTotals& acc;
    bool spans;
    const core::AttackReport& reference;
    const std::string& scenario;
    Clock::time_point start; ///< trial start (set-up begins here)
    bool enroll_only = false; ///< stop once the chip is enrolled
};

/// Records the trial wall, then compares the rebuilt ledger with the
/// registry's report for the same trial.
void close_trial(TrialCtx& ctx, std::int64_t queries, std::int64_t measurements,
                 std::int64_t refused, double accuracy) {
    LayerTotals& acc = ctx.acc;
    acc.trial_wall += seconds_between(ctx.start, Clock::now());
    ++acc.trials;
    acc.queries += queries;
    acc.refused += refused;
    const core::AttackReport& ref = ctx.reference;
    if (queries != ref.queries || measurements != ref.measurements || refused != ref.refused ||
        accuracy != ref.accuracy) {
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s: rebuilt trial gave queries=%lld measurements=%lld refused=%lld "
                      "accuracy=%.17g, registry gave %lld/%lld/%lld/%.17g",
                      ctx.scenario.c_str(), static_cast<long long>(queries),
                      static_cast<long long>(measurements), static_cast<long long>(refused),
                      accuracy, static_cast<long long>(ref.queries),
                      static_cast<long long>(ref.measurements),
                      static_cast<long long>(ref.refused), ref.accuracy);
        acc.parity_errors.emplace_back(buf);
    }
}

/// The benchmark-side base of the oracle stack: the public calls of
/// attack::Victim::evaluate_probes, each under its layer's timer, with the
/// same noise stream, ledger and verdict rule.
template <core::Device Puf>
class TimedVictimOracle final : public core::OracleBase {
public:
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;

    TimedVictimOracle(const attack::Victim<Puf>& victim, std::optional<bits::BitVec> app_key,
                      std::uint64_t noise_seed, LayerTotals& acc, bool spans)
        : puf_(&victim.puf()),
          ambient_(victim.ambient()),
          app_key_(std::move(app_key)),
          rng_(noise_seed),
          acc_(&acc),
          spans_(spans) {}

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override {
        const Timed whole(acc_->victim);
        const SampledSpan span(spans_, "core.victim");
        verdicts.clear();
        verdicts.reserve(probes.size());
        const auto& array = puf_->array();
        const int cost = array.count();

        parsed_.clear();
        parsed_.resize(probes.size());
        consistent_.assign(probes.size(), 0);
        int scans = 0;
        {
            const SampledSpan phase(spans_, "helperdata.parse_check");
            for (std::size_t i = 0; i < probes.size(); ++i) {
                acc_->blob_bytes += static_cast<long long>(probes[i].helper.size());
                {
                    const Timed t(acc_->parse);
                    try {
                        parsed_[i] = Traits::parse(probes[i].helper);
                    } catch (const helperdata::ParseError&) {
                    }
                }
                if (!parsed_[i]) continue;
                bool consistent = false;
                {
                    const Timed t(acc_->check);
                    consistent = Traits::helper_consistent(*puf_, *parsed_[i]);
                }
                if (consistent) {
                    consistent_[i] = 1;
                    ++scans;
                }
            }
        }
        {
            const Timed t(acc_->measure);
            const SampledSpan phase(spans_, "sim.measure_batch");
            array.measure_batch_into(ambient_, scans, rng_, scan_buffer_);
        }
        acc_->sim_measurements += static_cast<long long>(scans) * cost;

        const SampledSpan phase(spans_, "ecc.regen");
        std::size_t scan = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            if (!parsed_[i]) {
                ++queries_;
                ++refused_;
                verdicts.push_back(true);
                continue;
            }
            ++queries_;
            measurements_ += cost;
            core::ReconstructResult rec;
            if (consistent_[i]) {
                const std::span<const double> freqs(
                    scan_buffer_.data() + scan * static_cast<std::size_t>(cost),
                    static_cast<std::size_t>(cost));
                ++scan;
                const auto t0 = Clock::now();
                rec = Traits::reconstruct_measured(*puf_, *parsed_[i], ambient_, freqs);
                const double dt = seconds_between(t0, Clock::now());
                acc_->regen += dt;
                ++acc_->regen_calls;
                acc_->regen_us.push_back(static_cast<float>(dt * 1e6));
            }
            const bits::BitVec& expected = probes[i].expect ? *probes[i].expect : app_key();
            verdicts.push_back(!rec.ok || rec.key != expected);
            captured_.push_back(std::move(*parsed_[i]));
        }
    }

    core::OracleStats stats() const override { return {queries_, measurements_, refused_}; }

    /// Every helper the device parsed, kept for the encode replay.
    const std::vector<Helper>& captured() const { return captured_; }

private:
    const bits::BitVec& app_key() const {
        if (!app_key_) throw std::logic_error("keyed-mode access on a reprogram-mode victim");
        return *app_key_;
    }

    const Puf* puf_;
    sim::Condition ambient_;
    std::optional<bits::BitVec> app_key_;
    rng::Xoshiro256pp rng_;
    LayerTotals* acc_;
    bool spans_;
    std::int64_t queries_ = 0;
    std::int64_t measurements_ = 0;
    std::int64_t refused_ = 0;
    std::vector<std::optional<Helper>> parsed_;
    std::vector<char> consistent_;
    std::vector<double> scan_buffer_;
    std::vector<Helper> captured_;
};

/// Builds the registry's oracle stack on a TimedVictimOracle (defense from
/// the registry when named, budget when set), drives the session to
/// completion with the attack, defense and victim timers, closes the trial
/// and replays Traits::store over the parsed helpers.
template <core::Device Puf>
void drive(TrialCtx& ctx, attack::Session& session, const attack::Victim<Puf>& victim,
           const Puf& puf, const typename core::DeviceTraits<Puf>::Helper& enrolled,
           const bits::BitVec& truth, std::optional<bits::BitVec> app_key,
           const ScenarioParams& p) {
    using Traits = core::DeviceTraits<Puf>;
    LayerTotals& acc = ctx.acc;
    auto base = std::make_shared<TimedVictimOracle<Puf>>(victim, std::move(app_key),
                                                         sub_seed(p, 3), acc, ctx.spans);
    core::AnyOracle stack(base);
    if (!p.defense.empty() && p.defense != "none") {
        defense::DefenseContext dctx;
        dctx.validator = attack::make_sanity_validator(puf);
        dctx.canonical = [](const helperdata::Nvm& nvm) {
            try {
                return Traits::store(Traits::parse(nvm)).bytes() == nvm.bytes();
            } catch (const helperdata::ParseError&) {
                return false;
            }
        };
        dctx.enrolled = Traits::store(enrolled);
        dctx.seed = sub_seed(p, 4);
        stack = defense::apply_defense(p.defense, stack, dctx).oracle;
    }
    if (p.query_budget > 0) {
        stack = core::AnyOracle(std::make_shared<core::BudgetedOracle>(stack, p.query_budget));
    }
    acc.other += seconds_between(ctx.start, Clock::now());

    for (;;) {
        std::span<const core::Probe> batch;
        {
            const Timed t(acc.step);
            const SampledSpan span(ctx.spans, "attack.step");
            batch = session.step();
        }
        if (batch.empty()) break;
        const auto probes = static_cast<long long>(batch.size());
        std::vector<bool> verdicts;
        try {
            const Timed t(acc.stack);
            const SampledSpan span(ctx.spans, "defense.stack");
            verdicts = stack.evaluate(batch);
        } catch (const core::BudgetExhausted&) {
            break;
        }
        {
            const Timed t(acc.step);
            const SampledSpan span(ctx.spans, "attack.absorb");
            session.absorb(verdicts);
        }
        ++acc.batches;
        acc.probes += probes;
    }

    core::OracleStats stats;
    double accuracy = 0.0;
    {
        const Timed t(acc.other);
        stats = stack.stats();
        accuracy = core::bit_accuracy(session.partial_key(), truth);
    }
    close_trial(ctx, stats.queries, stats.measurements, stats.refused, accuracy);

    const Timed t(acc.encode);
    for (const auto& helper : base->captured()) {
        acc.encoded_bytes += static_cast<long long>(Traits::store(helper).size());
    }
}

void seqpair_swap(TrialCtx& ctx, const ScenarioParams& p, helperdata::PairOrderPolicy policy) {
    const sim::RoArray chip(geometry_or(p, {16, 8}), process_or(p, sim::ProcessParams{}),
                            sub_seed(p, 1));
    pairing::SeqPairingConfig dcfg;
    dcfg.policy = policy;
    apply_ecc(p, dcfg);
    const pairing::SeqPairingPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);
    if (ctx.enroll_only) return;
    const attack::SeqPairingAttack::Victim victim(puf, enrollment.key, sub_seed(p, 3));
    attack::SeqPairingAttack::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::SeqPairingSession session(enrollment.helper, puf.code(), cfg);
    drive(ctx, session, victim, puf, enrollment.helper, enrollment.key, enrollment.key, p);
}

void tempaware_substitution(TrialCtx& ctx, const ScenarioParams& p) {
    const sim::RoArray chip(geometry_or(p, {16, 16}), process_or(p, crossover_rich_params()),
                            sub_seed(p, 1));
    tempaware::TempAwareConfig dcfg;
    dcfg.classification = {-20.0, 85.0, 0.2};
    dcfg.enroll_samples = 64;
    apply_ecc(p, dcfg);
    const tempaware::TempAwarePuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);
    if (ctx.enroll_only) return;
    const attack::TempAwareAttack::Victim victim(puf, enrollment.key, p.ambient_c,
                                                 sub_seed(p, 3));
    attack::TempAwareAttack::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::TempAwareSession session(enrollment.helper, puf.code(), victim.ambient_c(), cfg);
    drive(ctx, session, victim, puf, enrollment.helper, enrollment.key, enrollment.key, p);
}

void group(TrialCtx& ctx, const ScenarioParams& p, attack::GroupBasedAttack::Mode mode,
           bool adaptive) {
    const sim::RoArray chip(geometry_or(p, {10, 4}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    group::GroupPufConfig dcfg;
    dcfg.delta_f_th = 0.15;
    apply_ecc(p, dcfg);
    const group::GroupBasedPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);
    if (ctx.enroll_only) return;
    const attack::GroupBasedAttack::Victim victim(puf, sub_seed(p, 3));
    attack::GroupBasedAttack::Config cfg;
    cfg.mode = mode;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::GroupSession session(enrollment.helper, chip.geometry(), puf.code(), cfg);
    drive(ctx, session, victim, puf, enrollment.helper, enrollment.key, std::nullopt, p);
}

void maskedchain_distiller(TrialCtx& ctx, const ScenarioParams& p, bool adaptive) {
    const sim::RoArray chip(geometry_or(p, {20, 8}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    pairing::MaskedChainConfig dcfg;
    apply_ecc(p, dcfg);
    const pairing::MaskedChainPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);
    if (ctx.enroll_only) return;
    const attack::MaskedChainAttack::Victim victim(puf, sub_seed(p, 3));
    attack::MaskedChainAttack::Config cfg;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::MaskedChainSession session(puf, enrollment.helper, cfg);
    drive(ctx, session, victim, puf, enrollment.helper, enrollment.key, std::nullopt, p);
}

void maskedchain_probe(TrialCtx& ctx, const ScenarioParams& p) {
    const sim::RoArray chip(geometry_or(p, {20, 8}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    pairing::MaskedChainConfig dcfg;
    apply_ecc(p, dcfg);
    const pairing::MaskedChainPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);
    if (ctx.enroll_only) return;
    const attack::SelectionSubstitutionProbe::Victim victim(puf, enrollment.key, sub_seed(p, 3));
    attack::SelectionSubstitutionProbe::Config cfg;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::SelectionProbeSession session(enrollment.helper, puf.code(), cfg);
    drive(ctx, session, victim, puf, enrollment.helper, enrollment.key, enrollment.key, p);
}

void overlapchain_distiller(TrialCtx& ctx, const ScenarioParams& p, bool adaptive) {
    const sim::RoArray chip(geometry_or(p, {10, 4}), process_or(p, quiet_params()),
                            sub_seed(p, 1));
    pairing::OverlapChainConfig dcfg;
    apply_ecc(p, dcfg);
    const pairing::OverlapChainPuf puf(chip, dcfg);
    rng::Xoshiro256pp rng(sub_seed(p, 2));
    const auto enrollment = puf.enroll(rng);
    if (ctx.enroll_only) return;
    const attack::OverlapChainAttack::Victim victim(puf, sub_seed(p, 3));
    attack::OverlapChainAttack::Config cfg;
    cfg.adaptive = adaptive;
    if (p.majority_wins > 0) cfg.majority_wins = p.majority_wins;
    attack::OverlapChainSession session(puf, enrollment.helper, cfg);
    drive(ctx, session, victim, puf, enrollment.helper, enrollment.key, std::nullopt, p);
}

/// The reference construction measures the extractor directly, without an
/// oracle stack, so its layers are timed at measure_all (sim) and
/// FuzzyExtractor::reconstruct (ecc); a regeneration is the victim call.
void fuzzy_reference(TrialCtx& ctx, const ScenarioParams& p) {
    LayerTotals& acc = ctx.acc;
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
    if (ctx.enroll_only) return;
    rng::Xoshiro256pp victim_rng(sub_seed(p, 3));
    acc.other += seconds_between(ctx.start, Clock::now());

    std::int64_t queries = 0;
    const auto regenerate = [&](const fuzzy::FuzzyHelper& helper) {
        // No middleware: the regeneration is the whole oracle stack.
        const Timed stack(acc.stack);
        const Timed whole(acc.victim);
        ++queries;
        std::vector<double> freqs;
        {
            const Timed t(acc.measure);
            freqs = chip.measure_all(ambient, victim_rng);
        }
        acc.sim_measurements += chip.count();
        const auto noisy = pairing::evaluate_pairs(pairs, freqs);
        const auto t0 = Clock::now();
        auto rec = fe.reconstruct(noisy, helper);
        const double dt = seconds_between(t0, Clock::now());
        acc.regen += dt;
        ++acc.regen_calls;
        acc.regen_us.push_back(static_cast<float>(dt * 1e6));
        return rec;
    };

    const int reliability_trials = p.majority_wins > 0 ? p.majority_wins : 50;
    int honest_ok = 0;
    for (int trial = 0; trial < reliability_trials; ++trial) {
        const auto rec = regenerate(enrollment.helper);
        honest_ok += rec.ok && rec.key == enrollment.key;
    }
    for (std::size_t pos = 0; pos < enrollment.helper.offset.size();
         pos += static_cast<std::size_t>(code.n())) {
        fuzzy::FuzzyHelper tampered;
        {
            const Timed t(acc.step);
            tampered = enrollment.helper;
            bits::flip(tampered.offset, pos);
        }
        (void)regenerate(tampered);
    }
    acc.probes += queries;
    close_trial(ctx, queries, queries * chip.count(), 0, 0.0);
}

/// Runs the rebuild of ctx.scenario.
void rebuild(TrialCtx& ctx, const ScenarioParams& params) {
    // The deprecated "-defended" aliases are their base scenario pinned to
    // defense=sanity, exactly as the registry resolves them.
    ScenarioParams p = params;
    std::string name = ctx.scenario;
    constexpr std::string_view kAlias = "-defended";
    if (name.ends_with(kAlias)) {
        name.resize(name.size() - kAlias.size());
        p.defense = "sanity";
    }

    using Mode = attack::GroupBasedAttack::Mode;
    if (name == "seqpair/swap") {
        seqpair_swap(ctx, p, helperdata::PairOrderPolicy::Randomized);
    } else if (name == "seqpair/swap-sorted") {
        seqpair_swap(ctx, p, helperdata::PairOrderPolicy::SortedByFrequency);
    } else if (name == "tempaware/substitution") {
        tempaware_substitution(ctx, p);
    } else if (name == "group/sortmerge") {
        group(ctx, p, Mode::SortMerge, false);
    } else if (name == "group/exhaustive") {
        group(ctx, p, Mode::ExhaustivePairs, false);
    } else if (name == "group/sortmerge-adaptive") {
        group(ctx, p, Mode::SortMerge, true);
    } else if (name == "maskedchain/distiller") {
        maskedchain_distiller(ctx, p, false);
    } else if (name == "maskedchain/distiller-adaptive") {
        maskedchain_distiller(ctx, p, true);
    } else if (name == "maskedchain/probe") {
        maskedchain_probe(ctx, p);
    } else if (name == "overlapchain/distiller") {
        overlapchain_distiller(ctx, p, false);
    } else if (name == "overlapchain/distiller-adaptive") {
        overlapchain_distiller(ctx, p, true);
    } else if (name == "fuzzy/reference") {
        fuzzy_reference(ctx, p);
    } else {
        throw std::invalid_argument("the traced run has no rebuild of scenario '" +
                                    ctx.scenario + "'");
    }
}

} // namespace

void run_traced_trial(const std::string& scenario, const core::ScenarioParams& params,
                      const core::AttackReport& reference, LayerTotals& acc, bool spans) {
    std::string args = "{\"scenario\":\"";
    obs::append_trace_escaped(args, scenario);
    args += "\"}";
    const obs::Span trial_span("trial", std::move(args));
    TrialCtx ctx{acc, spans, reference, scenario, Clock::now()};
    rebuild(ctx, params);
}

void enroll_trial(const std::string& scenario, const core::ScenarioParams& params) {
    LayerTotals unused;
    const core::AttackReport no_reference{};
    TrialCtx ctx{unused, false, no_reference, scenario, Clock::now(), /*enroll_only=*/true};
    rebuild(ctx, params);
}

} // namespace e2e

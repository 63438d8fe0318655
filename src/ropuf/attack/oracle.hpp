// Failure oracle — the paper's observable (Section VI).
//
// "We make no assumption about the application: an inability to reconstruct
// the key should affect the observable behavior of any useful application."
// The oracle reduces that observable to a single bit per key-regeneration
// attempt.
//
// One generic Victim covers every construction through the unified device
// layer (core::DeviceTraits); the paper's three victim flavors are usage
// modes, not separate classes:
//
//  * keyed       — constructions whose application holds the originally
//    enrolled key: a regeneration fails observably when the device
//    reconstructs anything else (or refuses). Construct with an app key.
//  * reprogram   — constructions where the attacker additionally chooses the
//    key the observable is compared against ("maliciously reprogrammed keys,
//    assuming their reconstruction failures to be observable"). Construct
//    without an app key and pass the expectation per query.
//  * temperature — the temperature-aware construction regenerates at an
//    ambient operating point chosen at victim-construction time
//    (DeviceTraits::condition_at keeps the sim parameters out of this layer).
//
// Query accounting is shared: every mode counts queries (the attack's primary
// cost metric) and oscillator measurements (queries x declared device cost).
//
// Every query reaches a Victim through `make_oracle`, which adapts it into a
// core::AnyOracle answering *batched* probes. The attack surface is the raw
// NVM: a probe built from bytes is parsed exactly as a device parses its
// NVM, and a typed probe (attack::make_probe) hands over its structured
// helper only when parsing its bytes would give back that same helper
// (core::ProbeNvm), so skipping the byte round trip changes no verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/core/device.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::attack {

/// Shared query ledger: one regeneration attempt = one query; measurement
/// cost follows the device's declaration (a full array scan per query);
/// `refused` counts queries the device rejected before measuring (malformed
/// blobs — zero measurement cost).
struct QueryLedger {
    std::int64_t queries = 0;
    std::int64_t measurements = 0;
    std::int64_t refused = 0;

    void charge(int measurement_cost) {
        ++queries;
        measurements += measurement_cost;
    }
    void charge_refused() {
        ++queries;
        ++refused;
    }
};

namespace detail {

/// The device's parse of a raw probe's bytes (counted as
/// helperdata.blob_parses); throws helperdata::ParseError on a malformed
/// blob. Typed probes skip it: their helper is what this would return.
template <core::Device Puf>
typename core::DeviceTraits<Puf>::Helper parse_probe(const core::ProbeNvm& nvm) {
    ROPUF_OBS_COUNT("helperdata.blob_parses", 1);
    return core::DeviceTraits<Puf>::parse(nvm);
}

} // namespace detail

/// The one victim wrapper. `Puf` must conform to core::Device.
template <core::Device Puf>
class Victim {
public:
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;

    /// Keyed mode at the device's nominal operating condition.
    Victim(const Puf& puf, bits::BitVec app_key, std::uint64_t noise_seed)
        : puf_(&puf),
          app_key_(std::move(app_key)),
          ambient_(Traits::nominal_condition(puf)),
          rng_(noise_seed) {}

    /// Reprogram mode: the expected key is supplied per query.
    Victim(const Puf& puf, std::uint64_t noise_seed)
        : puf_(&puf), ambient_(Traits::nominal_condition(puf)), rng_(noise_seed) {}

    /// Keyed mode at an explicit ambient temperature (temperature-aware
    /// constructions regenerate at whatever temperature the environment has).
    Victim(const Puf& puf, bits::BitVec app_key, double ambient_c, std::uint64_t noise_seed)
        : puf_(&puf),
          app_key_(std::move(app_key)),
          ambient_(Traits::condition_at(puf, ambient_c)),
          rng_(noise_seed) {}

    /// Batched probes — the one query path; true = observable failure
    /// (wrong key or refusal). Verdicts land in probe order. Per probe: take
    /// the typed helper, or parse the raw bytes (a malformed blob is an
    /// observable refusal that costs a query but no measurement), then ask
    /// the device whether it would regenerate the probe's expected key (or
    /// the app key; throws std::logic_error when a reprogram-mode victim gets
    /// a probe without one). DeviceTraits::accepts answers that by distance,
    /// exactly as regenerating and comparing would, without a decode or a
    /// key. RNG consumption, verdicts and ledger are identical to evaluating
    /// the probes one at a time; the whole batch's noise is drawn in one
    /// measure_batch_into block.
    void evaluate_probes(std::span<const core::Probe> probes, std::vector<bool>& verdicts) {
        verdicts.clear();
        verdicts.reserve(probes.size());
        const auto& array = puf_->array();
        const int cost = array.count();

        parsed_.clear();
        parsed_.resize(probes.size());
        helpers_.assign(probes.size(), nullptr);
        consistent_.assign(probes.size(), 0);
        int scans = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const Helper* helper = probes[i].helper.template typed<Helper>();
            if (helper == nullptr) {
                try {
                    parsed_[i] = detail::parse_probe<Puf>(probes[i].helper);
                } catch (const helperdata::ParseError&) {
                    continue;
                }
                helper = &*parsed_[i];
            }
            helpers_[i] = helper;
            // Only helpers that survive the device's pre-measurement checks
            // consume a scan. The verdict is cached; the check can be
            // expensive (group partitions) and must not rerun per probe below.
            if (Traits::helper_consistent(*puf_, *helper)) {
                consistent_[i] = 1;
                ++scans;
            }
        }
        array.measure_batch_into(ambient_, scans, rng_, scan_buffer_);

        std::size_t scan = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            if (helpers_[i] == nullptr) {
                ledger_.charge_refused();
                verdicts.push_back(true);
                continue;
            }
            ledger_.charge(cost);
            const bits::BitVec& expected =
                probes[i].expect ? *probes[i].expect : app_key();
            bool accepted = false;
            if (consistent_[i]) {
                const std::span<const double> freqs(
                    scan_buffer_.data() + scan * static_cast<std::size_t>(cost),
                    static_cast<std::size_t>(cost));
                ++scan;
                accepted = Traits::accepts(*puf_, *helpers_[i], ambient_, freqs, expected);
            }
            verdicts.push_back(!accepted);
        }
    }

    std::int64_t queries() const { return ledger_.queries; }
    std::int64_t measurements() const { return ledger_.measurements; }
    const QueryLedger& ledger() const { return ledger_; }

    const bits::BitVec& app_key() const {
        if (!app_key_) {
            throw std::logic_error("keyed-mode access on a reprogram-mode victim");
        }
        return *app_key_;
    }
    double ambient_c() const { return ambient_.temperature_c; }
    const sim::Condition& ambient() const { return ambient_; }
    const Puf& puf() const { return *puf_; }

private:
    const Puf* puf_;
    std::optional<bits::BitVec> app_key_;
    sim::Condition ambient_;
    rng::Xoshiro256pp rng_;
    QueryLedger ledger_;
    // Batch-evaluation scratch, reused across calls.
    std::vector<std::optional<Helper>> parsed_; ///< raw probes' parsed helpers
    std::vector<const Helper*> helpers_;        ///< per probe; nullptr = refused
    std::vector<char> consistent_;
    std::vector<double> scan_buffer_;
};

/// Adapts a Victim into the type-erased oracle interface. Holds the victim
/// by reference: the victim (and its ledger) must outlive the oracle stack.
template <core::Device Puf>
class VictimOracle final : public core::OracleBase {
public:
    explicit VictimOracle(Victim<Puf>& victim) : victim_(&victim) {}

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override {
        victim_->evaluate_probes(probes, verdicts);
    }
    core::OracleStats stats() const override {
        const auto& ledger = victim_->ledger();
        return {ledger.queries, ledger.measurements, ledger.refused};
    }

private:
    Victim<Puf>* victim_;
};

/// The base of every oracle stack: the victim itself.
template <core::Device Puf>
core::AnyOracle make_oracle(Victim<Puf>& victim) {
    return core::AnyOracle(std::make_shared<VictimOracle<Puf>>(victim));
}

/// A sanity validator for wrapping this construction's oracle in a
/// core::SanityCheckingOracle: parse failures and DeviceTraits::sanity
/// violations are refusals. A typed probe's helper is checked directly; a
/// raw probe's bytes are parsed first. Assignable to core::HelperValidator
/// (an Nvm converts to a raw probe); called directly, the mode defaults to
/// Explain. Captures the puf by reference.
template <core::Device Puf>
auto make_sanity_validator(const Puf& puf) {
    return [&puf](const core::ProbeNvm& nvm,
                  helperdata::SanityMode mode = helperdata::SanityMode::Explain) {
        using Traits = core::DeviceTraits<Puf>;
        using Helper = typename Traits::Helper;
        if (const Helper* typed = nvm.typed<Helper>()) return Traits::sanity(puf, *typed, mode);
        Helper helper;
        try {
            helper = detail::parse_probe<Puf>(nvm);
        } catch (const helperdata::ParseError& e) {
            helperdata::SanityReport report(mode);
            report.fail([&e] { return std::string("parse: ") + e.what(); });
            return report;
        }
        return Traits::sanity(puf, helper, mode);
    };
}

} // namespace ropuf::attack

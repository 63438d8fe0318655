// Type-erased failure oracle with composable middleware.
//
// The paper's attacker interacts with a victim device through exactly one
// channel: write helper NVM, trigger a key regeneration, observe pass/fail.
// AnyOracle is that channel as a value type. A probe is the raw helper blob
// the attacker programs (plus, for reprogram-mode constructions, the key the
// observable is compared against), and an oracle answers *batches* of probes
// so the simulation can amortize measurement-noise generation over a whole
// batch (sim::RoArray::measure_batch_into).
//
// Middleware wrappers compose around any oracle, innermost first:
//
//   * BudgetedOracle       — hard query budget. Evaluates the affordable
//     prefix of a batch, then flags exhaustion and throws BudgetExhausted,
//     so "queries until the key falls" curves can be cut at any budget and
//     a campaign job stops cleanly instead of running open-ended.
//   * SanityCheckingOracle — the paper's Section VII countermeasure as a
//     first-class defended scenario: a validator (typically built from
//     DeviceTraits::sanity via helperdata/sanity) inspects every probe's
//     blob; refused probes read as observable failures, are counted as
//     attacker queries, but are never charged as oscillator measurements —
//     the device rejected the helper data before measuring anything.
//   * TracingOracle        — per-batch snapshots of the cumulative ledger,
//     the raw material for queries-to-first-correct-bit / queries-to-key
//     traces (attack::run_to_completion folds them against the true key).
//
// The dependency direction stays sim -> constructions -> core -> attacks:
// this header knows nothing about victims or constructions; the attack layer
// adapts its Victim<Puf> into an OracleBase (attack::make_oracle).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/sanity.hpp"

namespace ropuf::core {

/// One oracle query: the helper blob the attacker programs into NVM, and —
/// for constructions with attacker-reprogrammable keys — the key the
/// observable is compared against (nullopt = the enrolled application key).
struct Probe {
    helperdata::Nvm helper;
    std::optional<bits::BitVec> expect;
};

/// Cumulative oracle-side accounting. `queries` counts every regeneration
/// attempt the attacker triggered (including ones a defense refused);
/// `measurements` counts oscillator measurements actually performed
/// (queries x declared device cost, zero for refused probes); `refused`
/// counts probes rejected by a SanityCheckingOracle or a device-side parse
/// refusal before any measurement.
struct OracleStats {
    std::int64_t queries = 0;
    std::int64_t measurements = 0;
    std::int64_t refused = 0;
};

/// Thrown by BudgetedOracle when a batch would exceed the query budget. The
/// affordable prefix of the batch HAS been evaluated and charged; `evaluated`
/// says how many verdicts were produced before the stop.
class BudgetExhausted : public std::runtime_error {
public:
    BudgetExhausted(std::int64_t budget, std::size_t evaluated)
        : std::runtime_error("oracle query budget exhausted (budget " +
                             std::to_string(budget) + ")"),
          budget_(budget),
          evaluated_(evaluated) {}

    std::int64_t budget() const { return budget_; }
    std::size_t evaluated() const { return evaluated_; }

private:
    std::int64_t budget_;
    std::size_t evaluated_;
};

/// Implementation interface behind AnyOracle. `evaluate` answers probes in
/// order (verdict true = observable regeneration failure) and appends one
/// verdict per probe to `verdicts` (cleared first).
class OracleBase {
public:
    virtual ~OracleBase() = default;
    virtual void evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) = 0;
    virtual OracleStats stats() const = 0;
};

/// Value-semantic handle to any failure oracle (a victim adapter or a
/// middleware stack). Copies share the underlying oracle and its ledger.
class AnyOracle {
public:
    AnyOracle() = default;
    explicit AnyOracle(std::shared_ptr<OracleBase> impl) : impl_(std::move(impl)) {}

    /// Batched evaluation; one verdict per probe, in probe order.
    std::vector<bool> evaluate(std::span<const Probe> probes) {
        std::vector<bool> verdicts;
        impl_->evaluate(probes, verdicts);
        return verdicts;
    }

    /// Single-probe convenience.
    bool evaluate_one(const Probe& probe) {
        std::vector<bool> verdicts;
        impl_->evaluate({&probe, 1}, verdicts);
        return verdicts.at(0);
    }

    OracleStats stats() const { return impl_->stats(); }

    explicit operator bool() const { return impl_ != nullptr; }
    const std::shared_ptr<OracleBase>& impl() const { return impl_; }

private:
    std::shared_ptr<OracleBase> impl_;
};

/// Hard query budget around an inner oracle. Construct via std::make_shared,
/// keep the shared_ptr to read exhausted()/spent() after the run, and wrap it
/// in AnyOracle for the driver.
class BudgetedOracle final : public OracleBase {
public:
    BudgetedOracle(AnyOracle inner, std::int64_t budget);

    void evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) override;
    OracleStats stats() const override { return inner_.stats(); }

    std::int64_t budget() const { return budget_; }
    std::int64_t spent() const { return spent_; }
    std::int64_t remaining() const { return budget_ - spent_; }
    bool exhausted() const { return exhausted_; }

private:
    AnyOracle inner_;
    std::int64_t budget_;
    std::int64_t spent_ = 0;
    bool exhausted_ = false;
};

/// Structural helper-data validation of one probe blob, in the requested
/// mode: Verdict for the per-probe accept/refuse decision, Explain when a
/// caller reads the violation list.
using HelperValidator =
    std::function<helperdata::SanityReport(const helperdata::Nvm&, helperdata::SanityMode)>;

/// Evaluates `probes` through `inner`, forwarding each contiguous run of
/// accepted probes (accepted[i] != 0) as one batch, so the victim's amortized
/// noise draws keep their batch shape, and leaving refused probes at their
/// preset verdict. The shared core of every refusing middleware.
void forward_accepted(AnyOracle& inner, std::span<const Probe> probes,
                      std::span<const char> accepted, std::vector<bool>& verdicts);

/// Routes every probe blob through a validator before the device sees it.
/// A refused probe reads as an observable failure (the careful device
/// declines to regenerate), is counted as an attacker query, but performs no
/// oscillator measurement. Probes are validated in Verdict mode; the last
/// refused blob is kept and explained only when last_violations() is read.
class SanityCheckingOracle final : public OracleBase {
public:
    SanityCheckingOracle(AnyOracle inner, HelperValidator validator);

    void evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) override;
    OracleStats stats() const override;

    std::int64_t refused() const { return refused_; }
    /// Violations of the most recently refused probe (diagnostics), in
    /// Explain mode; built on the first read after a refusal and cached.
    const std::vector<std::string>& last_violations() const;

private:
    AnyOracle inner_;
    HelperValidator validator_;
    std::int64_t refused_ = 0;
    std::vector<char> accepted_; ///< per-batch scratch, reused across calls
    helperdata::Nvm last_refused_;
    mutable bool explained_ = true;
    mutable std::vector<std::string> last_violations_;
};

/// One per-batch ledger snapshot recorded by TracingOracle.
struct TraceSample {
    OracleStats after;      ///< cumulative stats after the batch
    std::size_t probes = 0; ///< batch size
    std::size_t failures = 0; ///< verdicts that read "failed"
};

/// Records a cumulative-ledger snapshot after every batch. Keep the
/// shared_ptr to read the trace after the run.
class TracingOracle final : public OracleBase {
public:
    explicit TracingOracle(AnyOracle inner) : inner_(std::move(inner)) {}

    void evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) override;
    OracleStats stats() const override { return inner_.stats(); }

    const std::vector<TraceSample>& trace() const { return trace_; }

private:
    AnyOracle inner_;
    std::vector<TraceSample> trace_;
};

} // namespace ropuf::core

// Type-erased failure oracle with composable middleware.
//
// The paper's attacker interacts with a victim device through exactly one
// channel: write helper NVM, trigger a key regeneration, observe pass/fail.
// AnyOracle is that channel as a value type. A probe is the helper NVM the
// attacker programs (plus, for reprogram-mode constructions, the key the
// observable is compared against), and an oracle answers *batches* of probes
// so the simulation can amortize measurement-noise generation over a whole
// batch (sim::RoArray::measure_batch_into).
//
// The NVM of a probe (ProbeNvm) comes in two kinds. A probe built from raw
// bytes holds exactly those bytes; every reader parses them, as a device
// parses its NVM. A probe built from the attacker's structured helper
// (attack::make_probe) holds that helper and its byte image, which is
// serialized only when a byte reader asks. The structured form is only kept
// where the device's parse of the bytes gives back the same helper, so every
// reader decides a typed probe exactly as it would decide its bytes: the
// victim and the sanity validator read the helper; the canonical-form check
// knows such bytes are canonical; the MAC binding compares the helper with
// the enrolled one field for field (same_image). The attack surface is still
// the raw NVM: raw and byte-edited probes are parsed, checked and compared
// as bytes.
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
//     helper; refused probes read as observable failures, are counted as
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

/// The helper NVM one probe programs: raw bytes, or the attacker's
/// structured helper plus a byte image built on first read.
///
/// A raw probe (constructed from an Nvm) holds its bytes and nothing else.
/// A typed probe (from_helper) holds a shared, immutable copy of the
/// helper; typed<Helper>() hands it to readers that know the construction,
/// and every byte accessor serializes it once and keeps the bytes. The
/// caller of from_helper() guarantees that the device's parse of the
/// serialized bytes reproduces the helper field for field, so a typed
/// reader and a byte reader see the same helper, and the bytes of a typed
/// probe are canonical: store(parse(bytes)) == bytes.
///
/// Any non-const access to the bytes turns the probe into a raw probe: the
/// bytes are built, the structured helper is dropped, and every later reader
/// parses the edited bytes. Copies share the structured helper, never the
/// bytes, so editing one copy leaves its siblings as they were.
///
/// Thread safety: the const byte accessors (and same_image, on both sides)
/// build the image lazily through mutable members, so two threads must not
/// read the same ProbeNvm object at once. That holds because a probe batch
/// never crosses threads: a session, its oracle stack (with the MAC
/// binding's enrolled image) and its victim run on one thread per trial.
class ProbeNvm {
public:
    ProbeNvm() = default;
    /// A raw probe: exactly these bytes. Implicit, so Probe{nvm} reads as
    /// the NVM it programs.
    ProbeNvm(helperdata::Nvm nvm) : nvm_(std::move(nvm)) {}

    /// A typed probe for `helper`, serialized by `store` when bytes are read
    /// and compared by `same` (field for field, as DeviceTraits::same_helper).
    /// Only for helpers whose serialized bytes parse back to `helper`.
    template <typename Helper>
    static ProbeNvm from_helper(Helper helper, helperdata::Nvm (*store)(const Helper&),
                                bool (*same)(const Helper&, const Helper&)) {
        ProbeNvm out;
        out.typed_ = std::make_shared<TypedOf<Helper>>(std::move(helper), store, same);
        out.built_ = false;
        return out;
    }

    /// The structured helper when this is a typed probe of `Helper`, else
    /// nullptr (a raw probe, or one whose bytes were edited).
    template <typename Helper>
    const Helper* typed() const {
        if (typed_ == nullptr || typed_->type != &type_tag<Helper>) return nullptr;
        return &static_cast<const TypedOf<Helper>*>(typed_.get())->helper;
    }

    /// True for a typed probe whose bytes were never edited: its bytes, once
    /// built, are the canonical serialization of a parseable helper.
    bool is_typed() const { return typed_ != nullptr; }

    /// True iff both probes program the same bytes. Two typed probes of one
    /// helper type compare their helpers field for field, which builds no
    /// bytes (for round-tripping helpers, equal fields mean equal bytes and
    /// back); any other pair compares the byte images, building them.
    bool same_image(const ProbeNvm& other) const;

    /// The byte image (built on first read for a typed probe).
    const helperdata::Nvm& nvm() const {
        if (!built_) build();
        return nvm_;
    }
    operator const helperdata::Nvm&() const { return nvm(); }
    const std::vector<std::uint8_t>& bytes() const { return nvm().bytes(); }
    std::size_t size() const { return nvm().size(); }

    /// Mutable bytes: drops the structured helper (see the class comment).
    std::vector<std::uint8_t>& bytes() {
        if (!built_) build();
        typed_.reset();
        return nvm_.bytes();
    }

private:
    template <typename Helper>
    static constexpr char type_tag = 0; ///< its address identifies Helper

    struct Typed {
        explicit Typed(const void* type) : type(type) {}
        virtual ~Typed() = default;
        virtual helperdata::Nvm store() const = 0;
        /// Field-for-field equality with `other`, which has the same type.
        virtual bool same(const Typed& other) const = 0;
        const void* type; ///< &type_tag<Helper>
    };
    template <typename Helper>
    struct TypedOf final : Typed {
        TypedOf(Helper h, helperdata::Nvm (*store_fn)(const Helper&),
                bool (*same_fn)(const Helper&, const Helper&))
            : Typed(&type_tag<Helper>),
              helper(std::move(h)),
              store_fn(store_fn),
              same_fn(same_fn) {}
        helperdata::Nvm store() const override { return store_fn(helper); }
        bool same(const Typed& other) const override {
            return same_fn(helper, static_cast<const TypedOf&>(other).helper);
        }
        Helper helper;
        helperdata::Nvm (*store_fn)(const Helper&);
        bool (*same_fn)(const Helper&, const Helper&);
    };

    /// Serializes the structured helper into nvm_ (counted as
    /// helperdata.blob_stores).
    void build() const;

    std::shared_ptr<const Typed> typed_;
    mutable helperdata::Nvm nvm_;
    mutable bool built_ = true; ///< false only for a typed probe not yet read as bytes
};

/// One oracle query: the helper NVM the attacker programs, and — for
/// constructions with attacker-reprogrammable keys — the key the observable
/// is compared against (null = the enrolled application key). The key is
/// shared and immutable, so copying a probe (a retried ask, a staged batch)
/// bumps a refcount instead of copying the key.
struct Probe {
    ProbeNvm helper;
    std::shared_ptr<const bits::BitVec> expect;
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

/// Structural helper-data validation of one probe's helper, in the
/// requested mode: Verdict for the per-probe accept/refuse decision, Explain
/// when a caller reads the violation list. A validator reads a typed probe's
/// structured helper and parses a raw probe's bytes.
using HelperValidator =
    std::function<helperdata::SanityReport(const ProbeNvm&, helperdata::SanityMode)>;

/// Evaluates `probes` through `inner`, forwarding each contiguous run of
/// accepted probes (accepted[i] != 0) as one batch, so the victim's amortized
/// noise draws keep their batch shape, and leaving refused probes at their
/// preset verdict. The shared core of every refusing middleware.
void forward_accepted(AnyOracle& inner, std::span<const Probe> probes,
                      std::span<const char> accepted, std::vector<bool>& verdicts);

/// Routes every probe's helper through a validator before the device sees it.
/// A refused probe reads as an observable failure (the careful device
/// declines to regenerate), is counted as an attacker query, but performs no
/// oscillator measurement. Probes are validated in Verdict mode; the last
/// refused helper is kept and explained only when last_violations() is read.
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
    ProbeNvm last_refused_;
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

// The unified device concept.
//
// The paper attacks five distinct key-generation constructions —
// SeqPairingPuf, MaskedChainPuf, OverlapChainPuf, GroupBasedPuf,
// TempAwarePuf — through one shared observable: a single failure bit per
// manipulated-helper-data query. This header is the layer that makes that
// uniformity explicit in code. A *device* is anything that can
//
//   * enroll once, producing {public helper data, secret key};
//   * regenerate the key from (possibly manipulated) helper data plus a
//     fresh noisy measurement at some operating condition;
//   * declare its per-query measurement cost (how many oscillators one
//     regeneration touches), the unit every attack's cost model is built on.
//
// Constructions opt in by specializing DeviceTraits<Puf>; the Device concept
// checks conformance at compile time, and AnyDevice type-erases a conforming
// construction behind the raw-NVM helper currency so registries, engines and
// conformance tests can hold heterogeneous devices in one container.
#pragma once

#include <concepts>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/sanity.hpp"
#include "ropuf/rng/xoshiro.hpp"
#include "ropuf/sim/ro_array.hpp"

namespace ropuf::core {

/// Uniform result of one key-regeneration attempt, shared by every
/// construction (the per-construction Reconstruction structs convert to it).
struct ReconstructResult {
    bool ok = false;   ///< parsing and every ECC block succeeded
    bits::BitVec key;  ///< regenerated key (meaningful iff ok)
    int corrected = 0; ///< total ECC corrections applied
};

/// Uniform result of a one-time enrollment at the NVM byte level.
struct EnrollResult {
    helperdata::Nvm helper; ///< serialized public helper data
    bits::BitVec key;       ///< the enrolled secret key
};

/// Glue each construction specializes to join the unified device layer.
///
/// Required members:
///   using Helper = <the construction's structured helper-data type>;
///   static constexpr std::string_view kind;            // stable identifier
///   static std::pair<Helper, bits::BitVec> enroll(const Puf&, rng);
///   static ReconstructResult reconstruct(const Puf&, const Helper&,
///                                        const sim::Condition&, rng);
///   static ReconstructResult reconstruct_measured(const Puf&, const Helper&,
///                                 const sim::Condition&, span<const double>);
///                                     // regeneration from a supplied scan —
///                                     // the batched-oracle path
///   static bool helper_consistent(const Puf&, const Helper&);
///                                     // the pre-measurement structural
///                                     // checks (a failing helper consumes
///                                     // no scan)
///   static helperdata::Nvm store(const Helper&);       // serialize
///   static Helper parse(const helperdata::Nvm&);       // may throw ParseError
///   static bool round_trips(const Helper&);
///                                     // parse(store(h)) reproduces h field
///                                     // for field — the condition for
///                                     // handing a probe's structured
///                                     // helper to the device directly
///   static bool same_helper(const Helper&, const Helper&);
///                                     // field-for-field equality, doubles
///                                     // by bit pattern: for helpers that
///                                     // round-trip, true iff store() writes
///                                     // the same bytes (how the MAC binding
///                                     // compares typed probes)
///   static sim::Condition nominal_condition(const Puf&);
///   static sim::Condition condition_at(const Puf&, double ambient_c);
///                                     // environment-chosen temperature at
///                                     // the device's nominal supply — the
///                                     // attack layer never reads sim
///                                     // parameters directly
///   static helperdata::SanityReport sanity(const Puf&, const Helper&,
///                                          helperdata::SanityMode =
///                                              helperdata::SanityMode::Explain);
///                                     // what a careful device would
///                                     // validate (Section VII-C); feeds the
///                                     // SanityCheckingOracle countermeasure
///                                     // (Verdict mode: yes/no, no strings)
template <typename Puf>
struct DeviceTraits; // primary template intentionally undefined

/// A construction conforming to the unified device layer.
template <typename P>
concept Device = requires(const P& puf, const typename DeviceTraits<P>::Helper& helper,
                          const helperdata::Nvm& nvm, const sim::Condition& condition,
                          std::span<const double> freqs, double ambient_c,
                          rng::Xoshiro256pp& rng) {
    typename DeviceTraits<P>::Helper;
    { DeviceTraits<P>::kind } -> std::convertible_to<std::string_view>;
    {
        DeviceTraits<P>::enroll(puf, rng)
    } -> std::same_as<std::pair<typename DeviceTraits<P>::Helper, bits::BitVec>>;
    {
        DeviceTraits<P>::reconstruct(puf, helper, condition, rng)
    } -> std::same_as<ReconstructResult>;
    {
        DeviceTraits<P>::reconstruct_measured(puf, helper, condition, freqs)
    } -> std::same_as<ReconstructResult>;
    { DeviceTraits<P>::helper_consistent(puf, helper) } -> std::same_as<bool>;
    { DeviceTraits<P>::store(helper) } -> std::same_as<helperdata::Nvm>;
    { DeviceTraits<P>::parse(nvm) } -> std::same_as<typename DeviceTraits<P>::Helper>;
    { DeviceTraits<P>::round_trips(helper) } -> std::same_as<bool>;
    { DeviceTraits<P>::same_helper(helper, helper) } -> std::same_as<bool>;
    { DeviceTraits<P>::nominal_condition(puf) } -> std::same_as<sim::Condition>;
    { DeviceTraits<P>::condition_at(puf, ambient_c) } -> std::same_as<sim::Condition>;
    { DeviceTraits<P>::sanity(puf, helper) } -> std::same_as<helperdata::SanityReport>;
    {
        DeviceTraits<P>::sanity(puf, helper, helperdata::SanityMode::Verdict)
    } -> std::same_as<helperdata::SanityReport>;
    { puf.array() } -> std::convertible_to<const sim::RoArray&>;
};

/// Type-erased device handle. The helper currency is the raw NVM blob — the
/// exact bytes the paper's attacker reads and writes — so one interface
/// covers all constructions; malformed blobs fail safely (ok = false)
/// instead of throwing, matching the devices' fail-safe parsing contract.
///
/// Holds a copy of the construction object (constructions are light views
/// onto a sim::RoArray); the referenced array must outlive the AnyDevice.
class AnyDevice {
public:
    template <Device P>
    explicit AnyDevice(const P& puf) : impl_(std::make_shared<const Model<P>>(puf)) {}

    /// One-time enrollment, serialized to the NVM byte level.
    EnrollResult enroll(rng::Xoshiro256pp& rng) const { return impl_->enroll(rng); }

    /// Key regeneration from raw helper NVM at the device's nominal condition.
    ReconstructResult reconstruct(const helperdata::Nvm& nvm, rng::Xoshiro256pp& rng) const {
        return impl_->reconstruct(nvm, impl_->nominal_condition(), rng);
    }

    /// Key regeneration at an explicit operating condition.
    ReconstructResult reconstruct(const helperdata::Nvm& nvm, const sim::Condition& condition,
                                  rng::Xoshiro256pp& rng) const {
        return impl_->reconstruct(nvm, condition, rng);
    }

    /// Stable construction identifier (DeviceTraits<P>::kind).
    std::string_view kind() const { return impl_->kind(); }

    /// Declared query cost: oscillator measurements per regeneration (every
    /// construction scans its full array once per query).
    int query_cost() const { return impl_->query_cost(); }

    sim::Condition nominal_condition() const { return impl_->nominal_condition(); }

private:
    struct Concept {
        virtual ~Concept() = default;
        virtual EnrollResult enroll(rng::Xoshiro256pp& rng) const = 0;
        virtual ReconstructResult reconstruct(const helperdata::Nvm& nvm,
                                              const sim::Condition& condition,
                                              rng::Xoshiro256pp& rng) const = 0;
        virtual std::string_view kind() const = 0;
        virtual int query_cost() const = 0;
        virtual sim::Condition nominal_condition() const = 0;
    };

    template <Device P>
    struct Model final : Concept {
        explicit Model(const P& puf) : puf(puf) {}

        EnrollResult enroll(rng::Xoshiro256pp& rng) const override {
            auto [helper, key] = DeviceTraits<P>::enroll(puf, rng);
            return {DeviceTraits<P>::store(helper), std::move(key)};
        }

        ReconstructResult reconstruct(const helperdata::Nvm& nvm,
                                      const sim::Condition& condition,
                                      rng::Xoshiro256pp& rng) const override {
            typename DeviceTraits<P>::Helper helper;
            try {
                helper = DeviceTraits<P>::parse(nvm);
            } catch (const helperdata::ParseError&) {
                return {}; // malformed blob: observable refusal
            }
            return DeviceTraits<P>::reconstruct(puf, helper, condition, rng);
        }

        std::string_view kind() const override { return DeviceTraits<P>::kind; }
        int query_cost() const override { return puf.array().count(); }
        sim::Condition nominal_condition() const override {
            return DeviceTraits<P>::nominal_condition(puf);
        }

        P puf;
    };

    std::shared_ptr<const Concept> impl_;
};

} // namespace ropuf::core

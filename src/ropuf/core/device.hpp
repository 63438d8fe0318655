// The unified device concept.
//
// The paper attacks five distinct key-generation constructions —
// SeqPairingPuf, MaskedChainPuf, OverlapChainPuf, GroupBasedPuf,
// TempAwarePuf — through one shared observable: a single failure bit per
// manipulated-helper-data query. This header is the layer that makes that
// uniformity explicit in code. A *device* is anything that can
//
//   * check (possibly manipulated) helper data structurally before it
//     measures, so a failing helper consumes no scan;
//   * regenerate the key from that helper data plus a supplied noisy scan
//     at some operating condition, or answer the oracle's one question —
//     would it regenerate exactly a given key? — without building one;
//   * store and parse its helper data at the NVM byte level;
//   * say what a careful device would validate (Section VII-C).
//
// Constructions opt in by specializing DeviceTraits<Puf> on top of
// DeviceTraitsBase, which writes once what every construction shares; the
// Device concept checks conformance at compile time.
#pragma once

#include <concepts>
#include <span>
#include <string_view>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/sanity.hpp"
#include "ropuf/sim/ro_array.hpp"

namespace ropuf::core {

/// Result of one key-regeneration attempt, returned by every construction.
struct ReconstructResult {
    bool ok = false;   ///< parsing and every ECC block succeeded
    bits::BitVec key;  ///< regenerated key (meaningful iff ok)
    int corrected = 0; ///< total ECC corrections applied
};

/// Glue each construction specializes to join the unified device layer.
///
/// Required members:
///   using Helper = <the construction's structured helper-data type>;
///   static constexpr std::string_view kind;            // stable identifier
///   static ReconstructResult reconstruct_measured(const Puf&, const Helper&,
///                                 const sim::Condition&, span<const double>);
///                                     // regeneration from a supplied scan —
///                                     // the batched-oracle path
///   static bool accepts(const Puf&, const Helper&, const sim::Condition&,
///                       span<const double>, const bits::BitVec& expected);
///                                     // the oracle's verdict from a
///                                     // supplied scan: true iff
///                                     // reconstruct_measured would return
///                                     // ok and exactly `expected` — decided
///                                     // by distance, without decoding or
///                                     // building a key
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
///
/// DeviceTraitsBase supplies Helper, reconstruct_measured, accepts,
/// helper_consistent and the two condition functions; a specialization adds
/// the rest.
template <typename Puf>
struct DeviceTraits; // primary template intentionally undefined

/// What every construction provides the same way. Regeneration, the verdict
/// and the structural checks are the Puf's own members of the same names; the
/// operating point is the Puf's `config().condition`, with the ambient
/// temperature swapped in. A construction with another notion of its
/// operating point (tempaware) declares its own two condition functions.
template <typename Puf, typename H>
struct DeviceTraitsBase {
    using Helper = H;

    static ReconstructResult reconstruct_measured(const Puf& puf, const Helper& helper,
                                                  const sim::Condition& condition,
                                                  std::span<const double> freqs) {
        return puf.reconstruct_measured(helper, condition, freqs);
    }
    static bool accepts(const Puf& puf, const Helper& helper, const sim::Condition& condition,
                        std::span<const double> freqs, const bits::BitVec& expected) {
        return puf.accepts(helper, condition, freqs, expected);
    }
    static bool helper_consistent(const Puf& puf, const Helper& helper) {
        return puf.helper_consistent(helper);
    }
    static sim::Condition nominal_condition(const Puf& puf) { return puf.config().condition; }
    static sim::Condition condition_at(const Puf& puf, double ambient_c) {
        sim::Condition c = puf.config().condition;
        c.temperature_c = ambient_c;
        return c;
    }
};

/// A construction conforming to the unified device layer.
template <typename P>
concept Device = requires(const P& puf, const typename DeviceTraits<P>::Helper& helper,
                          const helperdata::Nvm& nvm, const sim::Condition& condition,
                          std::span<const double> freqs, const bits::BitVec& key,
                          double ambient_c) {
    typename DeviceTraits<P>::Helper;
    { DeviceTraits<P>::kind } -> std::convertible_to<std::string_view>;
    {
        DeviceTraits<P>::reconstruct_measured(puf, helper, condition, freqs)
    } -> std::same_as<ReconstructResult>;
    { DeviceTraits<P>::accepts(puf, helper, condition, freqs, key) } -> std::same_as<bool>;
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

} // namespace ropuf::core

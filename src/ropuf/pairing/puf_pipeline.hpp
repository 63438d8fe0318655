// Complete key-generation devices built on RO pairing.
//
// Three constructions attacked in the paper are modeled as self-contained
// "devices": each owns a reference to a manufactured RoArray (the silicon),
// performs a one-time enrollment producing {helper data, key}, and can
// regenerate the key from one noisy measurement plus (possibly manipulated)
// helper data. All of them protect the response bits with the shared
// BlockEcc ("we assume all constructions to employ an ECC as a final
// reliability measure, which is actually a common practice", Section VI).
//
//  * SeqPairingPuf   — Algorithm 1 pair selection (Section IV-C / VI-A).
//  * MaskedChainPuf  — entropy distiller + disjoint neighbor chain +
//                      1-out-of-k masking (Section VI-D, Fig. 6b).
//  * OverlapChainPuf — entropy distiller + overlapping neighbor chain
//                      (Section VI-D, Fig. 6c).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/core/device.hpp"
#include "ropuf/distiller/regression.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/formats.hpp"
#include "ropuf/helperdata/sanity.hpp"
#include "ropuf/pairing/masking.hpp"
#include "ropuf/pairing/neighbor_chain.hpp"
#include "ropuf/pairing/sequential.hpp"
#include "ropuf/sim/ro_array.hpp"

namespace ropuf::pairing {

// ---------------------------------------------------------------------------
// Sequential pairing (Section VI-A victim)
// ---------------------------------------------------------------------------

/// Public helper data of a sequential-pairing device. `pairs` are stored in
/// the exact index order written at enrollment (bit i of the key is the
/// comparison of pairs[i] as stored: r = [f_first > f_second]).
struct SeqPairingHelper {
    std::vector<helperdata::IndexPair> pairs;
    ecc::BlockEccHelper ecc;
};

/// Serialization to/from the NVM byte level. round_trips() is true when
/// parsing the serialized bytes gives back `helper` field for field.
/// same_helper() is that field-for-field equality (doubles by bit pattern):
/// for two helpers that round-trip, it holds iff their serialized bytes are
/// equal.
helperdata::Nvm serialize(const SeqPairingHelper& helper);
SeqPairingHelper parse_seq_pairing(const helperdata::Nvm& nvm);
bool round_trips(const SeqPairingHelper& helper);
bool same_helper(const SeqPairingHelper& a, const SeqPairingHelper& b);

struct SeqPairingConfig {
    double delta_f_th = 0.5;  ///< Algorithm 1 threshold (MHz)
    int ecc_m = 6;            ///< BCH field degree: n = 63
    int ecc_t = 3;            ///< errors corrected per block
    helperdata::PairOrderPolicy policy = helperdata::PairOrderPolicy::Randomized;
    int enroll_samples = 16;  ///< measurement averaging during enrollment
    sim::Condition condition; ///< nominal operating point
};

class SeqPairingPuf {
public:
    SeqPairingPuf(const sim::RoArray& array, const SeqPairingConfig& config);

    struct Enrollment {
        SeqPairingHelper helper;
        bits::BitVec key;
    };

    /// One-time enrollment: averaged measurement, Algorithm 1, pair-order
    /// policy, ECC parity.
    Enrollment enroll(rng::Xoshiro256pp& rng) const;

    /// Key regeneration from one noisy array scan and the given helper data.
    /// Malformed helper data (bad indices, wrong parity length) fails safely.
    core::ReconstructResult reconstruct(const SeqPairingHelper& helper,
                                        rng::Xoshiro256pp& rng) const {
        return reconstruct(helper, config_.condition, rng);
    }

    /// Same, at an explicit operating condition (the environment's choice).
    core::ReconstructResult reconstruct(const SeqPairingHelper& helper,
                                        const sim::Condition& condition,
                                        rng::Xoshiro256pp& rng) const;

    /// True when the helper passes every structural check regeneration
    /// applies *before* measuring (a failing helper consumes no scan).
    bool helper_consistent(const SeqPairingHelper& helper) const;

    /// Regeneration from an externally supplied full-array scan — the
    /// batched-oracle path; bit-identical to reconstruct() for the same scan.
    core::ReconstructResult reconstruct_measured(const SeqPairingHelper& helper,
                                                 const sim::Condition& condition,
                                                 std::span<const double> freqs) const;

    /// The oracle's verdict from a supplied scan: true iff
    /// reconstruct_measured would return ok and exactly `expected`, decided
    /// by distance (BlockEcc::decodes_to) without decoding or building a key.
    bool accepts(const SeqPairingHelper& helper, const sim::Condition& condition,
                 std::span<const double> freqs, const bits::BitVec& expected) const;

    const sim::RoArray& array() const { return *array_; }
    const SeqPairingConfig& config() const { return config_; }
    const ecc::BchCode& code() const { return code_; }

private:
    /// The response stage reconstruct_measured and accepts share: every
    /// structural check, then the response bits of `freqs`, packed into
    /// per-thread scratch (valid until the thread's next regeneration);
    /// nullopt when a check fails.
    std::optional<std::span<const std::uint64_t>> response(const SeqPairingHelper& helper,
                                                           std::span<const double> freqs) const;

    const sim::RoArray* array_;
    SeqPairingConfig config_;
    ecc::BchCode code_;
};

// ---------------------------------------------------------------------------
// Entropy distiller + disjoint chain + 1-out-of-k masking (Fig. 6b victim)
// ---------------------------------------------------------------------------

struct MaskedChainHelper {
    std::vector<double> beta;  ///< distiller coefficients (public!)
    MaskingHelper masking;     ///< selected pair per group of k
    ecc::BlockEccHelper ecc;
};

helperdata::Nvm serialize(const MaskedChainHelper& helper);
MaskedChainHelper parse_masked_chain(const helperdata::Nvm& nvm);
bool round_trips(const MaskedChainHelper& helper);
bool same_helper(const MaskedChainHelper& a, const MaskedChainHelper& b);

struct MaskedChainConfig {
    int distiller_degree = 2;
    int k = 5;                 ///< 1-out-of-k (paper Fig. 6b uses k = 5)
    ChainOrder order = ChainOrder::RowMajor;
    int ecc_m = 6;
    int ecc_t = 3;
    int enroll_samples = 16;
    sim::Condition condition;
};

class MaskedChainPuf {
public:
    MaskedChainPuf(const sim::RoArray& array, const MaskedChainConfig& config);

    struct Enrollment {
        MaskedChainHelper helper;
        bits::BitVec key;
    };

    Enrollment enroll(rng::Xoshiro256pp& rng) const;
    core::ReconstructResult reconstruct(const MaskedChainHelper& helper,
                                        rng::Xoshiro256pp& rng) const {
        return reconstruct(helper, config_.condition, rng);
    }
    core::ReconstructResult reconstruct(const MaskedChainHelper& helper,
                                        const sim::Condition& condition,
                                        rng::Xoshiro256pp& rng) const;
    bool helper_consistent(const MaskedChainHelper& helper) const;
    core::ReconstructResult reconstruct_measured(const MaskedChainHelper& helper,
                                                 const sim::Condition& condition,
                                                 std::span<const double> freqs) const;
    /// The oracle's verdict from a supplied scan: true iff
    /// reconstruct_measured would return ok and exactly `expected`, decided
    /// by distance (BlockEcc::decodes_to) without decoding or building a key.
    bool accepts(const MaskedChainHelper& helper, const sim::Condition& condition,
                 std::span<const double> freqs, const bits::BitVec& expected) const;

    /// The fixed base pair set the masking selects from (disjoint chain).
    const std::vector<helperdata::IndexPair>& base_pairs() const { return base_pairs_; }
    const sim::RoArray& array() const { return *array_; }
    const MaskedChainConfig& config() const { return config_; }
    const ecc::BchCode& code() const { return code_; }

private:
    /// Writes the pairs `helper.masking` selects from the base chain to
    /// `selected` and returns true once every structural check
    /// helper_consistent() documents has passed; false on the first failure
    /// (nothing is thrown).
    bool checked_selection(const MaskedChainHelper& helper,
                           std::vector<helperdata::IndexPair>& selected) const;

    /// The response stage reconstruct_measured and accepts share: every
    /// structural check, then the response bits of `freqs`, packed into
    /// per-thread scratch (valid until the thread's next regeneration);
    /// nullopt when a check fails.
    std::optional<std::span<const std::uint64_t>> response(const MaskedChainHelper& helper,
                                                           std::span<const double> freqs) const;

    const sim::RoArray* array_;
    MaskedChainConfig config_;
    ecc::BchCode code_;
    std::vector<helperdata::IndexPair> base_pairs_;
};

// ---------------------------------------------------------------------------
// Entropy distiller + overlapping chain (Fig. 6c victim)
// ---------------------------------------------------------------------------

struct OverlapChainHelper {
    std::vector<double> beta;
    ecc::BlockEccHelper ecc;
};

helperdata::Nvm serialize(const OverlapChainHelper& helper);
OverlapChainHelper parse_overlap_chain(const helperdata::Nvm& nvm);
bool round_trips(const OverlapChainHelper& helper);
bool same_helper(const OverlapChainHelper& a, const OverlapChainHelper& b);

struct OverlapChainConfig {
    int distiller_degree = 2;
    ChainOrder order = ChainOrder::RowMajor; ///< Fig. 6c uses row-major indices
    int ecc_m = 6;
    int ecc_t = 3;
    int enroll_samples = 16;
    sim::Condition condition;
};

class OverlapChainPuf {
public:
    OverlapChainPuf(const sim::RoArray& array, const OverlapChainConfig& config);

    struct Enrollment {
        OverlapChainHelper helper;
        bits::BitVec key;
    };

    Enrollment enroll(rng::Xoshiro256pp& rng) const;
    core::ReconstructResult reconstruct(const OverlapChainHelper& helper,
                                        rng::Xoshiro256pp& rng) const {
        return reconstruct(helper, config_.condition, rng);
    }
    core::ReconstructResult reconstruct(const OverlapChainHelper& helper,
                                        const sim::Condition& condition,
                                        rng::Xoshiro256pp& rng) const;
    bool helper_consistent(const OverlapChainHelper& helper) const;
    core::ReconstructResult reconstruct_measured(const OverlapChainHelper& helper,
                                                 const sim::Condition& condition,
                                                 std::span<const double> freqs) const;
    /// The oracle's verdict from a supplied scan: true iff
    /// reconstruct_measured would return ok and exactly `expected`, decided
    /// by distance (BlockEcc::decodes_to) without decoding or building a key.
    bool accepts(const OverlapChainHelper& helper, const sim::Condition& condition,
                 std::span<const double> freqs, const bits::BitVec& expected) const;

    /// The N-1 overlapping pairs; every one contributes a key bit.
    const std::vector<helperdata::IndexPair>& pairs() const { return pairs_; }
    const sim::RoArray& array() const { return *array_; }
    const OverlapChainConfig& config() const { return config_; }
    const ecc::BchCode& code() const { return code_; }

private:
    /// The response stage reconstruct_measured and accepts share: every
    /// structural check, then the response bits of `freqs`, packed into
    /// per-thread scratch (valid until the thread's next regeneration);
    /// nullopt when a check fails.
    std::optional<std::span<const std::uint64_t>> response(const OverlapChainHelper& helper,
                                                           std::span<const double> freqs) const;

    const sim::RoArray* array_;
    OverlapChainConfig config_;
    ecc::BchCode code_;
    std::vector<helperdata::IndexPair> pairs_;
};

} // namespace ropuf::pairing

// ---------------------------------------------------------------------------
// Unified device-layer conformance (core::DeviceTraits)
// ---------------------------------------------------------------------------
namespace ropuf::core {

template <>
struct DeviceTraits<pairing::SeqPairingPuf>
    : DeviceTraitsBase<pairing::SeqPairingPuf, pairing::SeqPairingHelper> {
    static constexpr std::string_view kind = "seqpair";

    static helperdata::Nvm store(const Helper& helper) { return pairing::serialize(helper); }
    static bool round_trips(const Helper& helper) { return pairing::round_trips(helper); }
    static bool same_helper(const Helper& a, const Helper& b) { return pairing::same_helper(a, b); }
    static Helper parse(const helperdata::Nvm& nvm) { return pairing::parse_seq_pairing(nvm); }
    /// What a careful device would validate (paper Section VII-C): index
    /// ranges, no self-pairs, no RO re-use across pairs.
    static helperdata::SanityReport sanity(
        const pairing::SeqPairingPuf& puf, const Helper& helper,
        helperdata::SanityMode mode = helperdata::SanityMode::Explain) {
        return helperdata::check_pair_list(helper.pairs, puf.array().count(),
                                           /*forbid_reuse=*/true, mode);
    }
};

template <>
struct DeviceTraits<pairing::MaskedChainPuf>
    : DeviceTraitsBase<pairing::MaskedChainPuf, pairing::MaskedChainHelper> {
    static constexpr std::string_view kind = "maskedchain";

    static helperdata::Nvm store(const Helper& helper) { return pairing::serialize(helper); }
    static bool round_trips(const Helper& helper) { return pairing::round_trips(helper); }
    static bool same_helper(const Helper& a, const Helper& b) { return pairing::same_helper(a, b); }
    static Helper parse(const helperdata::Nvm& nvm) { return pairing::parse_masked_chain(nvm); }
    /// Coefficient plausibility (blocks the Section VI-D steep-surface
    /// injection) plus masking-selection range checks.
    static helperdata::SanityReport sanity(
        const pairing::MaskedChainPuf& puf, const Helper& helper,
        helperdata::SanityMode mode = helperdata::SanityMode::Explain) {
        auto report = helperdata::check_coefficients(
            helper.beta, 2.5 * puf.array().params().f_nominal_mhz, mode);
        if (report.settled()) return report;
        if (helper.masking.k != puf.config().k) {
            if (report.fail("masking: stored k differs from the device design")) return report;
        }
        for (std::size_t g = 0; g < helper.masking.selected.size(); ++g) {
            const int sel = helper.masking.selected[g];
            if (sel < 0 || sel >= helper.masking.k) {
                if (report.fail([g] {
                        return "masking: selection of group " + std::to_string(g) +
                               " out of range";
                    })) {
                    return report;
                }
            }
        }
        return report;
    }
};

template <>
struct DeviceTraits<pairing::OverlapChainPuf>
    : DeviceTraitsBase<pairing::OverlapChainPuf, pairing::OverlapChainHelper> {
    static constexpr std::string_view kind = "overlapchain";

    static helperdata::Nvm store(const Helper& helper) { return pairing::serialize(helper); }
    static bool round_trips(const Helper& helper) { return pairing::round_trips(helper); }
    static bool same_helper(const Helper& a, const Helper& b) { return pairing::same_helper(a, b); }
    static Helper parse(const helperdata::Nvm& nvm) { return pairing::parse_overlap_chain(nvm); }
    /// Coefficient plausibility: an honest fit never exceeds a few times the
    /// nominal frequency; the steep probe surfaces exceed it by orders of
    /// magnitude.
    static helperdata::SanityReport sanity(
        const pairing::OverlapChainPuf& puf, const Helper& helper,
        helperdata::SanityMode mode = helperdata::SanityMode::Explain) {
        return helperdata::check_coefficients(
            helper.beta, 2.5 * puf.array().params().f_nominal_mhz, mode);
    }
};

} // namespace ropuf::core

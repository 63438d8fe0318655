// The complete group-based RO PUF of paper Fig. 4 (Yin, Qu & Zhou, DATE 2013
// + the DAC 2013 regression distiller) — the Section VI-C victim.
//
// Pipeline (all on-chip except the NVM):
//   RO array -> entropy distillation -> grouping -> Kendall coding -> ECC
//            -> entropy packing -> secret key
//
// Public helper data: distiller polynomial coefficients, group assignment,
// ECC redundancy. Enrollment runs Algorithm 2 once and freezes the groups;
// every regeneration re-measures, subtracts the (stored) polynomial, orders
// each (stored) group by residual, Kendall-codes the orders, error-corrects
// the concatenated Kendall bits against the stored parity, and packs the
// corrected orders into the compact key.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/core/device.hpp"
#include "ropuf/distiller/regression.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/group/compact.hpp"
#include "ropuf/group/grouping.hpp"
#include "ropuf/group/kendall.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/sanity.hpp"
#include "ropuf/sim/ro_array.hpp"

namespace ropuf::group {

/// Public helper data of the construction (Fig. 4's NVM box).
struct GroupPufHelper {
    std::vector<double> beta;   ///< distiller polynomial coefficients
    std::vector<int> group_of;  ///< 1-based group id per RO
    ecc::BlockEccHelper ecc;    ///< parity over the concatenated Kendall bits
};

/// Serialization to/from the NVM byte level. round_trips() is true when
/// parsing the serialized bytes gives back `helper` field for field.
/// same_helper() is that field-for-field equality (doubles by bit pattern):
/// for two helpers that round-trip, it holds iff their serialized bytes are
/// equal.
helperdata::Nvm serialize(const GroupPufHelper& helper);
GroupPufHelper parse_group_puf(const helperdata::Nvm& nvm);
bool round_trips(const GroupPufHelper& helper);
bool same_helper(const GroupPufHelper& a, const GroupPufHelper& b);

struct GroupPufConfig {
    int distiller_degree = 2;  ///< p = 2 / 3 recommended by the DAC'13 study
    double delta_f_th = 0.15;  ///< Algorithm 2 threshold (MHz)
    int ecc_m = 6;
    int ecc_t = 3;
    int enroll_samples = 16;
    /// Guard for the quadratic Kendall workload, in [1, kMaxCompactGroup]
    /// (a larger group's order rank overflows 64 bits); the GroupBasedPuf
    /// constructor throws std::invalid_argument outside that range.
    int max_group_size = 12;
    sim::Condition condition;
};

class GroupBasedPuf {
public:
    GroupBasedPuf(const sim::RoArray& array, const GroupPufConfig& config);

    struct Enrollment {
        GroupPufHelper helper;
        bits::BitVec key;          ///< packed (compact-coded) key
        bits::BitVec kendall_ref;  ///< reference Kendall bits (pre-ECC view)
        GroupingResult grouping;   ///< enrollment-time groups, descending order
    };

    /// One-time enrollment.
    Enrollment enroll(rng::Xoshiro256pp& rng) const;

    /// Key regeneration with (possibly manipulated) helper data. Any
    /// structural inconsistency — non-dense groups, oversized groups, wrong
    /// parity length, invalid corrected codeword — fails safely.
    core::ReconstructResult reconstruct(const GroupPufHelper& helper,
                                        rng::Xoshiro256pp& rng) const {
        return reconstruct(helper, config_.condition, rng);
    }

    /// Same, at an explicit operating condition (the environment's choice).
    core::ReconstructResult reconstruct(const GroupPufHelper& helper,
                                        const sim::Condition& condition,
                                        rng::Xoshiro256pp& rng) const;

    /// True when the helper passes every structural check regeneration
    /// applies *before* measuring (a failing helper consumes no scan).
    bool helper_consistent(const GroupPufHelper& helper) const;

    /// Regeneration from an externally supplied full-array scan — the
    /// batched-oracle path; bit-identical to reconstruct() for the same scan.
    /// Partition, Kendall bits, ECC and packing run in per-thread scratch:
    /// past the first probe at a given array size, the returned key is the
    /// only allocation.
    core::ReconstructResult reconstruct_measured(const GroupPufHelper& helper,
                                                 const sim::Condition& condition,
                                                 std::span<const double> freqs) const;

    /// The oracle's verdict from a supplied scan: true iff
    /// reconstruct_measured would return ok and exactly `expected`. The
    /// expected key's per-group ranks are unranked to their orders and
    /// Kendall-coded, and BlockEcc::decodes_to checks the fresh Kendall bits
    /// against that reference by distance: no decode, no key.
    bool accepts(const GroupPufHelper& helper, const sim::Condition& condition,
                 std::span<const double> freqs, const bits::BitVec& expected) const;

    /// Computes the Kendall bit string and the packed key for a given
    /// members partition and residual map — shared by enrollment,
    /// reconstruction and the attacker's forward computation.
    struct Coded {
        bits::BitVec kendall;
        bits::BitVec key;
    };
    static Coded encode_groups(const std::vector<std::vector<int>>& members,
                               const std::vector<double>& residuals);

    const sim::RoArray& array() const { return *array_; }
    const GroupPufConfig& config() const { return config_; }
    const ecc::BchCode& code() const { return code_; }

private:
    struct Scratch;

    /// Partitions helper.group_of into `scratch` by a counting sort (flat
    /// member array plus per-group offsets, members ascending) and applies
    /// every structural check helper_consistent() documents: ids in [1, n]
    /// and dense, no group above max_group_size, response_bits equal to the
    /// Kendall length, parity length, inferable degree. False on the first
    /// failure; nothing is thrown or allocated once the scratch has grown.
    bool partition(const GroupPufHelper& helper, Scratch& scratch) const;

    /// The response stage reconstruct_measured and accepts share: partition
    /// (every structural check), residuals, and the fresh scan's Kendall
    /// bits, packed into `scratch`; nullopt when a check fails.
    std::optional<std::span<const std::uint64_t>> response(const GroupPufHelper& helper,
                                                           std::span<const double> freqs,
                                                           Scratch& scratch) const;

    /// The polynomial degree implied by the coefficient count (-1 = none).
    static int inferred_degree(const GroupPufHelper& helper);

    const sim::RoArray* array_;
    GroupPufConfig config_;
    ecc::BchCode code_;
};

} // namespace ropuf::group

// ---------------------------------------------------------------------------
// Unified device-layer conformance (core::DeviceTraits)
// ---------------------------------------------------------------------------
namespace ropuf::core {

template <>
struct DeviceTraits<group::GroupBasedPuf>
    : DeviceTraitsBase<group::GroupBasedPuf, group::GroupPufHelper> {
    static constexpr std::string_view kind = "group";

    static helperdata::Nvm store(const Helper& helper) { return group::serialize(helper); }
    static bool round_trips(const Helper& helper) { return group::round_trips(helper); }
    static bool same_helper(const Helper& a, const Helper& b) { return group::same_helper(a, b); }
    static Helper parse(const helperdata::Nvm& nvm) { return group::parse_group_puf(nvm); }
    /// Strict partition checks plus coefficient plausibility: the Section
    /// VI-C steep-plane injection needs |beta| orders of magnitude above any
    /// honest fit.
    static helperdata::SanityReport sanity(
        const group::GroupBasedPuf& puf, const Helper& helper,
        helperdata::SanityMode mode = helperdata::SanityMode::Explain) {
        auto report =
            helperdata::check_group_assignment(helper.group_of, puf.array().count(), mode);
        if (report.settled()) return report;
        report.merge(helperdata::check_coefficients(
            helper.beta, 2.5 * puf.array().params().f_nominal_mhz, mode));
        return report;
    }
};

} // namespace ropuf::core

// Temperature-aware cooperative RO PUF device (paper Section IV-D;
// Yin & Qu, HOST 2009) — the Section VI-B victim.
//
// Enrollment measures at the two range extremes, classifies every disjoint
// neighbor pair (good / bad / cooperating), and for every cooperating pair c
// stores in public helper NVM:
//   * its crossover interval [Tl, Th];
//   * the index of an assisting cooperating pair h with a non-intersecting
//     crossover interval;
//   * the index of a masking good pair g,
// chosen such that   r_c XOR r_g = r_h   (the masked-cooperation constraint).
//
// Reconstruction at temperature T:
//   * good pair:            r = sign(Δf(T))
//   * cooperating, T < Tl:  r = sign(Δf(T))
//   * cooperating, T > Th:  r = NOT sign(Δf(T))      (crossover compensation)
//   * cooperating, inside:  r = r_h(T) XOR r_g(T)    (masked assistance)
// where referenced bits r_h, r_g are themselves resolved with the
// outside-interval rule of *their* helper records. The device trusts every
// record field — precisely the attack surface of Section VI-B.
//
// The helper-selection policy is configurable: Random (the paper's
// recommendation) or DeterministicScan (the leaking variant the paper warns
// about: every candidate skipped before the selected one reveals
// r_candidate != r_h).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/core/device.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/helperdata/sanity.hpp"
#include "ropuf/pairing/neighbor_chain.hpp"
#include "ropuf/tempaware/classification.hpp"

namespace ropuf::tempaware {

/// Per-pair public helper record.
struct PairRecord {
    PairClass cls = PairClass::Bad;
    double t_low = 0.0;
    double t_high = 0.0;
    int helper_pair = -1; ///< index of the assisting cooperating pair
    int mask_pair = -1;   ///< index of the masking good pair
};

/// Full public helper data of the construction.
struct TempAwareHelper {
    std::vector<helperdata::IndexPair> pairs; ///< disjoint neighbor pairs (stored orientation)
    std::vector<PairRecord> records;          ///< one per pair
    ecc::BlockEccHelper ecc;                  ///< parity over the kept bits
};

/// Serialization to/from the NVM byte level. round_trips() is true when
/// parsing the serialized bytes gives back `helper` field for field: the
/// blob stores one record per pair, a valid class byte and 0/1 parity.
/// same_helper() is that field-for-field equality (temperatures by bit
/// pattern): for two helpers that round-trip, it holds iff their serialized
/// bytes are equal.
helperdata::Nvm serialize(const TempAwareHelper& helper);
TempAwareHelper parse_temp_aware(const helperdata::Nvm& nvm);
bool round_trips(const TempAwareHelper& helper);
bool same_helper(const TempAwareHelper& a, const TempAwareHelper& b);

enum class HelperSelectionPolicy {
    Random,            ///< sample candidates in random order (recommended)
    DeterministicScan, ///< first satisfying candidate in index order (leaks!)
};

struct TempAwareConfig {
    ClassificationConfig classification;
    int ecc_m = 6;
    int ecc_t = 3;
    int enroll_samples = 16;
    HelperSelectionPolicy policy = HelperSelectionPolicy::Random;
};

class TempAwarePuf {
public:
    TempAwarePuf(const sim::RoArray& array, const TempAwareConfig& config);

    struct Enrollment {
        TempAwareHelper helper;
        bits::BitVec key;
        /// Ground-truth reference bit per pair (tests/attack verification;
        /// not part of the public helper data).
        std::vector<std::uint8_t> reference_bits;
    };

    /// One-time enrollment (measures at both range extremes).
    Enrollment enroll(rng::Xoshiro256pp& rng) const;

    /// Key regeneration at ambient temperature `temperature_c` (nominal
    /// supply voltage) with the given (possibly manipulated) helper data.
    core::ReconstructResult reconstruct(const TempAwareHelper& helper, double temperature_c,
                                        rng::Xoshiro256pp& rng) const;

    /// Same, at a full operating condition (temperature and supply voltage).
    core::ReconstructResult reconstruct(const TempAwareHelper& helper,
                                        const sim::Condition& condition,
                                        rng::Xoshiro256pp& rng) const;

    /// True when the helper passes every structural check regeneration
    /// applies *before* measuring (a failing helper consumes no scan).
    bool helper_consistent(const TempAwareHelper& helper) const;

    /// Regeneration from an externally supplied full-array scan — the
    /// batched-oracle path; bit-identical to reconstruct() for the same scan.
    core::ReconstructResult reconstruct_measured(const TempAwareHelper& helper,
                                                 const sim::Condition& condition,
                                                 std::span<const double> freqs) const;

    /// Key-bit position of pair `pair_index` given a helper's records
    /// (-1 when the pair carries no key bit). The layout is shared knowledge:
    /// kept pairs contribute bits in pair-index order.
    static int key_position(const TempAwareHelper& helper, int pair_index);

    /// Number of key bits implied by a helper's records.
    static int key_bits(const TempAwareHelper& helper);

    const std::vector<helperdata::IndexPair>& pairs() const { return pairs_; }
    const sim::RoArray& array() const { return *array_; }
    const TempAwareConfig& config() const { return config_; }
    const ecc::BchCode& code() const { return code_; }

private:
    /// Resolves the bit of pair `p` with the outside-interval rule only
    /// (sign at T, inverted for a cooperating record with T > Th).
    static std::uint8_t direct_bit(std::span<const double> freqs,
                                   const TempAwareHelper& helper, int p, double temperature_c);

    const sim::RoArray* array_;
    TempAwareConfig config_;
    ecc::BchCode code_;
    std::vector<helperdata::IndexPair> pairs_;
};

} // namespace ropuf::tempaware

// ---------------------------------------------------------------------------
// Unified device-layer conformance (core::DeviceTraits). The ambient
// temperature this construction needs rides in on sim::Condition — the same
// operating-point channel every other construction already accepts.
// ---------------------------------------------------------------------------
namespace ropuf::core {

template <>
struct DeviceTraits<tempaware::TempAwarePuf>
    : DeviceTraitsBase<tempaware::TempAwarePuf, tempaware::TempAwareHelper> {
    static constexpr std::string_view kind = "tempaware";

    static helperdata::Nvm store(const Helper& helper) { return tempaware::serialize(helper); }
    static bool round_trips(const Helper& helper) { return tempaware::round_trips(helper); }
    static bool same_helper(const Helper& a, const Helper& b) {
        return tempaware::same_helper(a, b);
    }
    static Helper parse(const helperdata::Nvm& nvm) { return tempaware::parse_temp_aware(nvm); }
    /// The construction has no configured operating condition: an ambient
    /// temperature runs at the array's nominal supply, and the nominal
    /// condition is the array's reference temperature. The one place the
    /// construction's reference voltage is consulted (attacks go through
    /// these, never through sim parameters).
    static sim::Condition nominal_condition(const tempaware::TempAwarePuf& puf) {
        return condition_at(puf, puf.array().params().t_ref_c);
    }
    static sim::Condition condition_at(const tempaware::TempAwarePuf& puf, double ambient_c) {
        return {ambient_c, puf.array().params().v_ref_v};
    }
    /// Record plausibility: pair indices in range, known classes, ordered
    /// intervals inside the device's classification range, and record
    /// references pointing at existing pairs.
    static helperdata::SanityReport sanity(
        const tempaware::TempAwarePuf& puf, const Helper& helper,
        helperdata::SanityMode mode = helperdata::SanityMode::Explain) {
        auto report = helperdata::check_pair_list(helper.pairs, puf.array().count(),
                                                  /*forbid_reuse=*/false, mode);
        if (report.settled()) return report;
        const int n = static_cast<int>(helper.pairs.size());
        if (helper.records.size() != helper.pairs.size()) {
            if (report.fail("tempaware: record count differs from pair count")) return report;
        }
        const auto& cls_cfg = puf.config().classification;
        for (std::size_t p = 0; p < helper.records.size(); ++p) {
            const auto& rec = helper.records[p];
            const auto record = [p](const char* what) {
                return [p, what] { return "record " + std::to_string(p) + ": " + what; };
            };
            if (rec.cls != tempaware::PairClass::Bad &&
                rec.cls != tempaware::PairClass::Good &&
                rec.cls != tempaware::PairClass::Cooperating) {
                if (report.fail(record("unknown class"))) return report;
                continue;
            }
            if (rec.cls != tempaware::PairClass::Cooperating) continue;
            if (rec.t_low > rec.t_high) {
                if (report.fail(record("inverted interval"))) return report;
            }
            if (rec.t_low < cls_cfg.t_min || rec.t_high > cls_cfg.t_max) {
                if (report.fail(record("interval outside the classification range"))) {
                    return report;
                }
            }
            if (rec.helper_pair < 0 || rec.helper_pair >= n || rec.mask_pair < 0 ||
                rec.mask_pair >= n) {
                if (report.fail(record("dangling pair reference"))) return report;
            }
        }
        return report;
    }
};

} // namespace ropuf::core

// Relation recovery against temperature-aware cooperative RO PUFs
// (paper Section VI-B), extended to full key recovery.
//
// Paper core: "Consider a first cooperating pair, having response bit rc1 and
// requesting assistance. ... Consider another cooperating pair, having
// response bit rcj. Helper data is modified so that rcj provides assistance,
// assuming reliability for the given temperature. If H0 [rci = rcj] is
// correct, the failure rate is not modified. However, if H1 is correct, the
// failure rate does increase."
//
// Implemented phases:
//   1. Anchor pair c1 (a cooperating pair whose record can be widened without
//      side effects) has its crossover interval stretched over the ambient
//      temperature, forcing the masked-assistance path; substituting every
//      other cooperating pair cj as the assistant reveals rcj XOR rci.
//   2. A second requester resolves rc1 itself relative to rci.
//   3. Extension (beyond the paper's explicit claim): substituting the
//      masking *good* pair g' for g1 reveals rg' XOR rg1, and the enrollment
//      constraint rc1 XOR rg1 = rci pins rg1 = (rc1 XOR rci) exactly —
//      so every good-pair bit is recovered outright, and the whole key is
//      known up to the single bit rci.
//   4. The two remaining candidates are separated by rewriting the ECC
//      redundancy, as in Section VI-A.
//
// The zero-query leakage of a deterministic helper-selection scan
// (Section IV-D's warning) is analyzed by analyze_deterministic_scan().
#pragma once

#include <optional>
#include <vector>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

namespace ropuf::attack {

class TempAwareAttack {
public:
    using Victim = attack::Victim<tempaware::TempAwarePuf>;

    struct Config {
        int majority_wins = 2;
        int max_probe_queries = 25;
        bool recover_good_pairs = true; ///< run the phase-3 extension
    };

    struct Result {
        /// Pair indices participating in the key (cls != Bad), i.e. the key layout.
        std::vector<int> coop_pairs;
        std::vector<int> good_pairs;
        /// Pairs whose real crossover interval contains the ambient
        /// temperature: not directly testable; recovered algebraically via
        /// the public masking constraint r_c = r_h XOR r_g.
        std::vector<int> skipped_pairs;
        /// Cooperating pairs whose relation to the anchor was measured by a
        /// direct substitution test (includes the anchor's assistant ci).
        std::vector<int> measured_pairs;
        bits::BitVec recovered_key; ///< empty when unresolved
        bool resolved = false;
        std::int64_t queries = 0;
        int relation_tests = 0;
    };

    /// Builds the manipulated helper for one assistance-substitution test:
    /// requester's interval widened over `ambient_c`, assistant replaced by
    /// `target` (or mask replaced when `substitute_mask`), plus `inject`
    /// parity-bit flips in the requester's ECC block.
    static tempaware::TempAwareHelper make_substitution_helper(
        const tempaware::TempAwareHelper& pristine, const ecc::BchCode& code, int requester,
        int target, bool substitute_mask, double ambient_c, int inject);

    /// Zero-query leakage from a deterministic helper-selection scan: every
    /// returned (j, h) pair satisfies r_j != r_h with certainty.
    static std::vector<std::pair<int, int>> analyze_deterministic_scan(
        const tempaware::TempAwareHelper& pristine);

    /// The paper's construction-specific error injection ("via manipulation
    /// of the interval boundaries Tl and Th"): reclassifies `count` stable
    /// pairs as cooperating with a stored interval entirely below the ambient
    /// temperature, forcing the device to invert their (stable) bits — one
    /// deterministic error each, no parity access needed. Targets good pairs
    /// first, then cooperating pairs whose real interval lies above ambient.
    /// Throws std::invalid_argument when fewer than `count` such pairs exist.
    static tempaware::TempAwareHelper make_boundary_injection_helper(
        const tempaware::TempAwareHelper& pristine, double ambient_c, int count);
};

/// The Section VI-B attack as a propose/observe session: assistance/mask
/// substitution relation tests, algebraic resolution, final two-candidate
/// ECC comparison. `ambient_c` must match the victim's operating point.
class TempAwareSession final : public CoroSession {
public:
    TempAwareSession(tempaware::TempAwareHelper pristine, ecc::BchCode code, double ambient_c,
                     TempAwareAttack::Config config = {});

    /// Valid once done().
    const TempAwareAttack::Result& result() const { return out_; }

    bits::BitVec partial_key() const override;
    bool resolved() const override { return out_.resolved; }
    std::string notes() const override;

private:
    SessionBody body();
    /// One assistance/mask substitution test through requester `requester`.
    Sub<std::uint8_t> relation_test(int requester, int target, bool mask);

    tempaware::TempAwareHelper pristine_;
    ecc::BchCode code_;
    double ambient_c_;
    TempAwareAttack::Config config_;
    /// v[p] = r_p XOR r_ci for cooperating pairs (phase-1 knowledge).
    std::vector<std::optional<std::uint8_t>> v_;
    TempAwareAttack::Result out_;
};

} // namespace ropuf::attack

// Full key recovery against group-based RO PUFs (paper Section VI-C, Fig. 6a).
//
// "An attacker can retrieve the full key for group-based RO PUFs, due to the
// ability to directly reprogram the key. By injecting steep polynomials into
// the entropy distiller, one can completely overshadow random frequency
// variations. ... Via repartitioning of the groups, one can force bits to be
// either '1' or '0'. Also the remaining helper bits, which represent the ECC
// redundancy, are updated accordingly."
//
// The attack is organized around a *remote comparator*: one oracle experiment
// that reveals, for any two ROs a and b, which has the larger distilled
// residual. The comparator instance:
//   * injects beta' = beta_enrolled - S with S a steep plane whose gradient
//     is perpendicular to the segment a->b (so S(a) = S(b) and the target
//     comparison stays purely physical, while every other repartitioned
//     2-RO group is forced);
//   * repartitions: G1 = {a, b}; the remaining ROs are paired along the
//     gradient (singletons where no partner is available);
//   * recomputes the ECC redundancy for both hypotheses with t known bits
//     inverted in the target's block (the paper's injection);
//   * reprograms the key: the oracle compares against the attacker-expected
//     packed key of each hypothesis.
//
// Because the enrollment *group assignment is public*, the attacker knows
// exactly which RO pairs carry key material: sorting every enrolled group
// with the comparator reconstructs all frequency orders, hence the full key.
// Both a merge-sort driver (~ g log g comparisons per group) and an
// exhaustive all-pairs driver (the E13 ablation) are provided.
#pragma once

#include <optional>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/group/group_puf.hpp"

namespace ropuf::attack {

class GroupBasedAttack {
public:
    using Victim = attack::Victim<group::GroupBasedPuf>;

    enum class Mode {
        SortMerge,       ///< merge-sort each group: ~g log g comparisons
        ExhaustivePairs, ///< all g(g-1)/2 pairwise bits (Kendall-direct)
    };

    struct Config {
        double steep_amp = 1000.0; ///< plane gradient amplitude (MHz / cell)
        Mode mode = Mode::SortMerge;
        int majority_wins = 2;
        int max_probe_queries = 25;
        int max_retries = 4; ///< re-runs of an inconclusive comparison
        /// Detect blanket refusal and fall back to plausibility-capped
        /// planes (attack/adaptive.hpp); stop probing when even capped
        /// surfaces die (MAC-bound or bricked device).
        bool adaptive = false;
        double plausibility_cap = 400.0; ///< attacker's |beta| envelope estimate (MHz)
    };

    struct Result {
        bits::BitVec recovered_key;
        bool complete = false;      ///< every comparison resolved
        std::int64_t queries = 0;
        int comparisons = 0;        ///< comparator invocations
    };

    /// One fully-built comparator experiment: helpers and expected keys for
    /// both hypotheses (h = 1 means "residual of the higher-indexed RO of
    /// {a, b} exceeds the lower-indexed one"). Exposed for the Fig. 6a bench,
    /// which renders the injected pattern and repartition map.
    struct ComparisonInstance {
        group::GroupPufHelper helper[2];
        bits::BitVec expected_key[2];
        std::vector<int> group_of;      ///< the attacker's repartition
        std::vector<double> surface;    ///< injected S per RO (row-major)
        int target_a = 0, target_b = 0;
    };
    static ComparisonInstance build_comparison(const group::GroupPufHelper& pristine,
                                               const sim::ArrayGeometry& geometry,
                                               const ecc::BchCode& code, int a, int b,
                                               double steep_amp);

    /// The buffers of one comparator experiment, reused across comparisons:
    /// once they have grown, a build allocates only the two parity vectors.
    struct ComparisonWorkspace {
        ComparisonInstance instance;
        std::vector<int> order;        ///< the other ROs, ascending S (then index)
        std::vector<int> key_start;    ///< counting-sort offsets per plane key
        std::vector<int> bucket_start; ///< bucket j is order[bucket_start[j], bucket_start[j+1])
        std::vector<std::uint64_t> kendall; ///< packed Kendall bits of one hypothesis
    };

    /// build_comparison into `ws.instance`, bit for bit the same instance.
    static void build_comparison(const group::GroupPufHelper& pristine,
                                 const sim::ArrayGeometry& geometry, const ecc::BchCode& code,
                                 int a, int b, double steep_amp, ComparisonWorkspace& ws);
};

/// The Section VI-C attack as a propose/observe session: merge-sorts (or
/// exhaustively compares) every enrolled group with the remote residual
/// comparator, one reprogrammed-key probe per step.
class GroupSession final : public CoroSession {
public:
    GroupSession(group::GroupPufHelper pristine, sim::ArrayGeometry geometry,
                 ecc::BchCode code, GroupBasedAttack::Config config = {});

    /// Valid once done().
    const GroupBasedAttack::Result& result() const { return out_; }

    bits::BitVec partial_key() const override;
    bool resolved() const override { return out_.complete; }
    std::string notes() const override;

private:
    SessionBody body();
    /// Comparator as a sub-step: true iff residual(a) > residual(b).
    Sub<std::optional<bool>> compare(int a, int b);
    /// One merge-sort comparison on group labels; an inconclusive
    /// comparator falls back to the label order and marks the group failed.
    Sub<bool> cmp_labels(int la, int lb, const std::vector<int>& labels, bool& group_ok);
    /// Largest plane amplitude for (a, b) whose injected coefficients stay
    /// inside the plausibility cap (adaptive fallback).
    double capped_amp(int a, int b) const;

    group::GroupPufHelper pristine_;
    sim::ArrayGeometry geometry_;
    ecc::BchCode code_;
    GroupBasedAttack::Config config_;
    GroupBasedAttack::ComparisonWorkspace workspace_;
    int groups_total_ = 0;
    bool fell_back_ = false;      ///< capped planes are now the active mode
    bool dead_ = false;           ///< even capped probes die: stop spending queries
    int dead_comparisons_ = 0;    ///< fully inconclusive comparisons in a row
    bits::BitVec partial_; ///< packed keys of the groups sorted so far
    GroupBasedAttack::Result out_;
};

} // namespace ropuf::attack

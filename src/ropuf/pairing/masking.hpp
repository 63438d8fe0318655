// 1-out-of-k masking (paper Section IV-B, Suh & Devadas [6]).
//
// "A 1-out-of-k masking scheme is applied to a fixed set of RO pairs, such as
// a chain of neighbors. The pairs are partitioned into groups, each
// containing k pairs. During enrollment, the pair which maximizes |Δf| is
// selected within each group, favoring reliability as such. The corresponding
// indices are saved in public helper NVM."
#pragma once

#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/helperdata/formats.hpp"

namespace ropuf::pairing {

/// The public selection indices: one entry per complete group of k base
/// pairs; trailing base pairs that do not fill a group are unused.
struct MaskingHelper {
    int k = 0;
    std::vector<int> selected; ///< selected[g] in [0, k): pair index within group g
};

/// Enrollment: selects, per group of k consecutive base pairs, the pair with
/// the largest |discrepancy|.
MaskingHelper enroll_masking(const std::vector<helperdata::IndexPair>& base_pairs,
                             const std::vector<double>& values, int k);

/// Resolves the selected pairs from the base pair list and the helper.
/// Out-of-range selections throw helperdata::ParseError (the naive device
/// trusts but cannot index outside its multiplexer).
std::vector<helperdata::IndexPair> select_pairs(
    const std::vector<helperdata::IndexPair>& base_pairs, const MaskingHelper& helper);

/// select_pairs into `out` (reusing its storage) without throwing: returns
/// nullptr on success, else the reason select_pairs throws.
const char* select_pairs_into(const std::vector<helperdata::IndexPair>& base_pairs,
                              const MaskingHelper& helper,
                              std::vector<helperdata::IndexPair>& out);

/// Number of complete groups (= number of response bits).
int masking_group_count(std::size_t base_pair_count, int k);

} // namespace ropuf::pairing

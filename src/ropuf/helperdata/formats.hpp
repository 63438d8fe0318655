// Concrete helper-data storage formats.
//
// Section VII-C: "many proposals are rather vague about their use of helper
// data. The precise storage format, parsing procedure and/or sanity checks
// are typically not specified. Although subtle differences might impact
// security tremendously." This module pins those choices down — including the
// *insecure* variants the paper warns about, so their leakage can be
// demonstrated:
//
//  * PairOrderPolicy::SortedByFrequency stores each pair as (faster, slower).
//    For the sequential pairing algorithm this leaks the full key with zero
//    oracle queries (every response bit is readable from the order).
//  * PairOrderPolicy::Randomized stores the two indices in random order,
//    which is the paper's recommended fix.
#pragma once

#include <utility>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::helperdata {

/// An (unordered) RO pair stored in helper NVM as two indices.
using IndexPair = std::pair<int, int>;

/// How a pair's two RO indices are ordered in NVM (Section VII-C).
enum class PairOrderPolicy {
    SortedByFrequency, ///< insecure: (higher-f RO, lower-f RO) — leaks r directly
    Randomized,        ///< recommended: coin-flip order per pair
};

/// Serializes a pair list under the given policy. `freq_of` supplies the
/// enrolled frequency per RO index (needed by the sorted policy; the
/// randomized policy consumes one RNG bit per pair).
void write_pair_list(BlobWriter& w, const std::vector<IndexPair>& pairs,
                     const std::vector<double>& freq_of, PairOrderPolicy policy,
                     rng::Xoshiro256pp& rng);

/// Reads back a pair list (the device side; order information is preserved
/// exactly as stored, since a naive device uses it as-is).
std::vector<IndexPair> read_pair_list(BlobReader& r);

/// Serializes / reads entropy-distiller polynomial coefficients.
void write_coefficients(BlobWriter& w, const std::vector<double>& beta);
std::vector<double> read_coefficients(BlobReader& r);
/// Coefficient equality by bit pattern (-0.0 differs from 0.0, NaNs compare
/// by payload): true iff write_coefficients writes the same bytes for both.
bool same_coefficients(const std::vector<double>& a, const std::vector<double>& b);

/// Serializes / reads per-RO group assignments (group-based PUF).
void write_group_assignment(BlobWriter& w, const std::vector<int>& group_of);
std::vector<int> read_group_assignment(BlobReader& r);

} // namespace ropuf::helperdata

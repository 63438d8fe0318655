// Chain-of-neighbors RO pairing (paper Section IV-A).
//
// "Pairing neighboring ROs is perhaps the most intuitive approach. The
// reduced impact of spatial correlations is the main advantage. For disjunct
// pairs, floor(N/2) independent bits can be generated. By sharing ROs across
// pairs, up to N-1 independent bits can be generated."
//
// Two traversal orders are supported:
//  * RowMajor — indices 0,1,2,...: the ordering used in the paper's Fig. 6c
//    illustration (consecutive indices, rows concatenated);
//  * Serpentine — boustrophedon traversal, where consecutive chain entries
//    are always physically adjacent on the die.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ropuf/helperdata/formats.hpp"
#include "ropuf/sim/geometry.hpp"

namespace ropuf::pairing {

using helperdata::IndexPair;

enum class ChainOrder {
    RowMajor,   ///< 0,1,2,... (paper Fig. 6c numbering)
    Serpentine, ///< boustrophedon; physical adjacency along the whole chain
};

enum class ChainOverlap {
    Disjoint,    ///< pairs (c0,c1), (c2,c3), ...: floor(N/2) bits
    Overlapping, ///< pairs (c0,c1), (c1,c2), ...: N-1 bits
};

/// Builds the neighbor chain pairing for an array. Pair orientation is
/// (earlier-in-chain, later-in-chain); the response bit of a pair (a, b) is
/// defined as r = [f_a > f_b].
std::vector<IndexPair> neighbor_chain(const sim::ArrayGeometry& g, ChainOrder order,
                                      ChainOverlap overlap);

/// Evaluates response bits for a pair list on a measured frequency (or
/// distilled residual) map: r_i = [value[first] > value[second]].
bits::BitVec evaluate_pairs(const std::vector<IndexPair>& pairs,
                            std::span<const double> values);

/// Bit-packed comparator: the bits of evaluate_pairs in the bits::pack_words
/// layout (MSB-first, trailing bits zero) — what BlockEcc decodes directly.
/// `out` holds bits::word_count(pairs.size()) words.
void evaluate_pairs_packed(const std::vector<IndexPair>& pairs, std::span<const double> values,
                           std::span<std::uint64_t> out);

/// Majority vote over `scans` consecutive frequency maps: `values` holds
/// scans * stride doubles (scan s at [s*stride, s*stride + stride)), and
/// response bit i is 1 iff pair i evaluated to 1 in strictly more than
/// scans/2 of the scans. This is the noise-suppressed read used by
/// enrollment-style flows; runs bit-packed end to end.
bits::BitVec evaluate_pairs_majority(const std::vector<IndexPair>& pairs,
                                     std::span<const double> values, int scans,
                                     std::size_t stride);

/// Nominal discrepancies value[first] - value[second], one per pair.
std::vector<double> pair_discrepancies(const std::vector<IndexPair>& pairs,
                                       const std::vector<double>& values);

} // namespace ropuf::pairing

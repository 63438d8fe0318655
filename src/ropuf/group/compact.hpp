// Compact (entropy-packing) coding of frequency orders
// (paper Section V-C Table I and Section V-E).
//
// The most compact representation of a g-RO order uses ceil(log2(g!)) bits:
// the lexicographic (Lehmer) rank of the permutation, MSB-first. This matches
// the "Compact" column of Table I exactly (ABCD -> 00000, ABDC -> 00001, ...,
// DCBA -> 10111).
//
// "However, please note that the problem is only fixed partially, since |Gj|!
// is not a power of two, given |Gj| > 2" — quantified by pack_efficiency().
#pragma once

#include <cstdint>
#include <stdexcept>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/group/kendall.hpp"

namespace ropuf::group {

/// Largest group whose order rank fits 64 bits (20! < 2^64).
inline constexpr int kMaxCompactGroup = 20;

/// g! for 0 <= g <= kMaxCompactGroup; throws std::invalid_argument otherwise.
constexpr std::uint64_t factorial(int g) {
    if (g < 0 || g > kMaxCompactGroup) {
        throw std::invalid_argument("factorial: need 0 <= g <= 20");
    }
    std::uint64_t f = 1;
    for (int i = 2; i <= g; ++i) f *= static_cast<std::uint64_t>(i);
    return f;
}

/// Bits of the compact representation: ceil(log2(g!)).
constexpr int compact_bits(int g) {
    const std::uint64_t f = factorial(g);
    int b = 0;
    while ((std::uint64_t{1} << b) < f) ++b;
    return b;
}

/// Lexicographic rank of a permutation (Lehmer code).
std::uint64_t lehmer_rank(const Order& order);

/// Inverse of lehmer_rank.
Order lehmer_unrank(std::uint64_t rank, int g);

/// Encodes an order as its rank, MSB-first in compact_bits(g) bits.
bits::BitVec compact_encode(const Order& order);

/// Decodes a compact vector; ranks >= g! (unused codepoints) return the
/// identity order of rank 0 after reduction modulo g! — flagged via `valid`.
struct CompactDecode {
    Order order;
    bool valid = false;
};
CompactDecode compact_decode(const bits::BitVec& code, int g);

/// Entropy efficiency of packing: log2(g!) / compact_bits(g), in (0, 1].
double pack_efficiency(int g);

} // namespace ropuf::group

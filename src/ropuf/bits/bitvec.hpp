// Bit-vector utilities shared by every helper-data construction.
//
// PUF responses, ECC codewords and helper blobs are all sequences of bits.
// At API boundaries we represent them as std::vector<uint8_t> with one bit
// (0/1) per element: simple and debuggable. The per-probe hot paths (BCH
// parity/syndromes/decode, BlockEcc block assembly, the group PUF's Kendall
// bits) run on the packed form instead: bit i of a sequence is bit
// 63 - i % 64 of u64 word i / 64 (MSB-first, the order pack_bytes uses),
// and bits past the end are zero. pack_words/unpack_words convert between
// the two; byte packing is provided for hashing and NVM serialization.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::bits {

/// One logical bit per element; every element must be 0 or 1.
using BitVec = std::vector<std::uint8_t>;

/// XOR of two equal-length bit vectors. Aborts (assert) on length mismatch.
BitVec xor_bits(const BitVec& a, const BitVec& b);

/// In-place XOR: a ^= b.
void xor_into(BitVec& a, const BitVec& b);

/// Number of set bits.
int weight(const BitVec& v);

/// True when every element is 0 or 1 (the BitVec invariant; a helper blob
/// stores any other element as 1).
bool is_binary(const BitVec& v);

/// Hamming distance between two equal-length vectors.
int hamming(const BitVec& a, const BitVec& b);

/// Flips bit `pos` in place.
void flip(BitVec& v, std::size_t pos);

/// Flips `count` distinct random positions; returns the chosen positions.
std::vector<std::size_t> flip_random(BitVec& v, int count, rng::Xoshiro256pp& rng);

/// Uniformly random bit vector of length n.
BitVec random_bits(std::size_t n, rng::Xoshiro256pp& rng);

/// All-zero / all-one vectors.
BitVec zeros(std::size_t n);
BitVec ones(std::size_t n);

/// Complement (logical NOT) of every bit.
BitVec complement(const BitVec& v);

/// Concatenation.
BitVec concat(const BitVec& a, const BitVec& b);

/// Slice [begin, begin+len).
BitVec slice(const BitVec& v, std::size_t begin, std::size_t len);

/// Packs bits MSB-first into bytes (final byte zero-padded).
std::vector<std::uint8_t> pack_bytes(const BitVec& v);

/// Unpacks `nbits` bits MSB-first from a byte sequence.
BitVec unpack_bytes(std::span<const std::uint8_t> bytes, std::size_t nbits);

/// Renders as a '0'/'1' string, e.g. "010011".
std::string to_string(const BitVec& v);

/// Parses a '0'/'1' string; throws std::invalid_argument on other characters.
BitVec from_string(std::string_view s);

/// u64 words needed to hold `nbits` packed bits.
constexpr std::size_t word_count(std::size_t nbits) { return (nbits + 63) / 64; }

/// Bit `i` of a packed sequence.
inline bool test_bit(std::span<const std::uint64_t> words, std::size_t i) {
    return ((words[i / 64] >> (63 - i % 64)) & 1u) != 0;
}

/// Sets bit `i` of a packed sequence.
inline void set_bit(std::span<std::uint64_t> words, std::size_t i) {
    words[i / 64] |= std::uint64_t{1} << (63 - i % 64);
}

/// Flips bit `i` of a packed sequence.
inline void flip_bit(std::span<std::uint64_t> words, std::size_t i) {
    words[i / 64] ^= std::uint64_t{1} << (63 - i % 64);
}

/// Packs `v` into out[0, word_count(v.size())) — any nonzero element is a
/// 1 — and zeroes the rest of `out`.
void pack_words(const BitVec& v, std::span<std::uint64_t> out);

/// Unpacks the first `nbits` bits of a packed sequence.
BitVec unpack_words(std::span<const std::uint64_t> words, std::size_t nbits);

/// Copies bits [from, from + len) of `src` to bits [to, to + len) of `dst`;
/// every other bit of `dst` is kept.
void copy_bits(std::span<const std::uint64_t> src, std::size_t from,
               std::span<std::uint64_t> dst, std::size_t to, std::size_t len);

/// Interprets the vector MSB-first as an unsigned integer (n <= 64 bits).
std::uint64_t to_u64(const BitVec& v);

/// Writes `value` MSB-first into `nbits` bits.
BitVec from_u64(std::uint64_t value, std::size_t nbits);

/// Fractional Hamming weight (bias estimator): weight / size.
double bias(const BitVec& v);

} // namespace ropuf::bits

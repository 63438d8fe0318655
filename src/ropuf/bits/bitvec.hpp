// Bit-vector utilities shared by every helper-data construction.
//
// PUF responses, ECC codewords and helper blobs are all sequences of bits.
// We represent them as std::vector<uint8_t> with one bit (0/1) per element:
// simple, debuggable, and fast enough for key-generation-sized vectors
// (tens to a few thousand bits). Byte packing is provided for hashing and
// NVM serialization.
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

/// Interprets the vector MSB-first as an unsigned integer (n <= 64 bits).
std::uint64_t to_u64(const BitVec& v);

/// Writes `value` MSB-first into `nbits` bits.
BitVec from_u64(std::uint64_t value, std::size_t nbits);

/// Fractional Hamming weight (bias estimator): weight / size.
double bias(const BitVec& v);

} // namespace ropuf::bits

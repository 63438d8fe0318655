// Binary primitive BCH codes: systematic encoder and Berlekamp–Massey/Chien
// decoder.
//
// The paper assumes "an ECC construction, able to correct t errors per block"
// (Section VI). BCH is the standard instantiation for PUF key generation and
// the one the group-based RO PUF literature borrows. Code length is
// n = 2^m - 1; the dimension k follows from the generator polynomial.
//
// Codeword layout (MSB-first): index i in [0, n) holds the coefficient of
// x^(n-1-i); the first k bits are the message (systematic), the remaining
// n-k bits are parity.
//
// The codec works on packed u64 words (bits::pack_words layout, bits past
// the end zero) in fixed stack scratch — n < 2^14 bounds a word at 256 u64s.
// The BitVec overloads pack, call the one word path and unpack.
#pragma once

#include <span>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/ecc/gf2m.hpp"
#include "ropuf/simd/simd.hpp"

namespace ropuf::ecc {

/// A t-error-correcting binary BCH code of length n = 2^m - 1.
class BchCode {
public:
    /// Builds the code from the field degree m and design error-correction
    /// capability t. Throws std::invalid_argument when the generator
    /// polynomial would leave no message bits (t too large for m).
    BchCode(int m, int t);

    int n() const { return n_; }
    int k() const { return k_; }
    int t() const { return t_; }
    int parity_bits() const { return n_ - k_; }
    const Gf2m& field() const { return field_; }

    /// Generator polynomial coefficients over GF(2), index i = coeff of x^i.
    const std::vector<std::uint8_t>& generator() const { return generator_; }

    /// Systematic encode: returns [message || parity], length n.
    bits::BitVec encode(const bits::BitVec& message) const;

    /// Parity bits only (length n-k) for a k-bit message. This is the
    /// "ECC redundancy" the attacked constructions store as helper data.
    bits::BitVec parity(const bits::BitVec& message) const;

    /// Word form of parity(): `message` holds the k message bits packed;
    /// the n-k parity bits are written packed to parity[0, word_count(n-k)).
    void parity_words(std::span<const std::uint64_t> message,
                      std::span<std::uint64_t> parity) const;

    struct DecodeResult {
        bool ok = false;            ///< decoder produced a codeword
        bits::BitVec codeword;      ///< corrected word (= input when !ok)
        int corrected = 0;          ///< number of bit flips applied
    };

    /// Decodes a received length-n word. `ok == false` flags decoder failure
    /// (more than t errors detected); miscorrection to a wrong codeword is
    /// possible when more than t errors occurred, exactly as in hardware.
    DecodeResult decode(const bits::BitVec& received) const;

    struct WordDecode {
        bool ok = false;   ///< decoder produced a codeword
        int corrected = 0; ///< number of bit flips applied
    };

    /// The decoder: `word` holds a received length-n word packed
    /// (word_count(n) words, bits past n zero) and is corrected in place;
    /// it is left exactly as received when ok is false.
    WordDecode decode_in_place(std::span<std::uint64_t> word) const;

    /// Extracts the k message bits from a codeword.
    bits::BitVec message_of(const bits::BitVec& codeword) const;

    /// True iff `word` is a codeword (all syndromes zero).
    bool is_codeword(const bits::BitVec& word) const;

    /// Non-owning table view for the simd syndrome kernel, assembled on
    /// demand so copies of a BchCode never hold stale pointers. Exposed for
    /// the kernel equivalence tests and microbenchmarks; valid only as long
    /// as this BchCode is.
    simd::BchHornerView horner_view() const;

private:
    /// Writes syndromes S_1..S_2t of a packed received word to s[0..2t);
    /// returns false when all are zero.
    bool syndromes(std::span<const std::uint64_t> word, int* s) const;

    /// Builds the byte-at-a-time parity division table.
    void build_parity_table();

    /// Builds the byte-wise Horner tables the syndrome kernel consumes.
    void build_horner_tables();

    Gf2m field_;
    int n_;
    int t_;
    int k_;
    std::vector<std::uint8_t> generator_; // GF(2) coefficients, degree n-k
    // [256][word_count(n-k)]: row v = v(x) * x^(n-k) mod g(x), packed with
    // the coefficient of x^(n-k-1) first (see parity_words).
    std::vector<std::uint64_t> parity_tbl_;

    // Syndrome kernel tables (see build_horner_tables for the math).
    std::vector<std::uint16_t> horner_byte_tbl_;  // [2t][256]
    std::vector<std::uint16_t> horner_mul_tbl_;   // [2t][2^m]; empty when m > 12
    std::vector<std::uint16_t> horner_step_log_;  // [2t]
    std::vector<std::uint16_t> horner_fixup_log_; // [2t]
};

} // namespace ropuf::ecc

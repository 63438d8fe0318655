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
#pragma once

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

    struct DecodeResult {
        bool ok = false;            ///< decoder produced a codeword
        bits::BitVec codeword;      ///< corrected word (= input when !ok)
        int corrected = 0;          ///< number of bit flips applied
    };

    /// Decodes a received length-n word. `ok == false` flags decoder failure
    /// (more than t errors detected); miscorrection to a wrong codeword is
    /// possible when more than t errors occurred, exactly as in hardware.
    DecodeResult decode(const bits::BitVec& received) const;

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
    /// Writes syndromes S_1..S_2t of the received word to s[0..2t); returns
    /// false when all are zero.
    bool syndromes(const bits::BitVec& received, int* s) const;

    /// Builds the byte-wise Horner tables the syndrome kernel consumes.
    void build_horner_tables();

    Gf2m field_;
    int n_;
    int t_;
    int k_;
    std::vector<std::uint8_t> generator_; // GF(2) coefficients, degree n-k
    // Generator without its leading term as a (n-k)-bit integer, bit d =
    // coeff of x^d, little-endian u64 words: the parity LFSR's feedback taps.
    std::vector<std::uint64_t> feedback_words_;

    // Syndrome kernel tables (see build_horner_tables for the math).
    std::vector<std::uint16_t> horner_byte_tbl_;  // [2t][256]
    std::vector<std::uint16_t> horner_mul_tbl_;   // [2t][2^m]; empty when m > 12
    std::vector<std::uint16_t> horner_step_log_;  // [2t]
    std::vector<std::uint16_t> horner_fixup_log_; // [2t]
};

} // namespace ropuf::ecc

// Multi-block ECC manager.
//
// Paper Section VI: "For ease of explanation, we assume all bits to fit
// within a single ECC block. However, extension to multiple blocks is fairly
// straightforward." This class is that extension: it splits an arbitrary
// response bit-string into blocks over a (possibly shortened) systematic BCH
// code, stores one parity vector per block as helper data, and reconstructs
// block by block. All attacked constructions share it.
#pragma once

#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/ecc/bch.hpp"
#include "ropuf/ecc/helper_constructions.hpp"

namespace ropuf::ecc {

/// Helper data of a BlockEcc enrollment: one parity vector per block,
/// concatenated. Freely readable and writable by the attacker.
struct BlockEccHelper {
    bits::BitVec parity;   ///< concatenated per-block parity bits
    int response_bits = 0; ///< total enrolled response length
};

/// Field-for-field equality of two ECC helpers.
inline bool same_helper(const BlockEccHelper& a, const BlockEccHelper& b) {
    return a.response_bits == b.response_bits && a.parity == b.parity;
}

/// Splits a response into shortened-BCH blocks with published parity.
class BlockEcc {
public:
    /// `code` is borrowed and must outlive the BlockEcc.
    explicit BlockEcc(const BchCode& code) : code_(&code) {}

    const BchCode& code() const { return *code_; }

    /// Number of blocks used for a response of `response_bits` bits.
    int block_count(int response_bits) const;

    /// Data bits carried by block `b` (the final block may be shorter).
    int block_data_bits(int response_bits, int block) const;

    /// Total helper bits for a response of the given length.
    int helper_bits(int response_bits) const;

    /// Enrollment: computes per-block parity of the reference response.
    BlockEccHelper enroll(const bits::BitVec& reference) const;

    /// Word form: `reference` holds `response_bits` packed bits.
    BlockEccHelper enroll(std::span<const std::uint64_t> reference, int response_bits) const;

    struct WordResult {
        bool ok = false;       ///< every block decoded successfully
        int corrected = 0;     ///< total corrected errors across blocks
        int failed_blocks = 0; ///< blocks whose decoder reported failure
    };

    /// Reconstructs the reference response from a noisy re-measurement and
    /// (possibly manipulated) helper data. `noisy` holds
    /// helper.response_bits packed bits; the reconstructed response is
    /// written packed to `out` (a failed block keeps its noisy bits). `out`
    /// must not overlap `noisy`.
    WordResult reconstruct(std::span<const std::uint64_t> noisy, const BlockEccHelper& helper,
                           std::span<std::uint64_t> out) const;

    /// True iff reconstruct(noisy, helper, out) would succeed and write
    /// exactly `reference` (helper.response_bits packed bits) — decided
    /// without decoding. The bounded-distance decoder returns a block's
    /// reference data iff its received word [data | parity] lies within t
    /// of the reference's codeword (d_min >= 2t+1): otherwise it fails or
    /// lands on another codeword, whose data differs or whose shortened
    /// prefix is nonzero. So per block, popcount(noisy ^ reference) over the
    /// data plus popcount(helper parity ^ parity(reference)) must be <= t.
    /// A nonzero helper parity element counts as 1, as in reconstruct().
    bool decodes_to(std::span<const std::uint64_t> noisy, const BlockEccHelper& helper,
                    std::span<const std::uint64_t> reference) const;

    /// The same verdict for a byte-per-bit key, packed into per-thread
    /// scratch: false when `key` is not helper.response_bits long or holds
    /// an element other than 0 and 1, since no regenerated key equals it.
    bool decodes_to(std::span<const std::uint64_t> noisy, const BlockEccHelper& helper,
                    const bits::BitVec& key) const;

    /// Exact number of bit errors each block would present to the decoder,
    /// given a noiseless reference and a noisy response. Used to regenerate
    /// the error-count PDFs of Fig. 5.
    std::vector<int> block_error_counts(const bits::BitVec& reference,
                                        const bits::BitVec& noisy) const;

private:
    const BchCode* code_;
};

} // namespace ropuf::ecc

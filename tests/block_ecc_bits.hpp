// Byte-per-bit view of BlockEcc's packed-word reconstruction, for tests that
// state responses as bits::BitVec.
#pragma once

#include <cstdint>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/ecc/block_ecc.hpp"

namespace ropuf::ecc_test {

struct BitsResult {
    bool ok = false;       ///< every block decoded successfully
    bits::BitVec value;    ///< reconstructed response (a failed block keeps its noisy bits)
    int corrected = 0;     ///< total corrected errors across blocks
    int failed_blocks = 0; ///< blocks whose decoder reported failure
};

/// BlockEcc::reconstruct on `noisy` packed, with the result unpacked.
inline BitsResult reconstruct_bits(const ecc::BlockEcc& layout, const bits::BitVec& noisy,
                                   const ecc::BlockEccHelper& helper) {
    std::vector<std::uint64_t> in(bits::word_count(noisy.size()));
    std::vector<std::uint64_t> out(in.size());
    bits::pack_words(noisy, in);
    const auto rec = layout.reconstruct(in, helper, out);
    return {rec.ok, bits::unpack_words(out, noisy.size()), rec.corrected, rec.failed_blocks};
}

} // namespace ropuf::ecc_test

// Error-injection utilities — the attack accelerator of Section VI / Fig. 5.
//
// "PDFs corresponding to helper data hypotheses are slightly shifted with
// respect to each other and hence distinguishable. The common offset
// originates from additional errors, intentionally and symmetrically
// introduced to accelerate the attack."
//
// Two injection mechanisms are provided:
//
//  * flip_parity_bits — flips stored ECC redundancy bits. With a systematic
//    code, each flipped parity bit is one deterministic error at an
//    attacker-known position of the received word, requiring no knowledge of
//    the response. Flipping exactly t bits of a block puts the correct
//    hypothesis right at the correction boundary (fails only on residual
//    noise) while any hypothesis adding errors fails (almost) always.
//
//  * invert_for_parity — used when the attacker *recomputes* the redundancy
//    himself (constructions 3 and 4: "we just compute the ECC redundancy
//    given some inverted bit values"): inverts a chosen number of known bits
//    per block before the parity computation.
//
// calibrate_offset searches the injection level that puts the baseline
// failure rate inside a target band, for the general case where t or the
// noise level is unknown to the attacker (E13 ablation).
#pragma once

#include <functional>
#include <vector>

#include "ropuf/bits/bitvec.hpp"
#include "ropuf/ecc/block_ecc.hpp"

namespace ropuf::attack {

/// Flips `count` parity bits of block `block` inside a BlockEcc helper.
/// Distinct positions, deterministic choice (lowest indices first).
void flip_parity_bits(ecc::BlockEccHelper& helper, const ecc::BlockEcc& block_ecc, int block,
                      int count);

/// Inverts `count` bits of `bits` inside block `block` in place (lowest
/// positions first), avoiding the positions listed in `keep` (the bits under
/// hypothesis test must stay untouched). Throws std::invalid_argument when
/// the block does not contain enough eligible positions.
void invert_for_parity(bits::BitVec& bits, const ecc::BlockEcc& block_ecc, int block, int count,
                       const std::vector<int>& keep);

/// ECC block index that contains response-bit position `pos`.
int block_of_position(const ecc::BlockEcc& block_ecc, int pos);

struct CalibrationResult {
    int offset = 0;              ///< injection level found
    double failure_rate = 0.0;   ///< measured at that level
    std::int64_t queries = 0;
    bool ok = false;             ///< a level inside the band was found
};

/// Adaptive search: `probe_at(d)` performs one oracle query with d injected
/// errors; the search raises d from 0 until the measured failure rate enters
/// [band_low, band_high] (measured with `probes_per_level` queries each).
CalibrationResult calibrate_offset(const std::function<bool(int)>& probe_at, int max_offset,
                                   int probes_per_level, double band_low = 0.2,
                                   double band_high = 0.8);

} // namespace ropuf::attack

#include "ropuf/attack/calibration.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ropuf::attack {

void flip_parity_bits(ecc::BlockEccHelper& helper, const ecc::BlockEcc& block_ecc, int block,
                      int count) {
    const int p = block_ecc.code().parity_bits();
    assert(count >= 0 && count <= p);
    const int base = block * p;
    assert(base + count <= static_cast<int>(helper.parity.size()));
    for (int i = 0; i < count; ++i) {
        helper.parity[static_cast<std::size_t>(base + i)] ^= 1u;
    }
}

int block_of_position(const ecc::BlockEcc& block_ecc, int pos) {
    assert(pos >= 0);
    return pos / block_ecc.code().k();
}

void invert_for_parity(bits::BitVec& bits, const ecc::BlockEcc& block_ecc, int block, int count,
                       const std::vector<int>& keep) {
    const int k = block_ecc.code().k();
    const int begin = block * k;
    const int end = std::min(static_cast<int>(bits.size()), begin + k);
    int flipped = 0;
    for (int pos = begin; pos < end && flipped < count; ++pos) {
        bool protected_pos = false;
        for (int kp : keep) {
            if (kp == pos) {
                protected_pos = true;
                break;
            }
        }
        if (protected_pos) continue;
        bits[static_cast<std::size_t>(pos)] ^= 1u;
        ++flipped;
    }
    if (flipped < count) {
        throw std::invalid_argument("invert_for_parity: not enough eligible positions in block");
    }
}

CalibrationResult calibrate_offset(const std::function<bool(int)>& probe_at, int max_offset,
                                   int probes_per_level, double band_low, double band_high) {
    CalibrationResult out;
    for (int d = 0; d <= max_offset; ++d) {
        int failures = 0;
        for (int q = 0; q < probes_per_level; ++q) {
            failures += probe_at(d) ? 1 : 0;
            ++out.queries;
        }
        const double rate = static_cast<double>(failures) / probes_per_level;
        if (rate >= band_low && rate <= band_high) {
            out.offset = d;
            out.failure_rate = rate;
            out.ok = true;
            return out;
        }
        if (rate > band_high) {
            // Overshot: report the previous level as the best effort.
            out.offset = d;
            out.failure_rate = rate;
            out.ok = false;
            return out;
        }
    }
    out.offset = max_offset;
    out.ok = false;
    return out;
}

} // namespace ropuf::attack

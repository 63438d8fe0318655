#include "ropuf/pairing/masking.hpp"

#include <cassert>
#include <cmath>

namespace ropuf::pairing {

int masking_group_count(std::size_t base_pair_count, int k) {
    assert(k >= 1);
    return static_cast<int>(base_pair_count) / k;
}

MaskingHelper enroll_masking(const std::vector<helperdata::IndexPair>& base_pairs,
                             const std::vector<double>& values, int k) {
    MaskingHelper helper;
    helper.k = k;
    const int groups = masking_group_count(base_pairs.size(), k);
    helper.selected.reserve(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) {
        int best = 0;
        double best_mag = -1.0;
        for (int j = 0; j < k; ++j) {
            const auto [a, b] = base_pairs[static_cast<std::size_t>(g * k + j)];
            const double mag = std::abs(values[static_cast<std::size_t>(a)] -
                                        values[static_cast<std::size_t>(b)]);
            if (mag > best_mag) {
                best_mag = mag;
                best = j;
            }
        }
        helper.selected.push_back(best);
    }
    return helper;
}

const char* select_pairs_into(const std::vector<helperdata::IndexPair>& base_pairs,
                              const MaskingHelper& helper,
                              std::vector<helperdata::IndexPair>& out) {
    if (helper.k < 1) return "masking: k < 1";
    const int groups = masking_group_count(base_pairs.size(), helper.k);
    if (static_cast<int>(helper.selected.size()) != groups) {
        return "masking: selection count does not match group count";
    }
    out.clear();
    for (int g = 0; g < groups; ++g) {
        const int j = helper.selected[static_cast<std::size_t>(g)];
        if (j < 0 || j >= helper.k) return "masking: selection out of range";
        out.push_back(base_pairs[static_cast<std::size_t>(g * helper.k + j)]);
    }
    return nullptr;
}

std::vector<helperdata::IndexPair> select_pairs(
    const std::vector<helperdata::IndexPair>& base_pairs, const MaskingHelper& helper) {
    std::vector<helperdata::IndexPair> out;
    out.reserve(helper.selected.size());
    if (const char* error = select_pairs_into(base_pairs, helper, out)) {
        throw helperdata::ParseError(error);
    }
    return out;
}

} // namespace ropuf::pairing

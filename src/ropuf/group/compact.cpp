#include "ropuf/group/compact.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

#include "ropuf/stats/estimators.hpp"

namespace ropuf::group {

std::uint64_t lehmer_rank(const Order& order) {
    const int g = static_cast<int>(order.size());
    std::uint64_t rank = 0;
    for (int r = 0; r < g; ++r) {
        // Count remaining labels smaller than order[r].
        int smaller = 0;
        for (int s = r + 1; s < g; ++s) {
            if (order[static_cast<std::size_t>(s)] < order[static_cast<std::size_t>(r)]) {
                ++smaller;
            }
        }
        rank += static_cast<std::uint64_t>(smaller) * factorial(g - 1 - r);
    }
    return rank;
}

Order lehmer_unrank(std::uint64_t rank, int g) {
    assert(rank < factorial(g));
    std::vector<int> available(static_cast<std::size_t>(g));
    std::iota(available.begin(), available.end(), 0);
    Order order;
    order.reserve(static_cast<std::size_t>(g));
    for (int r = 0; r < g; ++r) {
        const std::uint64_t f = factorial(g - 1 - r);
        const auto idx = static_cast<std::size_t>(rank / f);
        rank %= f;
        order.push_back(available[idx]);
        available.erase(available.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    return order;
}

bits::BitVec compact_encode(const Order& order) {
    const int g = static_cast<int>(order.size());
    return bits::from_u64(lehmer_rank(order), static_cast<std::size_t>(compact_bits(g)));
}

CompactDecode compact_decode(const bits::BitVec& code, int g) {
    assert(static_cast<int>(code.size()) == compact_bits(g));
    const std::uint64_t raw = bits::to_u64(code);
    const std::uint64_t f = factorial(g);
    CompactDecode out;
    out.valid = raw < f;
    out.order = lehmer_unrank(out.valid ? raw : raw % f, g);
    return out;
}

double pack_efficiency(int g) {
    const int b = compact_bits(g);
    if (b == 0) return 1.0;
    return stats::log2_factorial(g) / static_cast<double>(b);
}

} // namespace ropuf::group

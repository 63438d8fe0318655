#include "ropuf/pairing/neighbor_chain.hpp"

#include <cassert>
#include <numeric>

#include "ropuf/obs/metrics.hpp"
#include "ropuf/simd/simd.hpp"

namespace ropuf::pairing {

namespace {

// The comparator kernels take the pair list as a flat int array; IndexPair
// is std::pair<int, int>, whose (first, second) layout matches int[2] on
// every ABI we target.
static_assert(sizeof(IndexPair) == 2 * sizeof(int));

const int* flat_pairs(const std::vector<IndexPair>& pairs) {
    return reinterpret_cast<const int*>(pairs.data());
}

#ifndef NDEBUG
void assert_pairs_in_range(const std::vector<IndexPair>& pairs, std::size_t n_values) {
    for (const auto& [a, b] : pairs) {
        assert(static_cast<std::size_t>(a) < n_values);
        assert(static_cast<std::size_t>(b) < n_values);
    }
    (void)n_values;
}
#endif

} // namespace

std::vector<IndexPair> neighbor_chain(const sim::ArrayGeometry& g, ChainOrder order,
                                      ChainOverlap overlap) {
    std::vector<int> chain;
    if (order == ChainOrder::Serpentine) {
        chain = sim::serpentine_order(g);
    } else {
        chain.resize(static_cast<std::size_t>(g.count()));
        std::iota(chain.begin(), chain.end(), 0);
    }
    std::vector<IndexPair> pairs;
    if (overlap == ChainOverlap::Disjoint) {
        pairs.reserve(chain.size() / 2);
        for (std::size_t i = 0; i + 1 < chain.size(); i += 2) {
            pairs.emplace_back(chain[i], chain[i + 1]);
        }
    } else {
        pairs.reserve(chain.size() - 1);
        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            pairs.emplace_back(chain[i], chain[i + 1]);
        }
    }
    return pairs;
}

bits::BitVec evaluate_pairs(const std::vector<IndexPair>& pairs,
                            std::span<const double> values) {
#ifndef NDEBUG
    assert_pairs_in_range(pairs, values.size());
#endif
    bits::BitVec out(pairs.size());
    ROPUF_OBS_COUNT("simd.calls.compare_pairs", 1);
    simd::kernels().compare_pairs(values.data(), flat_pairs(pairs), pairs.size(),
                                  out.data());
    return out;
}

void evaluate_pairs_packed(const std::vector<IndexPair>& pairs, std::span<const double> values,
                           std::span<std::uint64_t> out) {
#ifndef NDEBUG
    assert_pairs_in_range(pairs, values.size());
#endif
    assert(out.size() == bits::word_count(pairs.size()));
    ROPUF_OBS_COUNT("simd.calls.compare_pairs_packed", 1);
    simd::kernels().compare_pairs_packed(values.data(), flat_pairs(pairs),
                                         pairs.size(), out.data());
    // The kernel packs LSB-first; reversing each word gives MSB-first.
    for (auto& w : out) {
        w = ((w >> 1) & 0x5555555555555555u) | ((w & 0x5555555555555555u) << 1);
        w = ((w >> 2) & 0x3333333333333333u) | ((w & 0x3333333333333333u) << 2);
        w = ((w >> 4) & 0x0f0f0f0f0f0f0f0fu) | ((w & 0x0f0f0f0f0f0f0f0fu) << 4);
        w = __builtin_bswap64(w);
    }
}

bits::BitVec evaluate_pairs_majority(const std::vector<IndexPair>& pairs,
                                     std::span<const double> values, int scans,
                                     std::size_t stride) {
    assert(scans >= 1);
    assert(values.size() >= static_cast<std::size_t>(scans) * stride);
    const std::size_t words = (pairs.size() + 63) / 64;
    std::vector<std::uint64_t> rows(static_cast<std::size_t>(scans) * words);
    for (int s = 0; s < scans; ++s) {
#ifndef NDEBUG
        assert_pairs_in_range(pairs, stride);
#endif
        ROPUF_OBS_COUNT("simd.calls.compare_pairs_packed", 1);
        simd::kernels().compare_pairs_packed(
            values.data() + static_cast<std::size_t>(s) * stride, flat_pairs(pairs),
            pairs.size(), rows.data() + static_cast<std::size_t>(s) * words);
    }
    std::vector<std::uint64_t> voted(words);
    ROPUF_OBS_COUNT("simd.calls.majority_vote_packed", 1);
    simd::kernels().majority_vote_packed(rows.data(), words, scans, voted.data());
    bits::BitVec out(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        out[i] = static_cast<std::uint8_t>((voted[i / 64] >> (i % 64)) & 1u);
    }
    return out;
}

std::vector<double> pair_discrepancies(const std::vector<IndexPair>& pairs,
                                       const std::vector<double>& values) {
    std::vector<double> out(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto [a, b] = pairs[i];
        out[i] = values[static_cast<std::size_t>(a)] - values[static_cast<std::size_t>(b)];
    }
    return out;
}

} // namespace ropuf::pairing

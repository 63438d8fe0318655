#include "ropuf/helperdata/formats.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace ropuf::helperdata {

void write_pair_list(BlobWriter& w, const std::vector<IndexPair>& pairs,
                     const std::vector<double>& freq_of, PairOrderPolicy policy,
                     rng::Xoshiro256pp& rng) {
    w.put_u32(static_cast<std::uint32_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
        int first = a;
        int second = b;
        switch (policy) {
            case PairOrderPolicy::SortedByFrequency:
                assert(static_cast<std::size_t>(a) < freq_of.size());
                assert(static_cast<std::size_t>(b) < freq_of.size());
                if (freq_of[static_cast<std::size_t>(a)] < freq_of[static_cast<std::size_t>(b)]) {
                    std::swap(first, second);
                }
                break;
            case PairOrderPolicy::Randomized:
                if (rng.bernoulli(0.5)) std::swap(first, second);
                break;
        }
        w.put_u32(static_cast<std::uint32_t>(first));
        w.put_u32(static_cast<std::uint32_t>(second));
    }
}

std::vector<IndexPair> read_pair_list(BlobReader& r) {
    const std::uint32_t n = r.get_u32();
    r.require_count(n, 8); // two u32 per pair
    std::vector<IndexPair> pairs;
    pairs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const int a = static_cast<int>(r.get_u32());
        const int b = static_cast<int>(r.get_u32());
        pairs.emplace_back(a, b);
    }
    return pairs;
}

void write_coefficients(BlobWriter& w, const std::vector<double>& beta) {
    w.put_u32(static_cast<std::uint32_t>(beta.size()));
    for (double c : beta) w.put_f64(c);
}

std::vector<double> read_coefficients(BlobReader& r) {
    const std::uint32_t n = r.get_u32();
    r.require_count(n, 8); // one f64 per coefficient
    std::vector<double> beta;
    beta.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) beta.push_back(r.get_f64());
    return beta;
}

bool same_coefficients(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
               return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
           });
}

void write_group_assignment(BlobWriter& w, const std::vector<int>& group_of) {
    w.put_u32(static_cast<std::uint32_t>(group_of.size()));
    for (int g : group_of) w.put_u32(static_cast<std::uint32_t>(g));
}

std::vector<int> read_group_assignment(BlobReader& r) {
    const std::uint32_t n = r.get_u32();
    r.require_count(n, 4); // one u32 per RO
    std::vector<int> group_of;
    group_of.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) group_of.push_back(static_cast<int>(r.get_u32()));
    return group_of;
}

} // namespace ropuf::helperdata

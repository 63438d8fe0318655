#include "ropuf/tempaware/tempaware_puf.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace ropuf::tempaware {

TempAwarePuf::TempAwarePuf(const sim::RoArray& array, const TempAwareConfig& config)
    : array_(&array),
      config_(config),
      code_(config.ecc_m, config.ecc_t),
      pairs_(pairing::neighbor_chain(array.geometry(), pairing::ChainOrder::Serpentine,
                                     pairing::ChainOverlap::Disjoint)) {}

TempAwarePuf::Enrollment TempAwarePuf::enroll(rng::Xoshiro256pp& rng) const {
    Enrollment out;
    // Randomize stored pair orientation so response bits are unbiased.
    out.helper.pairs = pairs_;
    for (auto& [a, b] : out.helper.pairs) {
        if (rng.bernoulli(0.5)) std::swap(a, b);
    }

    const auto classified = classify_pairs(*array_, out.helper.pairs, config_.classification,
                                           config_.enroll_samples, rng);
    const int n_pairs = static_cast<int>(out.helper.pairs.size());
    out.helper.records.resize(static_cast<std::size_t>(n_pairs));
    out.reference_bits.assign(static_cast<std::size_t>(n_pairs), 0);

    std::vector<int> good_indices;
    std::vector<int> coop_indices;
    for (int p = 0; p < n_pairs; ++p) {
        const auto& c = classified[static_cast<std::size_t>(p)];
        auto& rec = out.helper.records[static_cast<std::size_t>(p)];
        rec.cls = c.cls;
        rec.t_low = c.t_low;
        rec.t_high = c.t_high;
        out.reference_bits[static_cast<std::size_t>(p)] = c.reference_bit;
        if (c.cls == PairClass::Good) good_indices.push_back(p);
        if (c.cls == PairClass::Cooperating) coop_indices.push_back(p);
    }

    // Assign masked assistance to every cooperating pair.
    for (const int c : coop_indices) {
        auto& rec = out.helper.records[static_cast<std::size_t>(c)];
        if (good_indices.empty()) {
            rec.cls = PairClass::Bad; // nothing to mask with
            continue;
        }
        // Masking good pair: uniformly random (its identity does not leak).
        const int g = good_indices[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(good_indices.size()) - 1))];
        const std::uint8_t required =
            out.reference_bits[static_cast<std::size_t>(c)] ^
            out.reference_bits[static_cast<std::size_t>(g)];

        // Candidate assisting pairs: other cooperating pairs with a
        // non-intersecting crossover interval.
        std::vector<int> candidates;
        for (const int h : coop_indices) {
            if (h == c) continue;
            const auto& hr = out.helper.records[static_cast<std::size_t>(h)];
            const bool disjoint = hr.t_high < rec.t_low || hr.t_low > rec.t_high;
            if (disjoint) candidates.push_back(h);
        }
        if (config_.policy == HelperSelectionPolicy::Random) {
            rng::shuffle(candidates, rng);
        } // DeterministicScan keeps index order — the leaking variant.

        int chosen = -1;
        for (const int h : candidates) {
            if (out.reference_bits[static_cast<std::size_t>(h)] == required) {
                chosen = h;
                break;
            }
        }
        if (chosen < 0) {
            rec.cls = PairClass::Bad; // no satisfying assistant: discard pair
            continue;
        }
        rec.helper_pair = chosen;
        rec.mask_pair = g;
    }

    // Key = reference bits of kept pairs in pair-index order.
    for (int p = 0; p < n_pairs; ++p) {
        if (out.helper.records[static_cast<std::size_t>(p)].cls != PairClass::Bad) {
            out.key.push_back(out.reference_bits[static_cast<std::size_t>(p)]);
        }
    }
    out.helper.ecc = ecc::BlockEcc(code_).enroll(out.key);
    return out;
}

std::uint8_t TempAwarePuf::direct_bit(std::span<const double> freqs,
                                      const TempAwareHelper& helper, int p,
                                      double temperature_c) {
    const auto [a, b] = helper.pairs[static_cast<std::size_t>(p)];
    std::uint8_t bit =
        freqs[static_cast<std::size_t>(a)] > freqs[static_cast<std::size_t>(b)] ? 1 : 0;
    const auto& rec = helper.records[static_cast<std::size_t>(p)];
    if (rec.cls == PairClass::Cooperating && temperature_c > rec.t_high) {
        bit ^= 1u; // crossover compensation
    }
    return bit;
}

core::ReconstructResult TempAwarePuf::reconstruct(const TempAwareHelper& helper,
                                                  double temperature_c,
                                                  rng::Xoshiro256pp& rng) const {
    const auto condition = core::DeviceTraits<TempAwarePuf>::condition_at(*this, temperature_c);
    return reconstruct(helper, condition, rng);
}

bool TempAwarePuf::helper_consistent(const TempAwareHelper& helper) const {
    if (helper.records.size() != helper.pairs.size()) return false;
    for (const auto& [a, b] : helper.pairs) {
        if (a < 0 || a >= array_->count() || b < 0 || b >= array_->count()) return false;
    }
    return true;
}

core::ReconstructResult TempAwarePuf::reconstruct(const TempAwareHelper& helper,
                                                  const sim::Condition& condition,
                                                  rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

core::ReconstructResult TempAwarePuf::reconstruct_measured(
    const TempAwareHelper& helper, const sim::Condition& condition,
    std::span<const double> freqs) const {
    // One walk over the pairs runs every structural check (the pair-index
    // bounds of helper_consistent, the assisting and masking references)
    // while it writes the response bits, packed, into per-thread buffers
    // that only grow. Any failed check fails safely before the ECC runs.
    thread_local std::vector<std::uint64_t> noisy;
    thread_local std::vector<std::uint64_t> corrected;
    if (helper.records.size() != helper.pairs.size()) return {};
    const double temperature_c = condition.temperature_c;
    const int n_pairs = static_cast<int>(helper.pairs.size());
    const auto in_range = [&](int p) {
        const auto [a, b] = helper.pairs[static_cast<std::size_t>(p)];
        return a >= 0 && a < array_->count() && b >= 0 && b < array_->count();
    };
    const std::size_t words = bits::word_count(helper.pairs.size());
    noisy.assign(words, 0);
    std::size_t bit = 0;
    for (int p = 0; p < n_pairs; ++p) {
        if (!in_range(p)) return {};
        const auto& rec = helper.records[static_cast<std::size_t>(p)];
        std::uint8_t value = 0;
        if (rec.cls == PairClass::Good) {
            value = direct_bit(freqs, helper, p, temperature_c);
        } else if (rec.cls != PairClass::Cooperating) {
            continue; // a bad pair carries no key bit
        } else if (temperature_c < rec.t_low || temperature_c > rec.t_high) {
            value = direct_bit(freqs, helper, p, temperature_c);
        } else {
            // Inside the crossover interval: masked assistance. The device
            // trusts the stored indices blindly.
            const int h = rec.helper_pair;
            const int g = rec.mask_pair;
            if (h < 0 || h >= n_pairs || g < 0 || g >= n_pairs || h == p) return {};
            if (!in_range(h) || !in_range(g)) return {};
            value = direct_bit(freqs, helper, h, temperature_c) ^
                    direct_bit(freqs, helper, g, temperature_c);
        }
        if (value != 0) bits::set_bit(noisy, bit);
        ++bit;
    }

    if (helper.ecc.response_bits != static_cast<int>(bit)) return {};
    const ecc::BlockEcc block_ecc(code_);
    if (static_cast<int>(helper.ecc.parity.size()) !=
        block_ecc.helper_bits(helper.ecc.response_bits)) {
        return {};
    }
    corrected.resize(words);
    const auto rec = block_ecc.reconstruct(noisy, helper.ecc, corrected);
    return {rec.ok, bits::unpack_words(corrected, bit), rec.corrected};
}

int TempAwarePuf::key_position(const TempAwareHelper& helper, int pair_index) {
    assert(pair_index >= 0 && pair_index < static_cast<int>(helper.records.size()));
    if (helper.records[static_cast<std::size_t>(pair_index)].cls == PairClass::Bad) return -1;
    int pos = 0;
    for (int p = 0; p < pair_index; ++p) {
        if (helper.records[static_cast<std::size_t>(p)].cls != PairClass::Bad) ++pos;
    }
    return pos;
}

int TempAwarePuf::key_bits(const TempAwareHelper& helper) {
    int bits = 0;
    for (const auto& rec : helper.records) {
        if (rec.cls != PairClass::Bad) ++bits;
    }
    return bits;
}

helperdata::Nvm serialize(const TempAwareHelper& helper) {
    helperdata::BlobWriter w;
    w.put_u32(static_cast<std::uint32_t>(helper.pairs.size()));
    for (const auto& [a, b] : helper.pairs) {
        w.put_u32(static_cast<std::uint32_t>(a));
        w.put_u32(static_cast<std::uint32_t>(b));
    }
    for (const auto& rec : helper.records) {
        w.put_u8(static_cast<std::uint8_t>(rec.cls));
        w.put_f64(rec.t_low);
        w.put_f64(rec.t_high);
        w.put_u32(static_cast<std::uint32_t>(rec.helper_pair));
        w.put_u32(static_cast<std::uint32_t>(rec.mask_pair));
    }
    w.put_u32(static_cast<std::uint32_t>(helper.ecc.response_bits));
    w.put_bits(helper.ecc.parity);
    return helperdata::Nvm(w.take());
}

TempAwareHelper parse_temp_aware(const helperdata::Nvm& nvm) {
    auto r = nvm.reader();
    TempAwareHelper helper;
    const std::uint32_t n = r.get_u32();
    r.require_count(n, 8 + 25); // pair (8 bytes) + record (25 bytes) each
    helper.pairs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const int a = static_cast<int>(r.get_u32());
        const int b = static_cast<int>(r.get_u32());
        helper.pairs.emplace_back(a, b);
    }
    helper.records.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        auto& rec = helper.records[i];
        const std::uint8_t cls = r.get_u8();
        if (cls > 2) throw helperdata::ParseError("temp-aware: invalid pair class");
        rec.cls = static_cast<PairClass>(cls);
        rec.t_low = r.get_f64();
        rec.t_high = r.get_f64();
        rec.helper_pair = static_cast<int>(r.get_u32());
        rec.mask_pair = static_cast<int>(r.get_u32());
    }
    helper.ecc.response_bits = static_cast<int>(r.get_u32());
    helper.ecc.parity = r.get_bits();
    return helper;
}

bool round_trips(const TempAwareHelper& helper) {
    if (helper.records.size() != helper.pairs.size()) return false;
    for (const auto& rec : helper.records) {
        if (static_cast<std::uint8_t>(rec.cls) > 2) return false;
    }
    return bits::is_binary(helper.ecc.parity);
}

bool same_helper(const TempAwareHelper& a, const TempAwareHelper& b) {
    const auto same_record = [](const PairRecord& x, const PairRecord& y) {
        return x.cls == y.cls &&
               std::bit_cast<std::uint64_t>(x.t_low) == std::bit_cast<std::uint64_t>(y.t_low) &&
               std::bit_cast<std::uint64_t>(x.t_high) == std::bit_cast<std::uint64_t>(y.t_high) &&
               x.helper_pair == y.helper_pair && x.mask_pair == y.mask_pair;
    };
    return a.pairs == b.pairs &&
           std::equal(a.records.begin(), a.records.end(), b.records.begin(), b.records.end(),
                      same_record) &&
           ecc::same_helper(a.ecc, b.ecc);
}

} // namespace ropuf::tempaware

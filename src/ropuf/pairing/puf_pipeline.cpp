#include "ropuf/pairing/puf_pipeline.hpp"

#include <cassert>
#include <span>

namespace ropuf::pairing {

namespace {

/// Per-thread regeneration buffers of the pairing victims. They only grow,
/// so once a thread has regenerated at a given size, a probe allocates
/// nothing but the returned key.
struct Scratch {
    std::vector<double> resid;
    std::vector<helperdata::IndexPair> selected;
    std::vector<std::uint64_t> noisy;     ///< response bits of the fresh scan, packed
    std::vector<std::uint64_t> corrected; ///< the same after ECC

    static Scratch& of_thread() {
        thread_local Scratch scratch;
        return scratch;
    }
};

/// The distiller victims' residual map of one fresh scan (f_i - P(x_i, y_i)
/// for the helper's coefficients). `beta` must hold
/// coefficient_count(degree) values (helper_consistent).
std::span<const double> scan_residuals(const sim::ArrayGeometry& geometry,
                                       std::span<const double> freqs, int degree,
                                       const std::vector<double>& beta) {
    auto& resid = Scratch::of_thread().resid;
    resid.resize(freqs.size());
    distiller::residuals(geometry, freqs, degree, beta, resid);
    return resid;
}

/// Key regeneration on packed words: the pairs' response bits on `values`,
/// decoded by BlockEcc and unpacked once into the returned key (a failed
/// block keeps its noisy bits, as BlockEcc does).
core::ReconstructResult regenerate(const ecc::BchCode& code,
                                   const std::vector<helperdata::IndexPair>& pairs,
                                   std::span<const double> values,
                                   const ecc::BlockEccHelper& helper) {
    auto& scratch = Scratch::of_thread();
    const std::size_t words = bits::word_count(pairs.size());
    scratch.noisy.resize(words);
    scratch.corrected.resize(words);
    evaluate_pairs_packed(pairs, values, scratch.noisy);
    const auto rec = ecc::BlockEcc(code).reconstruct(scratch.noisy, helper, scratch.corrected);
    return {rec.ok, bits::unpack_words(scratch.corrected, pairs.size()), rec.corrected};
}

/// Orients each (faster, slower) pair per the storage policy. With the
/// Randomized policy the stored order — and hence the key bit value — is a
/// coin flip; with SortedByFrequency every key bit is trivially 1
/// (the Section VII-C leakage).
std::vector<helperdata::IndexPair> orient_pairs(const std::vector<helperdata::IndexPair>& pairs,
                                                const std::vector<double>& freqs,
                                                helperdata::PairOrderPolicy policy,
                                                rng::Xoshiro256pp& rng) {
    std::vector<helperdata::IndexPair> out;
    out.reserve(pairs.size());
    for (auto [a, b] : pairs) {
        switch (policy) {
            case helperdata::PairOrderPolicy::SortedByFrequency:
                if (freqs[static_cast<std::size_t>(a)] < freqs[static_cast<std::size_t>(b)]) {
                    std::swap(a, b);
                }
                break;
            case helperdata::PairOrderPolicy::Randomized:
                if (rng.bernoulli(0.5)) std::swap(a, b);
                break;
        }
        out.emplace_back(a, b);
    }
    return out;
}

/// Validates a stored pair list against the physical array bounds.
bool pairs_in_range(const std::vector<helperdata::IndexPair>& pairs, int ro_count) {
    for (const auto& [a, b] : pairs) {
        if (a < 0 || a >= ro_count || b < 0 || b >= ro_count) return false;
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------------
// SeqPairingPuf
// ---------------------------------------------------------------------------

SeqPairingPuf::SeqPairingPuf(const sim::RoArray& array, const SeqPairingConfig& config)
    : array_(&array), config_(config), code_(config.ecc_m, config.ecc_t) {}

SeqPairingPuf::Enrollment SeqPairingPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto freqs = array_->enroll_frequencies(config_.condition, config_.enroll_samples, rng);
    const auto raw_pairs = sequential_pairing(freqs, config_.delta_f_th);
    Enrollment out;
    out.helper.pairs = orient_pairs(raw_pairs, freqs, config_.policy, rng);
    out.key = evaluate_pairs(out.helper.pairs, freqs);
    out.helper.ecc = ecc::BlockEcc(code_).enroll(out.key);
    return out;
}

bool SeqPairingPuf::helper_consistent(const SeqPairingHelper& helper) const {
    if (!pairs_in_range(helper.pairs, array_->count())) return false;
    if (helper.ecc.response_bits != static_cast<int>(helper.pairs.size())) return false;
    const ecc::BlockEcc block_ecc(code_);
    return static_cast<int>(helper.ecc.parity.size()) ==
           block_ecc.helper_bits(helper.ecc.response_bits);
}

core::ReconstructResult SeqPairingPuf::reconstruct(const SeqPairingHelper& helper,
                                                   const sim::Condition& condition,
                                                   rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

core::ReconstructResult SeqPairingPuf::reconstruct_measured(const SeqPairingHelper& helper,
                                                            const sim::Condition&,
                                                            std::span<const double> freqs) const {
    if (!helper_consistent(helper)) return {};
    return regenerate(code_, helper.pairs, freqs, helper.ecc);
}

helperdata::Nvm serialize(const SeqPairingHelper& helper) {
    helperdata::BlobWriter w;
    w.put_u32(static_cast<std::uint32_t>(helper.pairs.size()));
    for (const auto& [a, b] : helper.pairs) {
        w.put_u32(static_cast<std::uint32_t>(a));
        w.put_u32(static_cast<std::uint32_t>(b));
    }
    w.put_u32(static_cast<std::uint32_t>(helper.ecc.response_bits));
    w.put_bits(helper.ecc.parity);
    return helperdata::Nvm(w.take());
}

SeqPairingHelper parse_seq_pairing(const helperdata::Nvm& nvm) {
    auto r = nvm.reader();
    SeqPairingHelper helper;
    const std::uint32_t n = r.get_u32();
    r.require_count(n, 8);
    helper.pairs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const int a = static_cast<int>(r.get_u32());
        const int b = static_cast<int>(r.get_u32());
        helper.pairs.emplace_back(a, b);
    }
    helper.ecc.response_bits = static_cast<int>(r.get_u32());
    helper.ecc.parity = r.get_bits();
    return helper;
}

bool round_trips(const SeqPairingHelper& helper) { return bits::is_binary(helper.ecc.parity); }

bool same_helper(const SeqPairingHelper& a, const SeqPairingHelper& b) {
    return a.pairs == b.pairs && ecc::same_helper(a.ecc, b.ecc);
}

// ---------------------------------------------------------------------------
// MaskedChainPuf
// ---------------------------------------------------------------------------

MaskedChainPuf::MaskedChainPuf(const sim::RoArray& array, const MaskedChainConfig& config)
    : array_(&array),
      config_(config),
      code_(config.ecc_m, config.ecc_t),
      base_pairs_(neighbor_chain(array.geometry(), config.order, ChainOverlap::Disjoint)) {}

MaskedChainPuf::Enrollment MaskedChainPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto freqs = array_->enroll_frequencies(config_.condition, config_.enroll_samples, rng);
    const auto surface = distiller::fit(array_->geometry(), freqs, config_.distiller_degree);
    const auto resid = distiller::residuals(array_->geometry(), freqs, surface);
    Enrollment out;
    out.helper.beta = surface.beta();
    out.helper.masking = enroll_masking(base_pairs_, resid, config_.k);
    const auto selected = select_pairs(base_pairs_, out.helper.masking);
    out.key = evaluate_pairs(selected, resid);
    out.helper.ecc = ecc::BlockEcc(code_).enroll(out.key);
    return out;
}

bool MaskedChainPuf::checked_selection(const MaskedChainHelper& helper,
                                       std::vector<helperdata::IndexPair>& selected) const {
    const int expected_coeffs = distiller::coefficient_count(config_.distiller_degree);
    if (static_cast<int>(helper.beta.size()) != expected_coeffs) return false;
    if (select_pairs_into(base_pairs_, helper.masking, selected) != nullptr) return false;
    if (helper.ecc.response_bits != static_cast<int>(selected.size())) return false;
    const ecc::BlockEcc block_ecc(code_);
    return static_cast<int>(helper.ecc.parity.size()) ==
           block_ecc.helper_bits(helper.ecc.response_bits);
}

bool MaskedChainPuf::helper_consistent(const MaskedChainHelper& helper) const {
    return checked_selection(helper, Scratch::of_thread().selected);
}

core::ReconstructResult MaskedChainPuf::reconstruct(const MaskedChainHelper& helper,
                                                    const sim::Condition& condition,
                                                    rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

core::ReconstructResult MaskedChainPuf::reconstruct_measured(const MaskedChainHelper& helper,
                                                             const sim::Condition&,
                                                             std::span<const double> freqs) const {
    auto& selected = Scratch::of_thread().selected;
    if (!checked_selection(helper, selected)) return {};
    const auto resid =
        scan_residuals(array_->geometry(), freqs, config_.distiller_degree, helper.beta);
    return regenerate(code_, selected, resid, helper.ecc);
}

helperdata::Nvm serialize(const MaskedChainHelper& helper) {
    helperdata::BlobWriter w;
    helperdata::write_coefficients(w, helper.beta);
    w.put_u32(static_cast<std::uint32_t>(helper.masking.k));
    w.put_u32(static_cast<std::uint32_t>(helper.masking.selected.size()));
    for (int s : helper.masking.selected) w.put_u32(static_cast<std::uint32_t>(s));
    w.put_u32(static_cast<std::uint32_t>(helper.ecc.response_bits));
    w.put_bits(helper.ecc.parity);
    return helperdata::Nvm(w.take());
}

MaskedChainHelper parse_masked_chain(const helperdata::Nvm& nvm) {
    auto r = nvm.reader();
    MaskedChainHelper helper;
    helper.beta = helperdata::read_coefficients(r);
    helper.masking.k = static_cast<int>(r.get_u32());
    const std::uint32_t n = r.get_u32();
    r.require_count(n, 4);
    helper.masking.selected.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        helper.masking.selected.push_back(static_cast<int>(r.get_u32()));
    }
    helper.ecc.response_bits = static_cast<int>(r.get_u32());
    helper.ecc.parity = r.get_bits();
    return helper;
}

bool round_trips(const MaskedChainHelper& helper) { return bits::is_binary(helper.ecc.parity); }

bool same_helper(const MaskedChainHelper& a, const MaskedChainHelper& b) {
    return helperdata::same_coefficients(a.beta, b.beta) && a.masking.k == b.masking.k &&
           a.masking.selected == b.masking.selected && ecc::same_helper(a.ecc, b.ecc);
}

// ---------------------------------------------------------------------------
// OverlapChainPuf
// ---------------------------------------------------------------------------

OverlapChainPuf::OverlapChainPuf(const sim::RoArray& array, const OverlapChainConfig& config)
    : array_(&array),
      config_(config),
      code_(config.ecc_m, config.ecc_t),
      pairs_(neighbor_chain(array.geometry(), config.order, ChainOverlap::Overlapping)) {}

OverlapChainPuf::Enrollment OverlapChainPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto freqs = array_->enroll_frequencies(config_.condition, config_.enroll_samples, rng);
    const auto surface = distiller::fit(array_->geometry(), freqs, config_.distiller_degree);
    const auto resid = distiller::residuals(array_->geometry(), freqs, surface);
    Enrollment out;
    out.helper.beta = surface.beta();
    out.key = evaluate_pairs(pairs_, resid);
    out.helper.ecc = ecc::BlockEcc(code_).enroll(out.key);
    return out;
}

bool OverlapChainPuf::helper_consistent(const OverlapChainHelper& helper) const {
    const int expected_coeffs = distiller::coefficient_count(config_.distiller_degree);
    if (static_cast<int>(helper.beta.size()) != expected_coeffs) return false;
    if (helper.ecc.response_bits != static_cast<int>(pairs_.size())) return false;
    const ecc::BlockEcc block_ecc(code_);
    return static_cast<int>(helper.ecc.parity.size()) ==
           block_ecc.helper_bits(helper.ecc.response_bits);
}

core::ReconstructResult OverlapChainPuf::reconstruct(const OverlapChainHelper& helper,
                                                     const sim::Condition& condition,
                                                     rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

core::ReconstructResult OverlapChainPuf::reconstruct_measured(const OverlapChainHelper& helper,
                                                              const sim::Condition&,
                                                              std::span<const double> freqs) const {
    if (!helper_consistent(helper)) return {};
    const auto resid =
        scan_residuals(array_->geometry(), freqs, config_.distiller_degree, helper.beta);
    return regenerate(code_, pairs_, resid, helper.ecc);
}

helperdata::Nvm serialize(const OverlapChainHelper& helper) {
    helperdata::BlobWriter w;
    helperdata::write_coefficients(w, helper.beta);
    w.put_u32(static_cast<std::uint32_t>(helper.ecc.response_bits));
    w.put_bits(helper.ecc.parity);
    return helperdata::Nvm(w.take());
}

OverlapChainHelper parse_overlap_chain(const helperdata::Nvm& nvm) {
    auto r = nvm.reader();
    OverlapChainHelper helper;
    helper.beta = helperdata::read_coefficients(r);
    helper.ecc.response_bits = static_cast<int>(r.get_u32());
    helper.ecc.parity = r.get_bits();
    return helper;
}

bool round_trips(const OverlapChainHelper& helper) { return bits::is_binary(helper.ecc.parity); }

bool same_helper(const OverlapChainHelper& a, const OverlapChainHelper& b) {
    return helperdata::same_coefficients(a.beta, b.beta) && ecc::same_helper(a.ecc, b.ecc);
}

} // namespace ropuf::pairing

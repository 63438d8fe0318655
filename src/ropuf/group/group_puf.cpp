#include "ropuf/group/group_puf.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ropuf/helperdata/formats.hpp"

namespace ropuf::group {

GroupBasedPuf::GroupBasedPuf(const sim::RoArray& array, const GroupPufConfig& config)
    : array_(&array), config_(config), code_(config.ecc_m, config.ecc_t) {}

int GroupBasedPuf::kendall_bits_of(const std::vector<std::vector<int>>& members) {
    int total = 0;
    for (const auto& m : members) total += kendall_bits(static_cast<int>(m.size()));
    return total;
}

int GroupBasedPuf::key_bits_of(const std::vector<std::vector<int>>& members) {
    int total = 0;
    for (const auto& m : members) total += compact_bits(static_cast<int>(m.size()));
    return total;
}

GroupBasedPuf::Coded GroupBasedPuf::encode_groups(const std::vector<std::vector<int>>& members,
                                                  const std::vector<double>& residuals) {
    Coded out;
    for (const auto& group : members) {
        // Canonical labels: group members in ascending RO index.
        std::vector<int> labels = group;
        std::sort(labels.begin(), labels.end());
        const int g = static_cast<int>(labels.size());
        // Frequency order: labels sorted by residual, descending.
        Order order(static_cast<std::size_t>(g));
        for (int l = 0; l < g; ++l) order[static_cast<std::size_t>(l)] = l;
        std::sort(order.begin(), order.end(), [&](int la, int lb) {
            const double va = residuals[static_cast<std::size_t>(labels[static_cast<std::size_t>(la)])];
            const double vb = residuals[static_cast<std::size_t>(labels[static_cast<std::size_t>(lb)])];
            if (va != vb) return va > vb;
            return la < lb;
        });
        const auto kendall = kendall_encode(order);
        out.kendall.insert(out.kendall.end(), kendall.begin(), kendall.end());
        const auto packed = compact_encode(order);
        out.key.insert(out.key.end(), packed.begin(), packed.end());
    }
    return out;
}

GroupBasedPuf::Enrollment GroupBasedPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto freqs = array_->enroll_frequencies(config_.condition, config_.enroll_samples, rng);
    const auto surface = distiller::fit(array_->geometry(), freqs, config_.distiller_degree);
    const auto resid = distiller::residuals(array_->geometry(), freqs, surface);

    Enrollment out;
    out.grouping = grouping(resid, config_.delta_f_th, config_.max_group_size);
    out.helper.beta = surface.beta();
    out.helper.group_of = out.grouping.group_of;

    const auto coded = encode_groups(out.grouping.members, resid);
    out.kendall_ref = coded.kendall;
    out.key = coded.key;
    out.helper.ecc = ecc::BlockEcc(code_).enroll(out.kendall_ref);
    return out;
}

bool GroupBasedPuf::helper_consistent(const GroupPufHelper& helper) const {
    return consistent_members(helper).has_value();
}

std::optional<std::vector<std::vector<int>>> GroupBasedPuf::consistent_members(
    const GroupPufHelper& helper) const {
    if (static_cast<int>(helper.group_of.size()) != array_->count()) return std::nullopt;
    std::vector<std::vector<int>> members;
    try {
        members = members_from_assignment(helper.group_of);
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
    for (const auto& m : members) {
        if (static_cast<int>(m.size()) > config_.max_group_size) return std::nullopt;
    }
    const int total_kendall = kendall_bits_of(members);
    if (helper.ecc.response_bits != total_kendall) return std::nullopt;
    const ecc::BlockEcc block_ecc(code_);
    if (static_cast<int>(helper.ecc.parity.size()) != block_ecc.helper_bits(total_kendall)) {
        return std::nullopt;
    }
    // Distillation accepts any polynomial degree the coefficients imply — the
    // naive device infers the degree from the coefficient count.
    if (inferred_degree(helper) < 0) return std::nullopt;
    return members;
}

int GroupBasedPuf::inferred_degree(const GroupPufHelper& helper) {
    for (int d = 0; d <= 16; ++d) {
        if (distiller::coefficient_count(d) == static_cast<int>(helper.beta.size())) return d;
    }
    return -1;
}

GroupBasedPuf::Reconstruction GroupBasedPuf::reconstruct(const GroupPufHelper& helper,
                                                         const sim::Condition& condition,
                                                         rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

GroupBasedPuf::Reconstruction GroupBasedPuf::reconstruct_measured(
    const GroupPufHelper& helper, const sim::Condition&, std::span<const double> freqs) const {
    const auto consistent = consistent_members(helper);
    if (!consistent) return {};
    const auto& members = *consistent;
    const int degree = inferred_degree(helper);
    const ecc::BlockEcc block_ecc(code_);
    const distiller::PolySurface surface(degree, helper.beta);
    const auto resid = distiller::residuals(array_->geometry(), freqs, surface);

    const auto noisy = encode_groups(members, resid);
    const auto rec = block_ecc.reconstruct(noisy.kendall, helper.ecc);
    if (!rec.ok) return {};

    // Entropy packing of the corrected Kendall bits, group by group.
    bits::BitVec key;
    std::size_t cursor = 0;
    for (const auto& group : members) {
        const int g = static_cast<int>(group.size());
        const int kb = kendall_bits(g);
        const auto code_slice = bits::slice(rec.value, cursor, static_cast<std::size_t>(kb));
        cursor += static_cast<std::size_t>(kb);
        const auto order = kendall_decode_exact(code_slice, g);
        if (!order) return {}; // corrected bits are not a consistent order
        const auto packed = compact_encode(*order);
        key.insert(key.end(), packed.begin(), packed.end());
    }
    return {true, key, rec.corrected};
}

helperdata::Nvm serialize(const GroupPufHelper& helper) {
    helperdata::BlobWriter w;
    helperdata::write_coefficients(w, helper.beta);
    helperdata::write_group_assignment(w, helper.group_of);
    w.put_u32(static_cast<std::uint32_t>(helper.ecc.response_bits));
    w.put_bits(helper.ecc.parity);
    return helperdata::Nvm(w.take());
}

GroupPufHelper parse_group_puf(const helperdata::Nvm& nvm) {
    auto r = nvm.reader();
    GroupPufHelper helper;
    helper.beta = helperdata::read_coefficients(r);
    helper.group_of = helperdata::read_group_assignment(r);
    helper.ecc.response_bits = static_cast<int>(r.get_u32());
    helper.ecc.parity = r.get_bits();
    return helper;
}

bool round_trips(const GroupPufHelper& helper) { return bits::is_binary(helper.ecc.parity); }

} // namespace ropuf::group

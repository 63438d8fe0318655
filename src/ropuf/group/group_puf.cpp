#include "ropuf/group/group_puf.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "ropuf/helperdata/formats.hpp"

namespace ropuf::group {

namespace {

/// g! and ceil(log2 g!) for every group size a GroupBasedPuf admits.
constexpr auto kFactorial = [] {
    std::array<std::uint64_t, kMaxCompactGroup + 1> f{};
    for (int g = 0; g <= kMaxCompactGroup; ++g) f[static_cast<std::size_t>(g)] = factorial(g);
    return f;
}();
constexpr auto kCompactBits = [] {
    std::array<int, kMaxCompactGroup + 1> b{};
    for (int g = 0; g <= kMaxCompactGroup; ++g) b[static_cast<std::size_t>(g)] = compact_bits(g);
    return b;
}();

/// Per-label values of one group (an order, win counts), on the stack.
using GroupArray = std::array<int, kMaxCompactGroup>;

/// Calls visit(inverted) for each label pair (a, b), a < b, in Kendall bit
/// order; inverted = label b precedes label a in `order` (kendall_encode).
template <class Visit>
void for_each_kendall_pair(const GroupArray& order, int g, Visit&& visit) {
    GroupArray rank_of{};
    for (int r = 0; r < g; ++r) {
        rank_of[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;
    }
    for (int a = 0; a < g; ++a) {
        for (int b = a + 1; b < g; ++b) {
            visit(rank_of[static_cast<std::size_t>(b)] < rank_of[static_cast<std::size_t>(a)]);
        }
    }
}

} // namespace

/// Per-thread regeneration scratch. The buffers only grow, so once a thread
/// has regenerated at a given array size, later probes allocate nothing.
struct GroupBasedPuf::Scratch {
    std::vector<std::size_t> offset; ///< group j is members[offset[j], offset[j+1])
    std::vector<int> members;        ///< RO indices, ascending within each group
    std::size_t groups = 0;
    int kendall_bits = 0;
    std::vector<double> resid;
    std::vector<std::uint64_t> noisy;     ///< Kendall bits of the fresh scan, packed
    std::vector<std::uint64_t> corrected; ///< the same after ECC

    std::span<const int> group(std::size_t j) const {
        return std::span(members).subspan(offset[j], offset[j + 1] - offset[j]);
    }

    static Scratch& of_thread() {
        thread_local Scratch scratch;
        return scratch;
    }
};

GroupBasedPuf::GroupBasedPuf(const sim::RoArray& array, const GroupPufConfig& config)
    : array_(&array), config_(config), code_(config.ecc_m, config.ecc_t) {
    if (config.max_group_size < 1 || config.max_group_size > kMaxCompactGroup) {
        throw std::invalid_argument("GroupPufConfig: max_group_size must be in [1, 20]");
    }
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
    return partition(helper, Scratch::of_thread());
}

bool GroupBasedPuf::partition(const GroupPufHelper& helper, Scratch& scratch) const {
    const auto n = static_cast<std::size_t>(array_->count());
    if (helper.group_of.size() != n) return false;
    // Counting sort. Group sizes are counted at offset[id]; n ROs fill at
    // most n groups, so a larger id is a gap.
    auto& offset = scratch.offset;
    offset.assign(n + 1, 0);
    std::size_t groups = 0;
    for (const int id : helper.group_of) {
        if (id < 1 || static_cast<std::size_t>(id) > n) return false;
        ++offset[static_cast<std::size_t>(id)];
        groups = std::max(groups, static_cast<std::size_t>(id));
    }
    int total_kendall = 0;
    for (std::size_t id = 1; id <= groups; ++id) {
        const auto size = static_cast<int>(offset[id]);
        if (size == 0 || size > config_.max_group_size) return false; // gap or oversized
        total_kendall += kendall_bits(size);
    }
    if (helper.ecc.response_bits != total_kendall) return false;
    if (static_cast<int>(helper.ecc.parity.size()) !=
        ecc::BlockEcc(code_).helper_bits(total_kendall)) {
        return false;
    }
    // Distillation accepts any polynomial degree the coefficients imply — the
    // naive device infers the degree from the coefficient count.
    if (inferred_degree(helper) < 0) return false;

    // Prefix sums make offset[j] the start of 0-based group j. The scatter
    // advances each start to its group's end (RO order keeps members
    // ascending); shifting by one slot restores the starts.
    for (std::size_t j = 1; j <= groups; ++j) offset[j] += offset[j - 1];
    scratch.members.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto j = static_cast<std::size_t>(helper.group_of[i] - 1);
        scratch.members[offset[j]++] = static_cast<int>(i);
    }
    for (std::size_t j = groups; j > 0; --j) offset[j] = offset[j - 1];
    offset[0] = 0;
    scratch.groups = groups;
    scratch.kendall_bits = total_kendall;
    return true;
}

int GroupBasedPuf::inferred_degree(const GroupPufHelper& helper) {
    for (int d = 0; d <= 16; ++d) {
        if (distiller::coefficient_count(d) == static_cast<int>(helper.beta.size())) return d;
    }
    return -1;
}

core::ReconstructResult GroupBasedPuf::reconstruct(const GroupPufHelper& helper,
                                                   const sim::Condition& condition,
                                                   rng::Xoshiro256pp& rng) const {
    if (!helper_consistent(helper)) return {};
    return reconstruct_measured(helper, condition, array_->measure_all(condition, rng));
}

core::ReconstructResult GroupBasedPuf::reconstruct_measured(
    const GroupPufHelper& helper, const sim::Condition&, std::span<const double> freqs) const {
    Scratch& scratch = Scratch::of_thread();
    if (!partition(helper, scratch)) return {};
    scratch.resid.resize(scratch.members.size());
    distiller::residuals(array_->geometry(), freqs, inferred_degree(helper), helper.beta,
                         scratch.resid);
    const std::size_t words = bits::word_count(static_cast<std::size_t>(scratch.kendall_bits));
    scratch.noisy.assign(words, 0);
    scratch.corrected.assign(words, 0);

    // Kendall bits of the fresh scan, as encode_groups computes them: a
    // group's labels are its members in ascending RO order, and its order
    // sorts the labels by residual, descending, ties to the lower label.
    GroupArray order{};
    std::size_t cursor = 0;
    for (std::size_t j = 0; j < scratch.groups; ++j) {
        const auto labels = scratch.group(j);
        const auto g = static_cast<int>(labels.size());
        const auto residual = [&](int label) {
            return scratch.resid[static_cast<std::size_t>(labels[static_cast<std::size_t>(label)])];
        };
        std::iota(order.begin(), order.begin() + g, 0);
        std::sort(order.begin(), order.begin() + g, [&](int la, int lb) {
            const double va = residual(la);
            const double vb = residual(lb);
            if (va != vb) return va > vb;
            return la < lb;
        });
        for_each_kendall_pair(order, g, [&](bool inverted) {
            if (inverted) bits::set_bit(scratch.noisy, cursor);
            ++cursor;
        });
    }
    const auto rec =
        ecc::BlockEcc(code_).reconstruct(scratch.noisy, helper.ecc, scratch.corrected);
    if (!rec.ok) return {};

    // Entropy packing of the corrected Kendall bits, group by group:
    // kendall_decode_exact, then compact_encode, on stack arrays.
    int key_bits = 0;
    for (std::size_t j = 0; j < scratch.groups; ++j) {
        key_bits += kCompactBits[scratch.group(j).size()];
    }
    core::ReconstructResult out;
    out.key.resize(static_cast<std::size_t>(key_bits));
    std::size_t key_at = 0;
    cursor = 0;
    for (std::size_t j = 0; j < scratch.groups; ++j) {
        const auto g = static_cast<int>(scratch.group(j).size());
        const auto bit = [&](std::size_t i) { return bits::test_bit(scratch.corrected, i); };
        // Win counts: a valid total order gives its rank-r label g-1-r wins,
        // so two labels with equal counts mean no order.
        GroupArray wins{};
        const std::size_t first = cursor;
        for (int a = 0; a < g; ++a) {
            for (int b = a + 1; b < g; ++b) ++wins[static_cast<std::size_t>(bit(cursor++) ? b : a)];
        }
        std::fill_n(order.begin(), g, -1);
        for (int label = 0; label < g; ++label) {
            int& slot = order[static_cast<std::size_t>(g - 1 - wins[static_cast<std::size_t>(label)])];
            if (slot != -1) return {}; // corrected bits are not a consistent order
            slot = label;
        }
        // Exact decode: the order's own Kendall bits must be the corrected ones.
        bool exact = true;
        cursor = first;
        for_each_kendall_pair(order, g, [&](bool inverted) { exact &= inverted == bit(cursor++); });
        if (!exact) return {};
        // Lehmer rank, MSB-first in compact_bits(g) key bits.
        std::uint64_t rank = 0;
        for (int r = 0; r < g; ++r) {
            std::uint64_t smaller = 0;
            for (int q = r + 1; q < g; ++q) {
                smaller += order[static_cast<std::size_t>(q)] < order[static_cast<std::size_t>(r)];
            }
            rank += smaller * kFactorial[static_cast<std::size_t>(g - 1 - r)];
        }
        const int width = kCompactBits[static_cast<std::size_t>(g)];
        for (int i = width - 1; i >= 0; --i) {
            out.key[key_at++] = static_cast<std::uint8_t>((rank >> i) & 1u);
        }
    }
    out.ok = true;
    out.corrected = rec.corrected;
    return out;
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

bool same_helper(const GroupPufHelper& a, const GroupPufHelper& b) {
    return helperdata::same_coefficients(a.beta, b.beta) && a.group_of == b.group_of &&
           ecc::same_helper(a.ecc, b.ecc);
}

} // namespace ropuf::group

#include "ropuf/group/grouping.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ropuf::group {

GroupingResult grouping(std::span<const double> values, double delta_f_th,
                        int max_group_size) {
    assert(max_group_size >= 1);
    const int n = static_cast<int>(values.size());
    std::vector<int> pi(static_cast<std::size_t>(n));
    std::iota(pi.begin(), pi.end(), 0);
    std::sort(pi.begin(), pi.end(), [&](int a, int b) {
        if (values[static_cast<std::size_t>(a)] != values[static_cast<std::size_t>(b)]) {
            return values[static_cast<std::size_t>(a)] > values[static_cast<std::size_t>(b)];
        }
        return a < b;
    });

    GroupingResult out;
    out.group_of.assign(static_cast<std::size_t>(n), 0);
    // last_value[j] = value of the most recent RO appended to group j+1;
    // the paper's sentinel RO0.f = infinity models "empty group accepts all".
    std::vector<double> last_value;
    for (int rank = 0; rank < n; ++rank) {
        const int ro = pi[static_cast<std::size_t>(rank)];
        const double f = values[static_cast<std::size_t>(ro)];
        std::size_t j = 0;
        while (j < last_value.size() &&
               (last_value[j] - f <= delta_f_th ||
                static_cast<int>(out.members[j].size()) >= max_group_size)) {
            ++j;
        }
        if (j == last_value.size()) {
            last_value.push_back(f);
            out.members.emplace_back();
        } else {
            last_value[j] = f;
        }
        out.group_of[static_cast<std::size_t>(ro)] = static_cast<int>(j) + 1;
        out.members[j].push_back(ro);
    }
    out.num_groups = static_cast<int>(out.members.size());
    return out;
}

std::vector<std::vector<int>> members_from_assignment(const std::vector<int>& group_of) {
    int max_group = 0;
    for (int g : group_of) {
        if (g < 1) throw std::invalid_argument("group ids must be >= 1");
        // n ROs fill at most n groups; a larger id is a gap, and must not
        // size the members table below.
        if (static_cast<std::size_t>(g) > group_of.size()) {
            throw std::invalid_argument("group ids must be dense");
        }
        max_group = std::max(max_group, g);
    }
    std::vector<std::vector<int>> members(static_cast<std::size_t>(max_group));
    for (std::size_t i = 0; i < group_of.size(); ++i) {
        members[static_cast<std::size_t>(group_of[i] - 1)].push_back(static_cast<int>(i));
    }
    for (const auto& m : members) {
        if (m.empty()) throw std::invalid_argument("group ids must be dense");
    }
    return members;
}

double grouping_entropy_bits(const GroupingResult& grouping) {
    double h = 0.0;
    for (const auto& m : grouping.members) {
        h += stats::log2_factorial(static_cast<int>(m.size()));
    }
    return h;
}

} // namespace ropuf::group

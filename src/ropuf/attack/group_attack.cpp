#include "ropuf/attack/group_attack.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <utility>

#include "ropuf/attack/adaptive.hpp"
#include "ropuf/attack/calibration.hpp"
#include "ropuf/distiller/poly_surface.hpp"
#include "ropuf/helperdata/formats.hpp"

namespace ropuf::attack {

using group::GroupBasedPuf;
using group::GroupPufHelper;

GroupBasedAttack::ComparisonInstance GroupBasedAttack::build_comparison(
    const GroupPufHelper& pristine, const sim::ArrayGeometry& geometry,
    const ecc::BchCode& code, int a, int b, double steep_amp) {
    assert(a != b);
    ComparisonInstance out;
    out.target_a = a;
    out.target_b = b;
    const int n = geometry.count();

    // Steep plane with gradient perpendicular to a->b: S(a) == S(b).
    const int dx = geometry.x_of(b) - geometry.x_of(a);
    const int dy = geometry.y_of(b) - geometry.y_of(a);
    const double nx = static_cast<double>(-dy);
    const double ny = static_cast<double>(dx);
    const auto plane = distiller::PolySurface::plane(0.0, steep_amp * nx, steep_amp * ny);
    out.surface = plane.evaluate_grid(geometry);

    // Repartition: G1 = {a, b}; remaining ROs paired along the gradient.
    out.group_of.assign(static_cast<std::size_t>(n), 0);
    out.group_of[static_cast<std::size_t>(a)] = 1;
    out.group_of[static_cast<std::size_t>(b)] = 1;
    std::vector<int> rest;
    rest.reserve(static_cast<std::size_t>(n - 2));
    for (int i = 0; i < n; ++i) {
        if (i != a && i != b) rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(), [&](int u, int w) {
        const double su = out.surface[static_cast<std::size_t>(u)];
        const double sw = out.surface[static_cast<std::size_t>(w)];
        if (su != sw) return su < sw;
        return u < w;
    });
    // Bucket the remaining ROs by their S value (ROs on the same
    // perpendicular line are indistinguishable under the plane), then pair
    // element-wise across adjacent buckets: every such pair has |ΔS| >= one
    // full plane step. Leftovers become singleton groups (zero key bits,
    // zero constraints). Element-wise cross-bucket pairing matters when the
    // targets are axis-aligned — the plane then collapses onto few fat
    // buckets (e.g. one per row) and consecutive-entry pairing would yield
    // almost no forced pairs.
    std::vector<std::vector<int>> buckets;
    for (int ro : rest) {
        const double s = out.surface[static_cast<std::size_t>(ro)];
        if (buckets.empty() ||
            s - out.surface[static_cast<std::size_t>(buckets.back().front())] >
                steep_amp * 0.5) {
            buckets.emplace_back();
        }
        buckets.back().push_back(ro);
    }
    std::vector<helperdata::IndexPair> forced_pairs;
    std::vector<int> singletons;
    for (std::size_t b = 0; b + 1 < buckets.size(); b += 2) {
        auto& lo_bucket = buckets[b];
        auto& hi_bucket = buckets[b + 1];
        const std::size_t paired = std::min(lo_bucket.size(), hi_bucket.size());
        for (std::size_t i = 0; i < paired; ++i) {
            forced_pairs.emplace_back(lo_bucket[i], hi_bucket[i]);
        }
        for (std::size_t i = paired; i < lo_bucket.size(); ++i) singletons.push_back(lo_bucket[i]);
        for (std::size_t i = paired; i < hi_bucket.size(); ++i) singletons.push_back(hi_bucket[i]);
    }
    if (buckets.size() % 2 == 1) {
        for (int ro : buckets.back()) singletons.push_back(ro);
    }
    int next_group = 2;
    for (const auto& [u, w] : forced_pairs) {
        out.group_of[static_cast<std::size_t>(u)] = next_group;
        out.group_of[static_cast<std::size_t>(w)] = next_group;
        ++next_group;
    }
    for (int s : singletons) out.group_of[static_cast<std::size_t>(s)] = next_group++;

    // Expected Kendall bits: position 0 is G1's (the hypothesis); every
    // forced 2-RO group contributes one attacker-known bit. The Kendall bit
    // of a 2-RO group {u, w} (labels = ascending index) is 1 iff the
    // higher-indexed RO has the larger residual.
    bits::BitVec forced_bits(forced_pairs.size());
    for (std::size_t i = 0; i < forced_pairs.size(); ++i) {
        const auto [u, w] = forced_pairs[i];
        const int lo = std::min(u, w);
        const int hi = std::max(u, w);
        forced_bits[i] = out.surface[static_cast<std::size_t>(hi)] >
                                 out.surface[static_cast<std::size_t>(lo)]
                             ? 1
                             : 0;
    }

    const ecc::BlockEcc block_ecc(code);
    // beta' = beta_enrolled - S: the device's residual becomes r_orig + S
    // exactly (the enrollment fit keeps doing its systematic removal). The
    // plane occupies the low-order coefficient slots shared by all degrees.
    std::vector<double> beta_attack = pristine.beta;
    assert(beta_attack.size() >= 3);
    beta_attack[0] -= plane.beta()[0]; // constant
    beta_attack[1] -= plane.beta()[1]; // x
    beta_attack[2] -= plane.beta()[2]; // y

    // The injection needs t attacker-known bits in the target's block 0
    // besides the target itself. Usually plentiful; with extreme geometries
    // fall back to flipping stored parity bits, which needs no data bits and
    // has the identical error-budget effect.
    const int eligible_in_block0 =
        std::min<int>(static_cast<int>(forced_bits.size()), code.k() - 1);
    const bool use_data_inversion = eligible_in_block0 >= code.t();

    for (int h = 0; h < 2; ++h) {
        bits::BitVec kendall;
        kendall.reserve(forced_bits.size() + 1);
        kendall.push_back(static_cast<std::uint8_t>(h));
        for (auto b : forced_bits) kendall.push_back(b);

        auto& helper = out.helper[h];
        helper.beta = beta_attack;
        helper.group_of = out.group_of;
        if (use_data_inversion) {
            // Injection: t known forced bits inverted in the target's block 0
            // ("we just compute the ECC redundancy given some inverted bit
            // values"). The published parity makes the *inverted* string the
            // ECC reference, so a correct hypothesis decodes to it
            // (t corrections) while an incorrect one overflows at t+1 errors.
            const auto inverted =
                invert_for_parity(kendall, block_ecc, /*block=*/0, code.t(), /*keep=*/{0});
            helper.ecc = block_ecc.enroll(inverted);
            out.expected_key[h] = inverted;
        } else {
            helper.ecc = block_ecc.enroll(kendall);
            flip_parity_bits(helper.ecc, block_ecc, /*block=*/0, code.t());
            out.expected_key[h] = kendall;
        }
    }
    return out;
}

GroupSession::GroupSession(GroupPufHelper pristine, sim::ArrayGeometry geometry,
                           ecc::BchCode code, GroupBasedAttack::Config config)
    : pristine_(std::move(pristine)),
      geometry_(geometry),
      code_(std::move(code)),
      config_(config) {
    start(body());
}

bits::BitVec GroupSession::partial_key() const {
    return out_.recovered_key.empty() ? partial_ : out_.recovered_key;
}

std::string GroupSession::notes() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%d comparator runs over %d groups%s%s", out_.comparisons,
                  groups_total_, fell_back_ ? ", fell back to capped planes" : "",
                  dead_ ? ", aborted: probes blanket-refused" : "");
    return buf;
}

double GroupSession::capped_amp(int a, int b) const {
    // The comparison plane at unit amplitude has exactly two non-constant
    // coefficients: beta_x = -dy, beta_y = dx (gradient perpendicular to
    // a -> b); the capped amplitude keeps |pristine - amp * s| inside the
    // attacker's plausibility estimate.
    const double unit[3] = {0.0, static_cast<double>(-(geometry_.y_of(b) - geometry_.y_of(a))),
                            static_cast<double>(geometry_.x_of(b) - geometry_.x_of(a))};
    return capped_surface_amp(unit, pristine_.beta, config_.plausibility_cap);
}

Sub<std::optional<bool>> GroupSession::compare(int a, int b) {
    using Puf = group::GroupBasedPuf;
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    if (dead_) co_return std::nullopt; // hard defense: stop spending queries
    // Amplitude schedule: the active mode's plane first; when adaptive and
    // still in steep mode, one fallback round with the structure-preserving
    // capped plane (a blanket-refusing validator fails *every* hypothesis,
    // which honest measurement noise essentially never does).
    for (int phase = 0; phase < 2; ++phase) {
        double amp = config_.steep_amp;
        if (fell_back_ || phase == 1) {
            if (phase == 1 && (!config_.adaptive || fell_back_)) break;
            amp = capped_amp(lo, hi);
            if (amp <= 0.0) break;
        }
        const auto instance =
            GroupBasedAttack::build_comparison(pristine_, geometry_, code_, lo, hi, amp);
        for (int attempt = 0; attempt < config_.max_retries; ++attempt) {
            for (int h = 0; h < 2; ++h) {
                ++out_.comparisons;
                const bool failed = co_await any_pass(
                    make_probe<Puf>(instance.helper[h], instance.expected_key[h]),
                    config_.majority_wins);
                if (!failed) {
                    if (phase == 1) fell_back_ = true;
                    dead_comparisons_ = 0;
                    // h = 1 means residual(hi) > residual(lo).
                    const bool hi_greater = h == 1;
                    co_return (a == hi) == hi_greater;
                }
            }
        }
    }
    // Abort only while the fallback has never worked: consecutive fully
    // inconclusive comparisons then mean blanket refusal (MAC-bound or
    // bricked device), not measurement noise.
    if (config_.adaptive && !fell_back_ && ++dead_comparisons_ >= 2) dead_ = true;
    co_return std::nullopt;
}

Sub<bool> GroupSession::cmp_labels(int la, int lb, const std::vector<int>& labels,
                                   bool& group_ok) {
    const auto res = co_await compare(labels[static_cast<std::size_t>(la)],
                                      labels[static_cast<std::size_t>(lb)]);
    if (!res) {
        group_ok = false;
        co_return la < lb; // arbitrary but consistent fallback
    }
    co_return *res; // residual(la) > residual(lb): la ranks first
}

SessionBody GroupSession::body() {
    const auto members = group::members_from_assignment(pristine_.group_of);
    groups_total_ = static_cast<int>(members.size());

    bool all_resolved = true;
    bits::BitVec key;
    for (const auto& grp : members) {
        std::vector<int> labels = grp;
        std::sort(labels.begin(), labels.end());
        const int g = static_cast<int>(labels.size());
        if (g == 1) continue;

        // Recover the descending-residual order of this group's labels.
        std::vector<int> order(static_cast<std::size_t>(g));
        std::iota(order.begin(), order.end(), 0);
        bool group_ok = true;

        if (config_.mode == GroupBasedAttack::Mode::SortMerge) {
            // Hand-rolled bottom-up merge sort: each comparator call costs
            // oracle queries and may (rarely) be inconsistent under noise, so
            // we avoid std::sort's strict-weak-ordering requirements.
            std::vector<int> buffer(order.size());
            for (std::size_t width = 1; width < order.size(); width *= 2) {
                for (std::size_t lo = 0; lo < order.size(); lo += 2 * width) {
                    const std::size_t mid = std::min(lo + width, order.size());
                    const std::size_t hi_end = std::min(lo + 2 * width, order.size());
                    std::size_t i = lo;
                    std::size_t j = mid;
                    std::size_t o = lo;
                    while (i < mid && j < hi_end) {
                        const bool take_j = co_await cmp_labels(order[j], order[i], labels,
                                                                group_ok);
                        buffer[o++] = take_j ? order[j++] : order[i++];
                    }
                    while (i < mid) buffer[o++] = order[i++];
                    while (j < hi_end) buffer[o++] = order[j++];
                    std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(lo),
                              buffer.begin() + static_cast<std::ptrdiff_t>(hi_end),
                              order.begin() + static_cast<std::ptrdiff_t>(lo));
                }
            }
        } else {
            // Exhaustive: all pairwise comparisons, then order by win count.
            std::vector<int> wins(static_cast<std::size_t>(g), 0);
            for (int i = 0; i < g && group_ok; ++i) {
                for (int j = i + 1; j < g && group_ok; ++j) {
                    const auto res = co_await compare(labels[static_cast<std::size_t>(i)],
                                                      labels[static_cast<std::size_t>(j)]);
                    if (!res) {
                        group_ok = false;
                        break;
                    }
                    ++wins[static_cast<std::size_t>(*res ? i : j)];
                }
            }
            std::sort(order.begin(), order.end(), [&](int la, int lb) {
                if (wins[static_cast<std::size_t>(la)] != wins[static_cast<std::size_t>(lb)]) {
                    return wins[static_cast<std::size_t>(la)] > wins[static_cast<std::size_t>(lb)];
                }
                return la < lb;
            });
        }

        all_resolved = all_resolved && group_ok;
        const auto packed = group::compact_encode(order);
        key.insert(key.end(), packed.begin(), packed.end());
        partial_ = key;
    }
    out_.recovered_key = key;
    out_.complete = all_resolved;
    out_.queries = probes_answered();
}

} // namespace ropuf::attack

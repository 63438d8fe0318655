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
    ComparisonWorkspace ws;
    build_comparison(pristine, geometry, code, a, b, steep_amp, ws);
    return std::move(ws.instance);
}

void GroupBasedAttack::build_comparison(const GroupPufHelper& pristine,
                                        const sim::ArrayGeometry& geometry,
                                        const ecc::BchCode& code, int a, int b,
                                        double steep_amp, ComparisonWorkspace& ws) {
    assert(a != b);
    const auto at = [](int i) { return static_cast<std::size_t>(i); };
    auto& out = ws.instance;
    out.target_a = a;
    out.target_b = b;
    const int n = geometry.count();

    // Steep plane with gradient perpendicular to a->b: S(a) == S(b).
    const int nx = -(geometry.y_of(b) - geometry.y_of(a));
    const int ny = geometry.x_of(b) - geometry.x_of(a);
    const double plane[3] = {0.0, steep_amp * nx, steep_amp * ny};
    out.surface.resize(at(n));
    distiller::evaluate_grid(1, plane, geometry, out.surface);
    const auto& surface = out.surface;
    const auto below = [&](int u, int w) {
        const double su = surface[at(u)];
        const double sw = surface[at(w)];
        if (su != sw) return su < sw;
        return u < w;
    };

    // Repartition: G1 = {a, b}; the remaining ROs sorted by (S, index).
    // S(i) is steep_amp * (nx x_i + ny y_i) up to rounding, so a counting
    // sort on that integer key (negated for a negative amplitude) places
    // every RO, and an insertion pass with the comparator itself settles ROs
    // of one key whose computed S differ by an ulp. The comparator is a
    // total order on non-NaN S, so the result is the one std::sort gives.
    const int sign = steep_amp < 0.0 ? -1 : steep_amp > 0.0 ? 1 : 0;
    const int kx = sign * nx;
    const int ky = sign * ny;
    const int x_max = geometry.cols - 1;
    const int y_max = geometry.rows - 1;
    const int lowest = std::min(0, kx * x_max) + std::min(0, ky * y_max);
    const int highest = std::max(0, kx * x_max) + std::max(0, ky * y_max);
    // Visits every other RO in index order with its key, row by row.
    const auto each_other = [&](auto&& visit) {
        int i = 0;
        for (int y = 0; y < geometry.rows; ++y) {
            int key = ky * y - lowest;
            for (int x = 0; x < geometry.cols; ++x, ++i, key += kx) {
                if (i != a && i != b) visit(i, at(key));
            }
        }
    };
    auto& start = ws.key_start;
    start.assign(at(highest - lowest + 2), 0);
    each_other([&](int, std::size_t key) { ++start[key + 1]; });
    for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
    auto& order = ws.order;
    order.resize(at(n - 2));
    each_other([&](int i, std::size_t key) { order[at(start[key]++)] = i; });
    for (std::size_t i = 1; i < order.size(); ++i) {
        const int ro = order[i];
        std::size_t j = i;
        for (; j > 0 && below(ro, order[j - 1]); --j) order[j] = order[j - 1];
        order[j] = ro;
    }
    // Bucket the remaining ROs by their S value (ROs on the same
    // perpendicular line are indistinguishable under the plane), then pair
    // element-wise across adjacent buckets: every such pair has |ΔS| >= one
    // full plane step. Leftovers become singleton groups (zero key bits,
    // zero constraints). Element-wise cross-bucket pairing matters when the
    // targets are axis-aligned — the plane then collapses onto few fat
    // buckets (e.g. one per row) and consecutive-entry pairing would yield
    // almost no forced pairs.
    auto& bucket = ws.bucket_start;
    bucket.clear();
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (bucket.empty() ||
            surface[at(order[i])] - surface[at(order[at(bucket.back())])] > steep_amp * 0.5) {
            bucket.push_back(static_cast<int>(i));
        }
    }
    bucket.push_back(static_cast<int>(order.size()));
    const std::size_t buckets = bucket.size() - 1;
    int forced = 0;
    for (std::size_t j = 0; j + 1 < buckets; j += 2) {
        forced += std::min(bucket[j + 1] - bucket[j], bucket[j + 2] - bucket[j + 1]);
    }

    // Group ids: the forced pairs 2, 3, ... in pairing order, then the
    // singletons. Expected Kendall bits: position 0 is G1's (the
    // hypothesis); forced pair i contributes the attacker-known bit i + 1.
    // The Kendall bit of a 2-RO group {u, w} (labels = ascending index) is
    // 1 iff the higher-indexed RO has the larger residual.
    const int kendall_bits = forced + 1;
    ws.kendall.assign(bits::word_count(at(kendall_bits)), 0);
    auto& key0 = out.expected_key[0]; // hypothesis 0's bits, one per byte
    key0.assign(at(kendall_bits), 0);
    out.group_of.assign(at(n), 0);
    out.group_of[at(a)] = 1;
    out.group_of[at(b)] = 1;
    int next_pair = 2;
    int next_single = 2 + forced;
    const auto singletons = [&](int from, int to) {
        for (int i = from; i < to; ++i) out.group_of[at(order[at(i)])] = next_single++;
    };
    for (std::size_t j = 0; j + 1 < buckets; j += 2) {
        const int lo = bucket[j];
        const int hi = bucket[j + 1];
        const int paired = std::min(hi - lo, bucket[j + 2] - hi);
        for (int i = 0; i < paired; ++i) {
            const int u = order[at(lo + i)];
            const int w = order[at(hi + i)];
            if (surface[at(std::max(u, w))] > surface[at(std::min(u, w))]) {
                bits::set_bit(ws.kendall, at(next_pair - 1));
                key0[at(next_pair - 1)] = 1;
            }
            out.group_of[at(u)] = next_pair;
            out.group_of[at(w)] = next_pair++;
        }
        singletons(lo + paired, hi);
        singletons(hi + paired, bucket[j + 2]);
    }
    if (buckets % 2 == 1) singletons(bucket[buckets - 1], bucket[buckets]);

    const ecc::BlockEcc block_ecc(code);
    // The injection needs t attacker-known bits in the target's block 0
    // besides the target itself. Usually plentiful; with extreme geometries
    // fall back to flipping stored parity bits, which needs no data bits and
    // has the identical error-budget effect.
    const int t = code.t();
    const bool use_data_inversion = std::min(forced, code.k() - 1) >= t;
    if (use_data_inversion) {
        // Injection: the first t forced bits (block 0, after the target)
        // inverted ("we just compute the ECC redundancy given some inverted
        // bit values"). The published parity makes the *inverted* string the
        // ECC reference, so a correct hypothesis decodes to it
        // (t corrections) while an incorrect one overflows at t+1 errors.
        for (int i = 1; i <= t; ++i) {
            bits::flip_bit(ws.kendall, at(i));
            key0[at(i)] ^= 1u;
        }
    }
    for (int h = 0; h < 2; ++h) {
        if (h == 1) bits::set_bit(ws.kendall, 0);
        auto& helper = out.helper[h];
        // beta' = beta_enrolled - S: the device's residual becomes r_orig + S
        // exactly (the enrollment fit keeps doing its systematic removal).
        // The plane occupies the low-order coefficient slots shared by all
        // degrees.
        helper.beta = pristine.beta;
        assert(helper.beta.size() >= 3);
        for (std::size_t c = 0; c < 3; ++c) helper.beta[c] -= plane[c];
        helper.group_of = out.group_of;
        helper.ecc = block_ecc.enroll(ws.kendall, kendall_bits);
        if (!use_data_inversion) flip_parity_bits(helper.ecc, block_ecc, /*block=*/0, t);
    }
    out.expected_key[1] = key0;
    out.expected_key[1][0] = 1;
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
        GroupBasedAttack::build_comparison(pristine_, geometry_, code_, lo, hi, amp, workspace_);
        const auto& instance = workspace_.instance;
        const core::Probe probes[2] = {
            make_probe<Puf>(instance.helper[0], instance.expected_key[0]),
            make_probe<Puf>(instance.helper[1], instance.expected_key[1])};
        for (int attempt = 0; attempt < config_.max_retries; ++attempt) {
            for (int h = 0; h < 2; ++h) {
                ++out_.comparisons;
                const bool failed = co_await any_pass(probes[h], config_.majority_wins);
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

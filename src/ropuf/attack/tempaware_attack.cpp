#include "ropuf/attack/tempaware_attack.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "ropuf/attack/calibration.hpp"
#include "ropuf/ecc/block_ecc.hpp"

namespace ropuf::attack {

using tempaware::PairClass;
using tempaware::TempAwareHelper;
using tempaware::TempAwarePuf;

namespace {

bool interval_contains(const tempaware::PairRecord& rec, double t) {
    return rec.cls == PairClass::Cooperating && t >= rec.t_low && t <= rec.t_high;
}

/// Pairs whose records must not be touched because an honestly-cooperating
/// pair references them at the ambient temperature.
std::vector<int> referenced_at_ambient(const TempAwareHelper& helper, double ambient_c) {
    std::vector<int> refs;
    for (std::size_t p = 0; p < helper.records.size(); ++p) {
        const auto& rec = helper.records[p];
        if (interval_contains(rec, ambient_c)) {
            refs.push_back(rec.helper_pair);
            refs.push_back(rec.mask_pair);
        }
    }
    return refs;
}

} // namespace

tempaware::TempAwareHelper TempAwareAttack::make_substitution_helper(
    const TempAwareHelper& pristine, const ecc::BchCode& code, int requester, int target,
    bool substitute_mask, double ambient_c, int inject) {
    TempAwareHelper variant = pristine;
    auto& rec = variant.records[static_cast<std::size_t>(requester)];
    rec.t_low = ambient_c - 1.0;
    rec.t_high = ambient_c + 1.0;
    if (substitute_mask) {
        rec.mask_pair = target;
    } else {
        rec.helper_pair = target;
    }
    const ecc::BlockEcc block_ecc(code);
    const int pos = TempAwarePuf::key_position(pristine, requester);
    assert(pos >= 0);
    flip_parity_bits(variant.ecc, block_ecc, block_of_position(block_ecc, pos), inject);
    return variant;
}

tempaware::TempAwareHelper TempAwareAttack::make_boundary_injection_helper(
    const TempAwareHelper& pristine, double ambient_c, int count) {
    TempAwareHelper variant = pristine;
    int injected = 0;
    // The attacker reads the (public) records: a good pair, or a cooperating
    // pair whose real interval lies above ambient, currently reconstructs
    // WITHOUT inversion. Storing an interval entirely below ambient makes the
    // device apply the T > Th compensation to a bit that never crossed over.
    for (std::size_t p = 0; p < variant.records.size() && injected < count; ++p) {
        auto& rec = variant.records[p];
        const bool uninverted_now =
            rec.cls == PairClass::Good ||
            (rec.cls == PairClass::Cooperating && ambient_c < rec.t_low);
        if (!uninverted_now) continue;
        rec.cls = PairClass::Cooperating;
        rec.t_low = ambient_c - 2.0;
        rec.t_high = ambient_c - 1.0; // below ambient: forced inversion
        if (rec.helper_pair < 0) rec.helper_pair = 0;
        if (rec.mask_pair < 0) rec.mask_pair = 0;
        ++injected;
    }
    if (injected < count) {
        throw std::invalid_argument("boundary injection: not enough uninverted pairs");
    }
    return variant;
}

std::vector<std::pair<int, int>> TempAwareAttack::analyze_deterministic_scan(
    const TempAwareHelper& pristine) {
    std::vector<std::pair<int, int>> unequal;
    const int n = static_cast<int>(pristine.records.size());
    for (int c = 0; c < n; ++c) {
        const auto& rec = pristine.records[static_cast<std::size_t>(c)];
        if (rec.cls != PairClass::Cooperating || rec.helper_pair < 0) continue;
        // Replays the deterministic scan: every cooperating candidate with a
        // disjoint interval that precedes the chosen assistant in index order
        // was examined and rejected, so its bit differs from the assistant's.
        for (int j = 0; j < rec.helper_pair; ++j) {
            if (j == c) continue;
            const auto& cand = pristine.records[static_cast<std::size_t>(j)];
            if (cand.cls != PairClass::Cooperating) continue;
            const bool disjoint = cand.t_high < rec.t_low || cand.t_low > rec.t_high;
            if (disjoint) unequal.emplace_back(j, rec.helper_pair);
        }
    }
    return unequal;
}

TempAwareSession::TempAwareSession(TempAwareHelper pristine, ecc::BchCode code,
                                   double ambient_c, TempAwareAttack::Config config)
    : pristine_(std::move(pristine)),
      code_(std::move(code)),
      ambient_c_(ambient_c),
      config_(config) {
    start(body());
}

bits::BitVec TempAwareSession::partial_key() const {
    if (!out_.recovered_key.empty()) return out_.recovered_key;
    // Phase-1 knowledge: measured anchor relations at the cooperating
    // positions (correct up to the single global bit r_ci).
    bits::BitVec partial(static_cast<std::size_t>(TempAwarePuf::key_bits(pristine_)), 0);
    for (int p : out_.coop_pairs) {
        const int pos = TempAwarePuf::key_position(pristine_, p);
        if (pos >= 0 && static_cast<std::size_t>(p) < v_.size() &&
            v_[static_cast<std::size_t>(p)]) {
            partial[static_cast<std::size_t>(pos)] = *v_[static_cast<std::size_t>(p)];
        }
    }
    return partial;
}

std::string TempAwareSession::notes() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%zu coop / %zu good pairs, %zu untestable resolved",
                  out_.coop_pairs.size(), out_.good_pairs.size(), out_.skipped_pairs.size());
    return buf;
}

Sub<std::uint8_t> TempAwareSession::relation_test(int requester, int target, bool mask) {
    using Puf = tempaware::TempAwarePuf;
    const auto helper = TempAwareAttack::make_substitution_helper(
        pristine_, code_, requester, target, mask, ambient_c_, code_.t());
    // One-sided rule: any pass proves H0; only a run of failures means H1.
    const bool failed = co_await any_pass(make_probe<Puf>(helper), 2 * config_.majority_wins);
    ++out_.relation_tests;
    co_return failed ? std::uint8_t{1} : std::uint8_t{0};
}

SessionBody TempAwareSession::body() {
    using Puf = tempaware::TempAwarePuf;
    const double ambient = ambient_c_;
    const int n = static_cast<int>(pristine_.records.size());
    auto& out = out_;

    for (int p = 0; p < n; ++p) {
        const auto& rec = pristine_.records[static_cast<std::size_t>(p)];
        if (rec.cls == PairClass::Good) out.good_pairs.push_back(p);
        if (rec.cls == PairClass::Cooperating) out.coop_pairs.push_back(p);
    }
    if (out.coop_pairs.size() < 2) co_return;

    // Pairs that are physically unstable at the ambient temperature cannot
    // serve as assistants ("assuming reliability for the given temperature").
    auto stable_at_ambient = [&](int p) {
        return !interval_contains(pristine_.records[static_cast<std::size_t>(p)], ambient);
    };
    // Pairs referenced by honest cooperation at ambient must keep their records.
    const auto refs = referenced_at_ambient(pristine_, ambient);
    auto safe_requester = [&](int p) {
        return std::find(refs.begin(), refs.end(), p) == refs.end() &&
               pristine_.records[static_cast<std::size_t>(p)].helper_pair >= 0;
    };

    // --- Anchor selection. The anchor's honest assistant ci stays in use for
    // the phase-3 mask substitutions, so it must itself be stable at ambient.
    int c1 = -1;
    for (int p : out.coop_pairs) {
        const int h = pristine_.records[static_cast<std::size_t>(p)].helper_pair;
        if (safe_requester(p) && h >= 0 && stable_at_ambient(h)) {
            c1 = p;
            break;
        }
    }
    if (c1 < 0) co_return;
    const int ci = pristine_.records[static_cast<std::size_t>(c1)].helper_pair;

    // v[p] = r_p XOR r_ci for cooperating pairs (phase 1) — anchor relation.
    v_.assign(static_cast<std::size_t>(n), std::nullopt);
    auto& v = v_;
    v[static_cast<std::size_t>(ci)] = 0;
    out.measured_pairs.push_back(ci);

    // --- Phase 1: every cooperating pair vs rci through requester c1.
    for (int cj : out.coop_pairs) {
        if (cj == c1 || cj == ci) continue;
        if (!stable_at_ambient(cj)) {
            out.skipped_pairs.push_back(cj);
            continue;
        }
        v[static_cast<std::size_t>(cj)] = co_await relation_test(c1, cj, /*mask=*/false);
        out.measured_pairs.push_back(cj);
    }

    // --- Phase 2 (extension): good pairs via mask substitution.
    // Reconstructed bit for c1 is r_h XOR r_mask'; with the honest assistant
    // kept, substituting mask g' flips the bit iff r_g' != r_g1.
    const int g1 = pristine_.records[static_cast<std::size_t>(c1)].mask_pair;
    std::vector<std::optional<std::uint8_t>> w(static_cast<std::size_t>(n)); // r_g XOR r_g1
    if (g1 >= 0) w[static_cast<std::size_t>(g1)] = 0;
    if (config_.recover_good_pairs && g1 >= 0) {
        for (int gj : out.good_pairs) {
            if (gj == g1) continue;
            w[static_cast<std::size_t>(gj)] = co_await relation_test(c1, gj, /*mask=*/true);
        }
    }

    // --- Phase 3: algebraic resolution through the public enrollment
    // constraint r_c = r_{h_c} XOR r_{g_c} of every cooperating record.
    // Writing gamma = r_ci and delta = r_g1, the constraint of a pair c with
    // measured v[c] and v[h_c] pins delta = v[c] ^ v[h_c] ^ w[g_c]; the same
    // equation then resolves pairs that were untestable at the ambient
    // temperature (v[c] = v[h_c] ^ w[g_c] ^ delta) with zero extra queries.
    std::optional<std::uint8_t> delta;
    for (int c : out.coop_pairs) {
        const auto& rec = pristine_.records[static_cast<std::size_t>(c)];
        if (rec.helper_pair < 0 || rec.mask_pair < 0) continue;
        if (!v[static_cast<std::size_t>(c)] ||
            !v[static_cast<std::size_t>(rec.helper_pair)] ||
            !w[static_cast<std::size_t>(rec.mask_pair)]) {
            continue;
        }
        delta = static_cast<std::uint8_t>(*v[static_cast<std::size_t>(c)] ^
                                          *v[static_cast<std::size_t>(rec.helper_pair)] ^
                                          *w[static_cast<std::size_t>(rec.mask_pair)]);
        break;
    }
    if (!delta) {
        // Not enough structure to resolve the good-pair anchor (e.g. the
        // good-pair extension is disabled). Return the paper's core result:
        // a partial key whose cooperating positions carry the measured
        // relations (correct up to the single global bit r_ci).
        bits::BitVec partial(static_cast<std::size_t>(TempAwarePuf::key_bits(pristine_)), 0);
        for (int p : out.coop_pairs) {
            const int pos = TempAwarePuf::key_position(pristine_, p);
            if (pos >= 0 && v[static_cast<std::size_t>(p)]) {
                partial[static_cast<std::size_t>(pos)] = *v[static_cast<std::size_t>(p)];
            }
        }
        out.recovered_key = partial;
        out.queries = probes_answered();
        co_return;
    }
    // Fixpoint propagation over the remaining constraints.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (int c : out.coop_pairs) {
            if (v[static_cast<std::size_t>(c)]) continue;
            const auto& rec = pristine_.records[static_cast<std::size_t>(c)];
            if (rec.helper_pair < 0 || rec.mask_pair < 0) continue;
            if (!v[static_cast<std::size_t>(rec.helper_pair)] ||
                !w[static_cast<std::size_t>(rec.mask_pair)]) {
                continue;
            }
            v[static_cast<std::size_t>(c)] =
                static_cast<std::uint8_t>(*v[static_cast<std::size_t>(rec.helper_pair)] ^
                                          *w[static_cast<std::size_t>(rec.mask_pair)] ^ *delta);
            progressed = true;
        }
    }

    const int key_len = TempAwarePuf::key_bits(pristine_);
    bool complete = true;
    bits::BitVec candidate0(static_cast<std::size_t>(key_len), 0);
    // The two candidates packed as well, for the phase-4 parity.
    std::vector<std::uint64_t> packed[2];
    packed[0].assign(bits::word_count(candidate0.size()), 0);
    for (int p = 0; p < n; ++p) {
        const auto& rec = pristine_.records[static_cast<std::size_t>(p)];
        if (rec.cls == PairClass::Bad) continue;
        const int pos = TempAwarePuf::key_position(pristine_, p);
        std::optional<std::uint8_t> bit;
        if (rec.cls == PairClass::Cooperating) {
            if (v[static_cast<std::size_t>(p)]) bit = *v[static_cast<std::size_t>(p)]; // ^ gamma later
        } else {
            if (w[static_cast<std::size_t>(p)]) {
                bit = static_cast<std::uint8_t>(*w[static_cast<std::size_t>(p)] ^ *delta);
            }
        }
        if (!bit) {
            complete = false;
            continue;
        }
        candidate0[static_cast<std::size_t>(pos)] = *bit;
        if (*bit != 0) bits::set_bit(packed[0], static_cast<std::size_t>(pos));
    }
    if (!complete) {
        out.recovered_key = candidate0; // partial (unresolvable pairs remain)
        out.queries = probes_answered();
        co_return;
    }

    // candidate1: all cooperating bits complemented (rci = 1 instead of 0).
    bits::BitVec candidate1 = candidate0;
    packed[1] = packed[0];
    for (int p : out.coop_pairs) {
        const int pos = TempAwarePuf::key_position(pristine_, p);
        if (pos < 0) continue;
        candidate1[static_cast<std::size_t>(pos)] ^= 1u;
        bits::flip_bit(packed[1], static_cast<std::size_t>(pos));
    }

    // --- Phase 4: ECC-helper comparison of the two candidates.
    const ecc::BlockEcc block_ecc(code_);
    const bits::BitVec* const candidates[2] = {&candidate0, &candidate1};
    for (int c = 0; c < 2; ++c) {
        TempAwareHelper helper = pristine_;
        helper.ecc = block_ecc.enroll(packed[c], key_len);
        const bool failed =
            co_await any_pass(make_probe<Puf>(helper), 2 * config_.majority_wins);
        if (!failed) {
            out.recovered_key = *candidates[c];
            out.resolved = true;
            break;
        }
    }
    out.queries = probes_answered();
}

} // namespace ropuf::attack

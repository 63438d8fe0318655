#include "ropuf/attack/distiller_attack.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "ropuf/attack/adaptive.hpp"
#include "ropuf/attack/calibration.hpp"
#include "ropuf/pairing/masking.hpp"

namespace ropuf::attack {

namespace {

/// beta' = beta_enrolled - S, expressed at the pristine coefficient count.
/// Throws std::invalid_argument when S has terms the pristine degree cannot
/// carry (never happens for the degree<=2 surfaces used here with a degree>=2
/// distiller).
std::vector<double> subtract_surface(const std::vector<double>& beta,
                                     const distiller::PolySurface& s) {
    std::vector<double> out = beta;
    const auto& sb = s.beta();
    if (sb.size() > out.size()) {
        for (std::size_t i = out.size(); i < sb.size(); ++i) {
            if (sb[i] != 0.0) {
                throw std::invalid_argument("attack surface degree exceeds distiller degree");
            }
        }
    }
    for (std::size_t i = 0; i < std::min(out.size(), sb.size()); ++i) out[i] -= sb[i];
    return out;
}

/// ΔS over a pair, oriented (first, second): S(first) - S(second).
double pair_delta(const std::vector<double>& surface, const helperdata::IndexPair& pair) {
    return surface[static_cast<std::size_t>(pair.first)] -
           surface[static_cast<std::size_t>(pair.second)];
}

} // namespace

// ---------------------------------------------------------------------------
// MaskedChainAttack
// ---------------------------------------------------------------------------

distiller::PolySurface MaskedChainAttack::isolation_surface(const sim::ArrayGeometry& geometry,
                                                            int u, int w, double steep_amp) {
    const int xu = geometry.x_of(u);
    const int xw = geometry.x_of(w);
    const int yu = geometry.y_of(u);
    const int yw = geometry.y_of(w);
    assert(yu == yw && std::abs(xu - xw) == 1 &&
           "masked-chain targets are horizontal neighbor pairs");
    (void)yw; // referenced only by the assertion
    const double x0 = 0.5 * (xu + xw);
    const double ytar = yu;
    // S = A (x - x0)^2 + C x (y - ytar): the quadratic vanishes between the
    // target columns; the cross term re-forces that column boundary on every
    // other row. |C| is kept below the quadratic's inter-column step.
    const double c_amp = steep_amp / (geometry.rows + 1);
    auto s = distiller::PolySurface::quadratic_x(steep_amp, x0);
    // Add C*x*y - C*ytar*x.
    s.beta()[static_cast<std::size_t>(distiller::coefficient_index(2, 1))] += c_amp;
    s.beta()[static_cast<std::size_t>(distiller::coefficient_index(1, 0))] += -c_amp * ytar;
    return s;
}

MaskedChainSession::MaskedChainSession(const pairing::MaskedChainPuf& puf,
                                       pairing::MaskedChainHelper pristine,
                                       MaskedChainAttack::Config config)
    : puf_(&puf), pristine_(std::move(pristine)), config_(config) {
    start(body());
}

std::string MaskedChainSession::notes() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%d isolation surfaces%s%s", out_.targets,
                  fell_back_ ? ", fell back to capped surfaces" : "",
                  dead_ ? ", aborted: probes blanket-refused" : "");
    return buf;
}

Sub<bool> MaskedChainSession::try_target(int g, const distiller::PolySurface& surface,
                                         const std::vector<helperdata::IndexPair>& selected,
                                         int block) {
    using Puf = pairing::MaskedChainPuf;
    const int m = static_cast<int>(selected.size());
    const ecc::BlockEcc block_ecc(puf_->code());
    const int t = puf_->code().t();
    const auto grid = surface.evaluate_grid(puf_->array().geometry());

    // Expected bits: every other selected pair is forced by the surface
    // (weakly near the vertex when the surface is plausibility-capped — the
    // per-block ECC slack absorbs the occasional flip, retries the rest).
    bits::BitVec expected(static_cast<std::size_t>(m), 0);
    for (int g2 = 0; g2 < m; ++g2) {
        if (g2 == g) continue;
        const double d = pair_delta(grid, selected[static_cast<std::size_t>(g2)]);
        expected[static_cast<std::size_t>(g2)] = d > 0 ? 1 : 0;
    }

    // One helper and one inverted key serve every hypothesis: only the
    // parity and the target bit change between probes.
    pairing::MaskedChainHelper helper = pristine_;
    helper.beta = subtract_surface(pristine_.beta, surface);
    const std::vector<int> keep{g};
    bits::BitVec inverted;
    for (int attempt = 0; attempt < config_.max_retries; ++attempt) {
        for (int h = 0; h < 2; ++h) {
            expected[static_cast<std::size_t>(g)] = static_cast<std::uint8_t>(h);
            // The inverted string is the ECC reference: a correct
            // hypothesis decodes to it (t corrections), an incorrect one
            // overflows — so the oracle compares against the inversion.
            inverted = expected;
            invert_for_parity(inverted, block_ecc, block, t, keep);
            helper.ecc = block_ecc.enroll(inverted);
            const bool failed = co_await any_pass(make_probe<Puf>(helper, inverted),
                                                  config_.majority_wins);
            if (!failed) {
                key_[static_cast<std::size_t>(g)] = static_cast<std::uint8_t>(h);
                co_return true;
            }
        }
    }
    co_return false;
}

SessionBody MaskedChainSession::body() {
    const auto& base_pairs = puf_->base_pairs();
    const auto selected = pairing::select_pairs(base_pairs, pristine_.masking);
    const int m = static_cast<int>(selected.size());
    const ecc::BlockEcc block_ecc(puf_->code());
    const auto& geometry = puf_->array().geometry();

    key_ = bits::BitVec(static_cast<std::size_t>(m), 0);
    bool complete = true;

    for (int g = 0; g < m; ++g) {
        ++out_.targets;
        if (dead_) { // hard defense concluded: stop spending queries
            complete = false;
            continue;
        }
        const auto target = selected[static_cast<std::size_t>(g)];
        const int block = block_of_position(block_ecc, g);

        // Surface schedule: the active mode first; when adaptive and still
        // in steep mode, one fallback round with the structure-preserving
        // capped surface.
        bool decided = false;
        for (int phase = 0; phase < 2 && !decided; ++phase) {
            const bool capped = fell_back_ || phase == 1;
            if (phase == 1 && (!config_.adaptive || fell_back_)) break;
            auto surface = MaskedChainAttack::isolation_surface(
                geometry, target.first, target.second, config_.steep_amp);
            if (capped) {
                const auto unit = drop_constant(MaskedChainAttack::isolation_surface(
                    geometry, target.first, target.second, 1.0));
                const double amp = capped_surface_amp(unit.beta(), pristine_.beta,
                                                      config_.plausibility_cap);
                if (amp <= 0.0) break;
                surface = drop_constant(MaskedChainAttack::isolation_surface(
                    geometry, target.first, target.second, amp));
            }
            decided = co_await try_target(g, surface, selected, block);
            if (decided && phase == 1) fell_back_ = true;
        }
        if (decided) {
            dead_targets_ = 0;
        } else if (config_.adaptive && !fell_back_ && ++dead_targets_ >= 2) {
            // Blanket refusal (the fallback never worked either), not noise.
            dead_ = true;
        }
        complete = complete && decided;
    }
    out_.recovered_key = key_;
    out_.complete = complete;
    out_.queries = probes_answered();
}

// ---------------------------------------------------------------------------
// OverlapChainAttack
// ---------------------------------------------------------------------------

std::vector<distiller::PolySurface> OverlapChainAttack::probe_surfaces(
    const sim::ArrayGeometry& geometry, double steep_amp) {
    std::vector<distiller::PolySurface> probes;
    // Cross-row plane first: S = A (x + (cols-1) y) vanishes across every
    // row-wrap pair (cols-1, y) -> (0, y+1) and forces all horizontal pairs.
    probes.push_back(
        distiller::PolySurface::plane(0.0, steep_amp, steep_amp * (geometry.cols - 1)));
    // One vertex quadratic per column boundary (the Fig. 6c pattern).
    for (int c = 0; c + 1 < geometry.cols; ++c) {
        probes.push_back(distiller::PolySurface::quadratic_x(steep_amp, c + 0.5));
    }
    return probes;
}

OverlapChainSession::OverlapChainSession(const pairing::OverlapChainPuf& puf,
                                         pairing::OverlapChainHelper pristine,
                                         OverlapChainAttack::Config config)
    : puf_(&puf), pristine_(std::move(pristine)), config_(config) {
    start(body());
}

bits::BitVec OverlapChainSession::partial_key() const {
    bits::BitVec key(known_.size(), 0);
    for (std::size_t i = 0; i < known_.size(); ++i) {
        if (known_[i]) key[i] = *known_[i];
    }
    return key;
}

std::string OverlapChainSession::notes() const {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%d probes, %d hypotheses, largest unknown set %d%s%s",
                  out_.probes, out_.hypotheses, out_.max_set_size,
                  fell_back_ ? ", fell back to capped surfaces" : "",
                  dead_ ? ", aborted: probes blanket-refused" : "");
    return buf;
}

Sub<int> OverlapChainSession::try_surface(const distiller::PolySurface& surface,
                                          double margin) {
    using Puf = pairing::OverlapChainPuf;
    const auto& pairs = puf_->pairs();
    const int m = static_cast<int>(pairs.size());
    const ecc::BlockEcc block_ecc(puf_->code());
    const int t = puf_->code().t();
    const auto grid = surface.evaluate_grid(puf_->array().geometry());
    auto& known = known_;

    // Classify every response bit under this surface.
    std::vector<int> unknown;       // undetermined and not yet recovered
    std::vector<int> unknown_all;   // undetermined (recovered or not)
    bits::BitVec expected(static_cast<std::size_t>(m), 0);
    for (int i = 0; i < m; ++i) {
        const double d = pair_delta(grid, pairs[static_cast<std::size_t>(i)]);
        if (std::abs(d) < margin) {
            unknown_all.push_back(i);
            if (known[static_cast<std::size_t>(i)]) {
                expected[static_cast<std::size_t>(i)] = *known[static_cast<std::size_t>(i)];
            } else {
                unknown.push_back(i);
            }
        } else {
            expected[static_cast<std::size_t>(i)] = d > 0 ? 1 : 0;
        }
    }
    if (unknown.empty()) co_return 0;
    if (static_cast<int>(unknown.size()) > config_.max_unknown) co_return 0;
    ++out_.probes;
    out_.max_set_size = std::max(out_.max_set_size, static_cast<int>(unknown.size()));

    // One helper and one inverted key serve every hypothesis: only the
    // parity and the unknown bits change between probes.
    pairing::OverlapChainHelper helper = pristine_;
    helper.beta = subtract_surface(pristine_.beta, surface);
    bits::BitVec inverted;
    // Blocks containing any undetermined bit get the t-bit injection.
    std::set<int> hot_blocks;
    for (int i : unknown_all) hot_blocks.insert(block_of_position(block_ecc, i));
    std::vector<int> keep = unknown_all; // protect undetermined positions

    // Score-based assignment search. Unlike the thresholded selections of
    // the other constructions, an overlapping chain carries *metastable*
    // bits (pairs with near-zero residual margin) whose measurement flips
    // between queries: no assignment then passes deterministically. We
    // therefore count passes per assignment over several rounds and take
    // the most frequently passing one — which matches the enrollment-time
    // averaged value of each metastable bit with the highest likelihood.
    std::vector<int> passes(static_cast<std::size_t>(1) << unknown.size(), 0);
    bool decided = false;
    for (int attempt = 0; attempt < config_.max_retries && !decided; ++attempt) {
        for (std::uint64_t assign = 0; assign < (1ULL << unknown.size()) && !decided;
             ++assign) {
            for (std::size_t bit = 0; bit < unknown.size(); ++bit) {
                expected[static_cast<std::size_t>(unknown[bit])] =
                    static_cast<std::uint8_t>((assign >> bit) & 1u);
            }
            inverted = expected;
            for (int blk : hot_blocks) invert_for_parity(inverted, block_ecc, blk, t, keep);
            helper.ecc = block_ecc.enroll(inverted);
            ++out_.hypotheses;
            // The device corrects toward the inverted reference.
            const bool failed = co_await ask(make_probe<Puf>(helper, inverted));
            if (!failed) {
                if (++passes[assign] >= 2) decided = true; // two passes: committed
            }
        }
    }
    std::uint64_t best_assign = 0;
    int best_passes = 0;
    for (std::uint64_t assign = 0; assign < (1ULL << unknown.size()); ++assign) {
        if (passes[assign] > best_passes) {
            best_passes = passes[assign];
            best_assign = assign;
        }
    }
    if (best_passes == 0) co_return -1; // every hypothesis read as failure
    for (std::size_t bit = 0; bit < unknown.size(); ++bit) {
        known[static_cast<std::size_t>(unknown[bit])] =
            static_cast<std::uint8_t>((best_assign >> bit) & 1u);
    }
    co_return 1;
}

SessionBody OverlapChainSession::body() {
    const auto& pairs = puf_->pairs();
    const int m = static_cast<int>(pairs.size());
    const auto& geometry = puf_->array().geometry();

    known_.assign(static_cast<std::size_t>(m), std::nullopt);
    auto& known = known_;

    const auto steep_surfaces =
        OverlapChainAttack::probe_surfaces(geometry, config_.steep_amp);
    const auto unit_surfaces = OverlapChainAttack::probe_surfaces(geometry, 1.0);
    for (std::size_t idx = 0; idx < steep_surfaces.size(); ++idx) {
        if (dead_) break; // hard defense concluded: stop spending queries
        int outcome = 0;
        for (int phase = 0; phase < 2; ++phase) {
            const bool capped = fell_back_ || phase == 1;
            if (phase == 1 && (!config_.adaptive || fell_back_)) break;
            double amp = config_.steep_amp;
            auto surface = steep_surfaces[idx];
            if (capped) {
                const auto unit = drop_constant(unit_surfaces[idx]);
                amp = capped_surface_amp(unit.beta(), pristine_.beta,
                                         config_.plausibility_cap);
                if (amp <= 0.0) break;
                // Rebuild through the factory rather than scaling the unit
                // surface: identical FP rounding to every other caller.
                surface = drop_constant(OverlapChainAttack::probe_surfaces(geometry, amp)[idx]);
            }
            outcome = co_await try_surface(surface, amp * 0.25);
            if (outcome >= 0) {
                if (outcome == 1 && phase == 1) fell_back_ = true;
                break;
            }
        }
        if (outcome == 1) {
            dead_surfaces_ = 0; // a pass is evidence against blanket refusal...
        } else if (outcome == -1 && config_.adaptive && !fell_back_ &&
                   ++dead_surfaces_ >= 2) {
            // ...a zero-information round (nothing to learn) is not, so it
            // leaves the streak alone; two all-fail rounds with the fallback
            // never working mean blanket refusal, not noise.
            dead_ = true;
        }
    }

    bits::BitVec key(static_cast<std::size_t>(m), 0);
    bool complete = true;
    for (int i = 0; i < m; ++i) {
        if (known[static_cast<std::size_t>(i)]) {
            key[static_cast<std::size_t>(i)] = *known[static_cast<std::size_t>(i)];
        } else {
            complete = false;
        }
    }
    out_.recovered_key = key;
    out_.complete = complete;
    out_.queries = probes_answered();
}

} // namespace ropuf::attack

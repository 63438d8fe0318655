#include "ropuf/defense/middleware.hpp"

#include <algorithm>
#include <stdexcept>

namespace ropuf::defense {

namespace {

/// Shared refusal accounting: a refused probe spent one attacker query but
/// the device never measured an oscillator for it.
core::OracleStats with_refusals(const core::AnyOracle& inner, std::int64_t refused) {
    core::OracleStats s = inner.stats();
    s.queries += refused;
    s.refused += refused;
    return s;
}

} // namespace

// ---------------------------------------------------------------------------
// MacBindingOracle
// ---------------------------------------------------------------------------

MacBindingOracle::MacBindingOracle(core::AnyOracle inner, core::ProbeNvm enrolled)
    : inner_(std::move(inner)), enrolled_(std::move(enrolled)) {
    if (!inner_) throw std::invalid_argument("MacBindingOracle: null inner oracle");
}

void MacBindingOracle::evaluate(std::span<const core::Probe> probes,
                                std::vector<bool>& verdicts) {
    verdicts.assign(probes.size(), true);
    accepted_.assign(probes.size(), 0);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (probes[i].helper.same_image(enrolled_)) {
            accepted_[i] = 1;
        } else {
            ++refused_;
        }
    }
    core::forward_accepted(inner_, probes, accepted_, verdicts);
}

core::OracleStats MacBindingOracle::stats() const { return with_refusals(inner_, refused_); }

// ---------------------------------------------------------------------------
// CanonicalFormOracle
// ---------------------------------------------------------------------------

CanonicalFormOracle::CanonicalFormOracle(core::AnyOracle inner, CanonicalCheck canonical)
    : inner_(std::move(inner)), canonical_(std::move(canonical)) {
    if (!inner_) throw std::invalid_argument("CanonicalFormOracle: null inner oracle");
    if (!canonical_) throw std::invalid_argument("CanonicalFormOracle: null canonical check");
}

void CanonicalFormOracle::evaluate(std::span<const core::Probe> probes,
                                   std::vector<bool>& verdicts) {
    verdicts.assign(probes.size(), true);
    accepted_.assign(probes.size(), 0);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (probes[i].helper.is_typed() || canonical_(probes[i].helper)) {
            accepted_[i] = 1;
        } else {
            ++refused_;
        }
    }
    core::forward_accepted(inner_, probes, accepted_, verdicts);
}

core::OracleStats CanonicalFormOracle::stats() const {
    return with_refusals(inner_, refused_);
}

// ---------------------------------------------------------------------------
// LockoutOracle
// ---------------------------------------------------------------------------

LockoutOracle::LockoutOracle(core::AnyOracle inner, int max_failures)
    : inner_(std::move(inner)), max_failures_(max_failures) {
    if (!inner_) throw std::invalid_argument("LockoutOracle: null inner oracle");
    if (max_failures_ <= 0) throw std::invalid_argument("LockoutOracle: threshold must be > 0");
}

void LockoutOracle::evaluate(std::span<const core::Probe> probes,
                             std::vector<bool>& verdicts) {
    // Probe-by-probe so a mid-batch trip refuses the remainder of the burst:
    // the device bricks the moment the threshold is crossed, not at the next
    // batch boundary. Single-probe forwarding is verdict- and ledger-
    // identical to batched forwarding (measure_batch_into is bit-identical
    // to sequential scans), so splitting here changes no outcome.
    verdicts.assign(probes.size(), true);
    std::vector<bool> sub;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (locked_) {
            ++refused_;
            continue;
        }
        inner_.impl()->evaluate(probes.subspan(i, 1), sub);
        verdicts[i] = sub.at(0);
        if (verdicts[i] && ++failures_ >= max_failures_) locked_ = true;
    }
}

core::OracleStats LockoutOracle::stats() const { return with_refusals(inner_, refused_); }

// ---------------------------------------------------------------------------
// RateLimitOracle
// ---------------------------------------------------------------------------

RateLimitOracle::RateLimitOracle(core::AnyOracle inner, std::int64_t max_queries,
                                 std::int64_t max_batch)
    : inner_(std::move(inner)), max_queries_(max_queries), max_batch_(max_batch) {
    if (!inner_) throw std::invalid_argument("RateLimitOracle: null inner oracle");
    if (max_queries_ <= 0 || max_batch_ <= 0) {
        throw std::invalid_argument("RateLimitOracle: caps must be > 0");
    }
}

void RateLimitOracle::evaluate(std::span<const core::Probe> probes,
                               std::vector<bool>& verdicts) {
    verdicts.assign(probes.size(), true);
    const std::int64_t remaining = std::max<std::int64_t>(0, max_queries_ - served_);
    const std::size_t serve = static_cast<std::size_t>(
        std::min<std::int64_t>({static_cast<std::int64_t>(probes.size()), remaining,
                                max_batch_}));
    if (serve > 0) {
        std::vector<bool> sub;
        inner_.impl()->evaluate(probes.first(serve), sub);
        for (std::size_t k = 0; k < sub.size(); ++k) verdicts[k] = sub[k];
        served_ += static_cast<std::int64_t>(serve);
    }
    refused_ += static_cast<std::int64_t>(probes.size() - serve);
}

core::OracleStats RateLimitOracle::stats() const { return with_refusals(inner_, refused_); }

// ---------------------------------------------------------------------------
// NoisyRefusalOracle
// ---------------------------------------------------------------------------

NoisyRefusalOracle::NoisyRefusalOracle(core::AnyOracle inner, core::HelperValidator validator,
                                       double fail_probability, std::uint64_t seed)
    : inner_(std::move(inner)),
      validator_(std::move(validator)),
      fail_probability_(fail_probability),
      rng_(seed) {
    if (!inner_) throw std::invalid_argument("NoisyRefusalOracle: null inner oracle");
    if (!validator_) throw std::invalid_argument("NoisyRefusalOracle: null validator");
    if (fail_probability_ < 0.0 || fail_probability_ > 1.0) {
        throw std::invalid_argument("NoisyRefusalOracle: probability outside [0, 1]");
    }
}

void NoisyRefusalOracle::evaluate(std::span<const core::Probe> probes,
                                  std::vector<bool>& verdicts) {
    verdicts.assign(probes.size(), true);
    accepted_.assign(probes.size(), 0);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (validator_(probes[i].helper, helperdata::SanityMode::Verdict).ok) {
            accepted_[i] = 1;
        } else {
            ++refused_;
            // One coin per refusal, drawn in probe order: the refusal answer
            // is deterministic for a fixed defense seed and probe sequence.
            verdicts[i] = rng_.uniform() < fail_probability_;
        }
    }
    core::forward_accepted(inner_, probes, accepted_, verdicts);
}

core::OracleStats NoisyRefusalOracle::stats() const {
    return with_refusals(inner_, refused_);
}

} // namespace ropuf::defense

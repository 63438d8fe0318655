// Device-side countermeasure middleware — the defense half of the arms race.
//
// The paper's Section VII sketches exactly one countermeasure (precise
// helper-data validation); the related literature motivates a whole family:
// hash/MAC binding of helper data (Fischer's shaped/coded-modulation helper
// data schemes), tamper/consistency protection of the reconstruction path
// (Maringer & Hiller), and classic device hardening (failure lockout, rate
// limiting). Each countermeasure here is an oracle middleware that composes
// around any core::AnyOracle, exactly like core::BudgetedOracle — so one
// victim can be defended by any stack, e.g.
//
//   Budgeted(RateLimited(Mac(oracle)))
//
// and the attack layer never learns which defenses are interposed except
// through the verdicts themselves.
//
// Shared refusal contract (same as core::SanityCheckingOracle): a refused
// probe reads as an observable regeneration failure, costs the attacker one
// query, but never reaches the silicon — stats() reports it under both
// `queries` and `refused` with zero measurements. The one deliberate
// exception is NoisyRefusalOracle, whose refusals are answered from a
// deterministic coin so they are statistically indistinguishable from
// genuine failures.
//
// Every middleware implements DefenseOracle, the uniform introspection
// surface (refused(), locked()) the scenario driver uses to classify a run
// as refused_by_defense or locked_out.
//
// What each defense reads of a probe (core::ProbeNvm). A typed probe's
// helper parses back from its bytes field for field, so each check decides
// it from the helper, with the verdict its bytes would get: the validating
// defenses (sanity, noisyrefusal) validate the helper; the canonical-form
// check accepts it, since the serialization of a round-tripping helper is
// canonical by construction; the MAC binding compares it with the enrolled
// helper field for field. None of them serializes or hashes a typed probe.
// Raw and byte-edited probes are checked as bytes, as a tamper check on real
// NVM must: parsed, re-serialized and compared with the enrolled image.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ropuf/core/oracle.hpp"
#include "ropuf/helperdata/blob.hpp"
#include "ropuf/rng/xoshiro.hpp"

namespace ropuf::defense {

/// Uniform introspection for outcome classification: how many probes this
/// defense rejected, and whether the device has permanently bricked itself.
class DefenseOracle : public core::OracleBase {
public:
    virtual std::int64_t refused() const = 0;
    virtual bool locked() const { return false; }
};

/// Structural helper-data validation (the paper's own Section VII
/// countermeasure) as a DefenseOracle: a thin adapter over
/// core::SanityCheckingOracle so the defended verdict stream stays bitwise
/// identical to the PR-4 `-defended` scenarios.
class SanityDefenseOracle final : public DefenseOracle {
public:
    SanityDefenseOracle(core::AnyOracle inner, core::HelperValidator validator)
        : impl_(std::make_shared<core::SanityCheckingOracle>(std::move(inner),
                                                             std::move(validator))) {}

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override {
        impl_->evaluate(probes, verdicts);
    }
    core::OracleStats stats() const override { return impl_->stats(); }
    std::int64_t refused() const override { return impl_->refused(); }

private:
    std::shared_ptr<core::SanityCheckingOracle> impl_;
};

/// Helper-data MAC/hash binding: the device holds a tag of the enrolled
/// helper blob (modeling an HMAC computed with a device-local secret at
/// enrollment) and refuses any NVM content whose tag differs. Every
/// manipulation attack degrades to denial of service; only the honest blob
/// regenerates. The model compares the NVM image with the enrolled one
/// (core::ProbeNvm::same_image) instead of comparing digests: a tag match
/// means an image match barring a hash collision, which no attacker here
/// can find, so both accept the same probes. Typed probes compare helpers
/// field for field; raw probes compare bytes with the enrolled image.
class MacBindingOracle final : public DefenseOracle {
public:
    MacBindingOracle(core::AnyOracle inner, core::ProbeNvm enrolled);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }

private:
    core::AnyOracle inner_;
    core::ProbeNvm enrolled_; ///< its bytes are built on the first raw probe
    std::int64_t refused_ = 0;
    std::vector<char> accepted_; ///< per-batch scratch, reused across calls
};

/// Canonical-form ("CRC/structural") check: the device re-serializes every
/// parsed helper and refuses blobs that are not in canonical encoding
/// (trailing garbage, non-canonical padding, unparseable content). Cheaper
/// than full sanity validation and construction-specific through the
/// supplied predicate; canonical re-encodings of manipulated *structures*
/// still pass — which is exactly the gap the matrix measures. A typed probe
/// is accepted without the predicate: its bytes are the serialization of a
/// helper that parses back field for field, so store(parse(x)) == x holds.
class CanonicalFormOracle final : public DefenseOracle {
public:
    using CanonicalCheck = std::function<bool(const helperdata::Nvm&)>;

    CanonicalFormOracle(core::AnyOracle inner, CanonicalCheck canonical);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }

private:
    core::AnyOracle inner_;
    CanonicalCheck canonical_;
    std::int64_t refused_ = 0;
    std::vector<char> accepted_; ///< per-batch scratch, reused across calls
};

/// Response-side lockout: after `max_failures` observable regeneration
/// failures the device bricks itself — every further probe is refused
/// without reaching the silicon. Hypothesis-testing attacks inherently
/// produce failures, so a tight threshold stops them all; the price is that
/// an honest user's noisy regenerations spend the same budget.
class LockoutOracle final : public DefenseOracle {
public:
    LockoutOracle(core::AnyOracle inner, int max_failures);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }
    bool locked() const override { return locked_; }

    int failures_observed() const { return failures_; }

private:
    core::AnyOracle inner_;
    int max_failures_;
    int failures_ = 0;
    bool locked_ = false;
    std::int64_t refused_ = 0;
};

/// Rate limiting / probe-batch caps: the device serves at most
/// `max_queries` regenerations over its lifetime and at most `max_batch`
/// probes of any one burst; everything beyond is refused, and exhausting the
/// lifetime allowance bricks the device.
class RateLimitOracle final : public DefenseOracle {
public:
    RateLimitOracle(core::AnyOracle inner, std::int64_t max_queries, std::int64_t max_batch);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }
    bool locked() const override { return served_ >= max_queries_; }

    std::int64_t served() const { return served_; }

private:
    core::AnyOracle inner_;
    std::int64_t max_queries_;
    std::int64_t max_batch_;
    std::int64_t served_ = 0;
    std::int64_t refused_ = 0;
};

/// Noisy refusal: structural validation whose refusals are answered from a
/// deterministic coin with the supplied failure probability, instead of the
/// always-fail refusal every other defense emits. An attack can no longer
/// treat "this probe failed" as "this probe was refused" — a refused wrong
/// hypothesis sometimes *passes*, poisoning the failure-rate statistics the
/// Section VI attacks are built on, so the attacker must distinguish
/// refusal noise from measurement noise statistically.
class NoisyRefusalOracle final : public DefenseOracle {
public:
    NoisyRefusalOracle(core::AnyOracle inner, core::HelperValidator validator,
                       double fail_probability, std::uint64_t seed);

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override;
    core::OracleStats stats() const override;
    std::int64_t refused() const override { return refused_; }

private:
    core::AnyOracle inner_;
    core::HelperValidator validator_;
    double fail_probability_;
    rng::Xoshiro256pp rng_;
    std::int64_t refused_ = 0;
    std::vector<char> accepted_; ///< per-batch scratch, reused across calls
};

} // namespace ropuf::defense

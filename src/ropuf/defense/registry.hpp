// The countermeasure registry: named, parameterizable defenses as data.
//
// A defense token is what specs, the CLI and ScenarioParams::defense carry:
//
//   none                      undefended baseline (the PR-4 behavior)
//   sanity                    per-construction structural validation (VII)
//   crc                       canonical-form/structural re-encode check
//   mac                       fused hash binding of the enrolled helper blob
//   lockout(8)                brick after 8 observed failures
//   ratelimit(200,64)         serve <= 200 queries, <= 64 per burst
//   noisyrefusal(0.5)         sanity whose refusals answer from a 0.5 coin
//
// parse_defense_token() normalizes a token; canonical_token() renders the
// spelling with registry defaults filled in, which is what spec hashes and
// JSONL records pin — a later change of a builtin default can never silently
// reinterpret an old spec hash. apply_defense() resolves the token against
// the registry and wraps an inner oracle for one scenario run, given the
// per-construction DefenseContext (validator, canonical check, enrolled
// blob, defense-side seed).
//
// The registry is open: tests and future hardened-device work register their
// own Defense entries exactly like scenarios register into the
// ScenarioRegistry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ropuf/core/oracle.hpp"
#include "ropuf/defense/middleware.hpp"
#include "ropuf/helperdata/blob.hpp"

namespace ropuf::defense {

/// Everything a defense may need about the construction/run it protects.
/// Scenario code fills this from the unified device layer.
struct DefenseContext {
    /// Structural validator (DeviceTraits::sanity behind a parse) — what the
    /// `sanity` and `noisyrefusal` defenses run per probe.
    core::HelperValidator validator;
    /// True iff a blob is the canonical serialization of a parseable helper
    /// (store(parse(blob)) == blob) — the `crc` check of raw and edited
    /// probes (a typed probe is canonical by construction).
    std::function<bool(const helperdata::Nvm&)> canonical;
    /// The honest enrolled helper — the `mac` binding reference. Typed
    /// (attack::make_probe_nvm of the enrolled helper), typed probes are
    /// compared with it field for field; a raw Nvm works too, at the cost of
    /// serializing every typed probe for a byte compare.
    core::ProbeNvm enrolled;
    /// Defense-side randomness stream (independent of chip/enroll/victim).
    std::uint64_t seed = 0;
};

/// One defense instantiated around an inner oracle for one run. `handle` is
/// null for `none`; `oracle` then aliases the inner stack unchanged.
struct AppliedDefense {
    std::string token;                     ///< canonical instance token
    core::AnyOracle oracle;                ///< the wrapped stack
    std::shared_ptr<DefenseOracle> handle; ///< refusal/lockout introspection

    std::int64_t refused() const { return handle ? handle->refused() : 0; }
    bool locked() const { return handle ? handle->locked() : false; }
};

/// A parsed `name(arg, ...)` token.
struct DefenseToken {
    std::string name;
    std::vector<double> args;
};

/// One registered countermeasure.
struct Defense {
    std::string name;        ///< canonical token name, [a-z0-9_-]+
    std::string summary;     ///< one-line description for `ropuf list`/docs
    std::string reference;   ///< literature anchor
    std::size_t max_args = 0;
    std::vector<double> defaults; ///< values for omitted args (size == max_args)
    /// Value constraints, run at canonicalization (plan time) so a bad spec
    /// fails before any job executes. Throws std::invalid_argument. May be
    /// null (no constraints beyond arity).
    std::function<void(std::span<const double> args)> validate;
    /// Builds the middleware around `inner`. `args` has exactly
    /// defaults.size() entries (user values first, defaults filled in) and
    /// has passed `validate`.
    std::function<std::shared_ptr<DefenseOracle>(
        core::AnyOracle inner, const DefenseContext& ctx, std::span<const double> args)>
        wrap;
};

class DefenseRegistry {
public:
    /// The process-wide registry. Starts empty; default_registry() populates
    /// the builtins.
    static DefenseRegistry& instance();

    /// Registers a defense; throws std::invalid_argument on duplicate names.
    void add(Defense defense);
    /// Registers, replacing an existing defense with the same name.
    void add_or_replace(Defense defense);

    const Defense* find(std::string_view name) const;
    const std::vector<Defense>& defenses() const { return defenses_; }
    std::vector<std::string> names() const;
    std::size_t size() const { return defenses_.size(); }

private:
    std::vector<Defense> defenses_;
};

/// The process registry with the builtin defenses registered.
DefenseRegistry& default_registry();

/// Registers the builtins into `registry` (idempotent).
void register_builtin_defenses(DefenseRegistry& registry);

/// Parses `name` / `name(a)` / `name(a,b)`. Pure syntax — no registry
/// lookup. Throws std::invalid_argument on malformed tokens (bad name
/// charset, unbalanced parentheses, non-numeric or empty args).
DefenseToken parse_defense_token(std::string_view token);

/// Renders a parsed token back to its normalized spelling (pure syntax, args
/// as given). Spec canonicalization uses this so `lockout( 8 )` and
/// `lockout(8)` hash identically without consulting the registry.
std::string format_token(const DefenseToken& token);

/// Renders the normalized spelling of a token resolved against `registry`:
/// unknown names and arity violations throw std::invalid_argument (with a
/// did-you-mean suggestion), omitted args are filled from the defense's
/// defaults, and `none` with no args renders as plain "none".
std::string canonical_token(std::string_view token, const DefenseRegistry& registry);

/// Resolves `token` against `registry` and wraps `inner`. An empty token or
/// "none" returns `inner` unchanged with a null handle.
AppliedDefense apply_defense(std::string_view token, core::AnyOracle inner,
                             const DefenseContext& ctx, const DefenseRegistry& registry);

/// Convenience over default_registry().
AppliedDefense apply_defense(std::string_view token, core::AnyOracle inner,
                             const DefenseContext& ctx);

} // namespace ropuf::defense

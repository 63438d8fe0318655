// Builtin attack scenarios — the registry view of paper Section VI.
//
// Each scenario binds one construction (through the unified device layer) to
// one attack and a paper-matched parameter grid. Benches, examples and tests
// enumerate the registry instead of hand-rolling enrollment/victim/attack
// setup per experiment:
//
//   name                      construction   attack                  paper
//   seqpair/swap              seqpair        pair-swap + ECC rewrite VI-A/Fig.5
//   tempaware/substitution    tempaware      assistance substitution VI-B
//   group/sortmerge           group          distiller + repartition VI-C/Fig.6a
//   group/exhaustive          group          all-pairs comparator    VI-C (E13)
//   maskedchain/distiller     maskedchain    isolation surfaces      VI-D/Fig.6b
//   maskedchain/probe         maskedchain    selection substitution  VI-D (negative)
//   overlapchain/distiller    overlapchain   multi-bit hypotheses    VI-D/Fig.6c
//   fuzzy/reference           fuzzy          manipulation probe      VII/Fig.7 (neg.)
#pragma once

#include <cstdint>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/core/attack_engine.hpp"
#include "ropuf/defense/registry.hpp"

namespace ropuf::attack {

/// The DefenseContext the builtin scenarios hand a countermeasure: the
/// structural validator, the canonical-form predicate that the `crc` check
/// runs on raw probes (store(parse(blob)) == blob), the typed enrolled
/// helper (the `mac` binding's reference) and the defense-side seed.
/// Captures `puf` by reference.
template <core::Device Puf>
defense::DefenseContext make_defense_context(
    const Puf& puf, const typename core::DeviceTraits<Puf>::Helper& enrolled,
    std::uint64_t seed) {
    using Traits = core::DeviceTraits<Puf>;
    defense::DefenseContext ctx;
    ctx.validator = make_sanity_validator(puf);
    ctx.canonical = [](const helperdata::Nvm& nvm) {
        try {
            return Traits::store(Traits::parse(nvm)).bytes() == nvm.bytes();
        } catch (const helperdata::ParseError&) {
            return false;
        }
    };
    ctx.enrolled = make_probe_nvm<Puf>(enrolled);
    ctx.seed = seed;
    return ctx;
}

/// Registers the builtin scenarios into `registry` (idempotent).
void register_builtin_scenarios(core::ScenarioRegistry& registry);

/// The process-wide registry with the builtins registered — the one-liner
/// every consumer starts from.
core::ScenarioRegistry& default_registry();

} // namespace ropuf::attack

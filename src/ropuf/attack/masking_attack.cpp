#include "ropuf/attack/masking_attack.hpp"

#include <cstdio>
#include <utility>

#include "ropuf/attack/calibration.hpp"

namespace ropuf::attack {

pairing::MaskedChainHelper SelectionSubstitutionProbe::make_substitution_helper(
    const pairing::MaskedChainHelper& pristine, const ecc::BchCode& code, int g, int j,
    int inject) {
    pairing::MaskedChainHelper variant = pristine;
    variant.masking.selected[static_cast<std::size_t>(g)] = j;
    const ecc::BlockEcc block_ecc(code);
    flip_parity_bits(variant.ecc, block_ecc, block_of_position(block_ecc, g), inject);
    return variant;
}

SelectionProbeSession::SelectionProbeSession(pairing::MaskedChainHelper pristine,
                                             ecc::BchCode code,
                                             SelectionSubstitutionProbe::Config config)
    : pristine_(std::move(pristine)), code_(std::move(code)), config_(config) {
    start(body());
}

std::string SelectionProbeSession::notes() const {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "negative result by design: %zu groups probed, %d key bits still hidden",
                  out_.groups.size(), out_.residual_key_entropy_bits);
    return buf;
}

SessionBody SelectionProbeSession::body() {
    using Puf = pairing::MaskedChainPuf;
    const int k = pristine_.masking.k;
    const int groups = static_cast<int>(pristine_.masking.selected.size());
    const int inject = code_.t();

    for (int g = 0; g < groups; ++g) {
        SelectionSubstitutionProbe::GroupRelations rel;
        rel.group = g;
        rel.selected = pristine_.masking.selected[static_cast<std::size_t>(g)];
        rel.relation.assign(static_cast<std::size_t>(k), 0);
        for (int j = 0; j < k; ++j) {
            if (j == rel.selected) continue;
            const auto helper =
                SelectionSubstitutionProbe::make_substitution_helper(pristine_, code_, g, j,
                                                                     inject);
            const bool failed =
                co_await any_pass(make_probe<Puf>(helper), 2 * config_.majority_wins);
            rel.relation[static_cast<std::size_t>(j)] = failed ? 1 : 0;
        }
        out_.groups.push_back(std::move(rel));
    }
    // Every group still hides one free bit: the probe has not touched the
    // key's entropy, only the (non-key) sibling-pair structure.
    out_.residual_key_entropy_bits = groups;
    out_.queries = probes_answered();
}

} // namespace ropuf::attack

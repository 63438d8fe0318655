#include "ropuf/attack/seqpair_attack.hpp"

#include <algorithm>
#include <cassert>

#include "ropuf/attack/calibration.hpp"

namespace ropuf::attack {

pairing::SeqPairingHelper SeqPairingAttack::make_swap_helper(
    const pairing::SeqPairingHelper& pristine, const ecc::BchCode& code, int i, int j,
    int inject) {
    pairing::SeqPairingHelper variant = pristine;
    std::swap(variant.pairs[static_cast<std::size_t>(i)],
              variant.pairs[static_cast<std::size_t>(j)]);
    const ecc::BlockEcc block_ecc(code);
    const int bi = block_of_position(block_ecc, i);
    const int bj = block_of_position(block_ecc, j);
    flip_parity_bits(variant.ecc, block_ecc, bi, inject);
    if (bj != bi) flip_parity_bits(variant.ecc, block_ecc, bj, inject);
    return variant;
}

pairing::SeqPairingHelper SeqPairingAttack::make_candidate_helper(
    const pairing::SeqPairingHelper& pristine, const ecc::BchCode& code,
    const bits::BitVec& candidate_key) {
    pairing::SeqPairingHelper variant = pristine;
    variant.ecc = ecc::BlockEcc(code).enroll(candidate_key);
    return variant;
}

SeqPairingSession::SeqPairingSession(pairing::SeqPairingHelper pristine, ecc::BchCode code,
                                     SeqPairingAttack::Config config)
    : pristine_(std::move(pristine)), code_(std::move(code)), config_(config) {
    start(body());
}

bits::BitVec SeqPairingSession::partial_key() const {
    // Phase-1 knowledge is the key up to the global bit r_0 = 0 guess;
    // once a candidate is chosen it becomes the answer.
    return out_.recovered_key.empty() ? relation_ : out_.recovered_key;
}

std::string SeqPairingSession::notes() const {
    return out_.used_sorted_leak ? "key read via the Section VII-C storage leak" : "";
}

SessionBody SeqPairingSession::body() {
    using Puf = pairing::SeqPairingPuf;
    const int m = static_cast<int>(pristine_.pairs.size());
    if (m < 2) co_return;

    // --- Section VII-C shortcut: a sorted storage format means every stored
    // pair reads (faster, slower), i.e. the key is all ones. One candidate
    // test settles it.
    if (config_.try_sorted_leak) {
        const auto ones = bits::ones(static_cast<std::size_t>(m));
        const auto helper = SeqPairingAttack::make_candidate_helper(pristine_, code_, ones);
        const bool failed =
            co_await any_pass(make_probe<Puf>(helper), 2 * config_.majority_wins);
        if (!failed) {
            out_.recovered_key = ones;
            out_.resolved = true;
            out_.used_sorted_leak = true;
            out_.queries = probes_answered();
            co_return;
        }
    }

    // --- Phase 1: pairwise relations r_0 XOR r_j via pair swapping.
    const int inject = code_.t();
    relation_ = bits::BitVec(static_cast<std::size_t>(m), 0); // relation[j] = r_0 ^ r_j
    for (int j = 1; j < m; ++j) {
        const auto helper = SeqPairingAttack::make_swap_helper(pristine_, code_, 0, j, inject);
        // One-sided rule: any pass proves r_0 == r_j (H1 cannot pass).
        const bool failed =
            co_await any_pass(make_probe<Puf>(helper), 2 * config_.majority_wins);
        relation_[static_cast<std::size_t>(j)] = failed ? 1 : 0;
        ++out_.relation_tests;
    }

    // --- Phase 2: two candidates remain; compare their ECC helper sets.
    const bits::BitVec candidate0 = relation_;
    const bits::BitVec candidate1 = bits::complement(candidate0);

    const auto helper0 = SeqPairingAttack::make_candidate_helper(pristine_, code_, candidate0);
    const auto helper1 = SeqPairingAttack::make_candidate_helper(pristine_, code_, candidate1);
    const bool probe0_failed =
        co_await any_pass(make_probe<Puf>(helper0), 2 * config_.majority_wins);
    if (!probe0_failed) {
        out_.recovered_key = candidate0;
        out_.resolved = true;
    } else {
        const bool probe1_failed =
            co_await any_pass(make_probe<Puf>(helper1), 2 * config_.majority_wins);
        if (!probe1_failed) {
            out_.recovered_key = candidate1;
            out_.resolved = true;
        } else {
            // Both candidates rejected: at least one relation test was wrong.
            out_.recovered_key = candidate0;
            out_.resolved = false;
        }
    }
    out_.queries = probes_answered();
}

} // namespace ropuf::attack

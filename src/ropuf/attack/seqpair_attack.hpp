// Key recovery against the sequential pairing algorithm (paper Section VI-A).
//
// "Consider two RO pairs, resulting in response bits r1 and r2. ... To
// distinguish them, we swap the order of the two pairs in public helper NVM.
// If H0 [r1 = r2] is correct, the failure rate is not modified. However, if
// H1 [r1 != r2] is correct, the failure rate does increase. Matching r1 with
// all other response bits r2, r3, ..., only two possible values remain for
// the secret key. For the final decision, the performance of two
// corresponding sets of ECC helper data can be compared."
//
// Acceleration: t stored parity bits of every affected ECC block are flipped,
// so the correct hypothesis sits exactly at the correction boundary (fails
// only on residual measurement noise) while the incorrect one always
// overflows it.
//
// The attack also begins with the zero-query Section VII-C check: if the
// device's enrollment stored pairs sorted by frequency, the key is the
// all-ones vector — verified with a couple of confirmation queries.
#pragma once

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"

namespace ropuf::attack {

class SeqPairingAttack {
public:
    using Victim = attack::Victim<pairing::SeqPairingPuf>;

    struct Config {
        int majority_wins = 2;     ///< decisions per relation test
        int max_probe_queries = 25;
        bool try_sorted_leak = true; ///< attempt the Section VII-C shortcut first
    };

    struct Result {
        bits::BitVec recovered_key;   ///< empty when the attack gave up
        bool resolved = false;        ///< final 2-candidate decision succeeded
        bool used_sorted_leak = false;///< key read via the storage-order leak
        std::int64_t queries = 0;     ///< total oracle queries
        int relation_tests = 0;       ///< pairwise hypothesis tests performed
    };

    /// Builds the manipulated helper for one relation test: pairs at list
    /// positions `i` and `j` swapped and `inject` parity bits flipped in
    /// every ECC block containing position i or j. Exposed for the Fig. 5
    /// bench, which plots the resulting error-count PDFs.
    static pairing::SeqPairingHelper make_swap_helper(const pairing::SeqPairingHelper& pristine,
                                                      const ecc::BchCode& code, int i, int j,
                                                      int inject);

    /// Builds the candidate-test helper: original pairs with attacker-computed
    /// parity for `candidate_key`.
    static pairing::SeqPairingHelper make_candidate_helper(
        const pairing::SeqPairingHelper& pristine, const ecc::BchCode& code,
        const bits::BitVec& candidate_key);
};

/// The Section VI-A attack as a propose/observe session: Section VII-C
/// sorted-leak shortcut, pairwise relation phase, two-candidate ECC
/// comparison — one probe per step, adaptive exactly like the paper's
/// sequential procedure.
class SeqPairingSession final : public CoroSession {
public:
    SeqPairingSession(pairing::SeqPairingHelper pristine, ecc::BchCode code,
                      SeqPairingAttack::Config config = {});

    /// Valid once done().
    const SeqPairingAttack::Result& result() const { return out_; }

    bits::BitVec partial_key() const override;
    bool resolved() const override { return out_.resolved; }
    std::string notes() const override;

private:
    SessionBody body();

    pairing::SeqPairingHelper pristine_;
    ecc::BchCode code_;
    SeqPairingAttack::Config config_;
    bits::BitVec relation_; ///< phase-1 knowledge: relation[j] = r_0 ^ r_j
    SeqPairingAttack::Result out_;
};

} // namespace ropuf::attack

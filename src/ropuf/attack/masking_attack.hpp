// Selection-substitution probing of 1-out-of-k masking — and why it is NOT
// enough for key recovery (the reason Section VI-D reaches for the distiller).
//
// The masking helper stores, per group of k base pairs, which pair carries
// the key bit. An attacker can re-point that selection: the device then
// measures a *different* pair of the same group, and the failure rate reveals
// whether that pair's bit equals the enrolled selected bit. Repeating over
// all candidates recovers the complete intra-group relation structure.
//
// Crucially, this leaks no key material by itself: every measurable bit lives
// inside the same group as the bit it is compared against, so each group's
// key bit stays hidden behind a per-group complement — selection manipulation
// alone cannot hop across groups. Key recovery needs a second lever that
// *forces* bit values, which is exactly what the Section VI-D distiller
// injection provides. This module quantifies that boundary.
#pragma once

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"

namespace ropuf::attack {

class SelectionSubstitutionProbe {
public:
    using Victim = attack::Victim<pairing::MaskedChainPuf>;

    struct Config {
        int majority_wins = 2;
    };

    struct GroupRelations {
        int group = 0;
        int selected = 0;                    ///< the enrolled selection index
        /// relation[j] = r(pair j of the group) XOR r(selected pair);
        /// relation[selected] == 0 by definition.
        std::vector<std::uint8_t> relation;
    };

    struct Result {
        std::vector<GroupRelations> groups;
        std::int64_t queries = 0;
        /// Shannon entropy of the key given everything this probe revealed:
        /// exactly one unresolved bit per group — i.e. unchanged. The
        /// quantity is reported to make the negative result explicit.
        int residual_key_entropy_bits = 0;
    };

    /// The manipulated helper for one probe: group `g`'s selection re-pointed
    /// to candidate `j`, with `inject` parity flips in g's ECC block.
    static pairing::MaskedChainHelper make_substitution_helper(
        const pairing::MaskedChainHelper& pristine, const ecc::BchCode& code, int g, int j,
        int inject);
};

/// The selection-substitution probe as a propose/observe session. Recovers
/// intra-group relations only — partial_key() stays empty by design (the
/// probe leaks no key material; see the class comment above).
class SelectionProbeSession final : public CoroSession {
public:
    SelectionProbeSession(pairing::MaskedChainHelper pristine, ecc::BchCode code,
                          SelectionSubstitutionProbe::Config config = {});

    /// Valid once done().
    const SelectionSubstitutionProbe::Result& result() const { return out_; }

    bits::BitVec partial_key() const override { return {}; }
    bool resolved() const override { return done(); }
    std::string notes() const override;

private:
    SessionBody body();

    pairing::MaskedChainHelper pristine_;
    ecc::BchCode code_;
    SelectionSubstitutionProbe::Config config_;
    SelectionSubstitutionProbe::Result out_;
};

} // namespace ropuf::attack

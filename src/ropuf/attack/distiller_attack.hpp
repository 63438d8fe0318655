// Key recovery against entropy-distiller constructions with RO pairing
// (paper Section VI-D, Figs. 6b and 6c).
//
// "Entropy distillers can be employed with all RO pairing schemes of section
// IV. ... The attack methodology is similar as before. [Fig. 6b illustrates]
// 1-out-of-k masking, using k = 5 ... [Fig. 6c] an overlapping chain of
// neighbors. It might be very difficult to isolate a single response bit, as
// illustrated for figure 6c: four response bits are fully determined by
// random variations. By increasing the number of hypotheses (2^4), one can
// still perform the attack however."
//
// MaskedChainAttack isolates one selected pair at a time with a quadratic
// surface whose extremum sits between the pair's two columns, sharpened with
// a small x*y cross term that forces the same column boundary in every other
// row — so exactly one bit is undetermined and 2 hypotheses suffice per bit.
//
// OverlapChainAttack reproduces the paper's multi-bit variant: each probe
// pattern (a vertex quadratic per column boundary plus one cross-row plane)
// leaves a small set of response bits undetermined; the attacker enumerates
// all 2^u assignments of the still-unknown ones, reprogramming the ECC
// redundancy (with per-block error injection) and the expected key for each.
#pragma once

#include <optional>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/distiller/poly_surface.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"

namespace ropuf::attack {

// ---------------------------------------------------------------------------
// Fig. 6b: distiller + disjoint chain + 1-out-of-k masking
// ---------------------------------------------------------------------------

class MaskedChainAttack {
public:
    using Victim = attack::Victim<pairing::MaskedChainPuf>;

    struct Config {
        double steep_amp = 1000.0;
        int majority_wins = 2;
        int max_probe_queries = 25;
        int max_retries = 4;
        /// Fall back to plausibility-capped, constant-free isolation
        /// surfaces when the steep ones are blanket-refused; stop probing
        /// when even those die (attack/adaptive.hpp).
        bool adaptive = false;
        double plausibility_cap = 400.0; ///< attacker's |beta| envelope estimate (MHz)
    };

    struct Result {
        bits::BitVec recovered_key;
        bool complete = false;
        std::int64_t queries = 0;
        int targets = 0; ///< response bits attacked
    };

    /// The injected surface isolating base pair (u, w): equal on the pair,
    /// forcing everywhere else. Exposed for the Fig. 6b bench.
    static distiller::PolySurface isolation_surface(const sim::ArrayGeometry& geometry, int u,
                                                    int w, double steep_amp);
};

/// The Fig. 6b attack as a propose/observe session: one isolation surface
/// per selected pair, two hypotheses per key bit, reprogrammed-key probes.
/// `puf` is the attacker's public design view and must outlive the session.
class MaskedChainSession final : public CoroSession {
public:
    MaskedChainSession(const pairing::MaskedChainPuf& puf, pairing::MaskedChainHelper pristine,
                       MaskedChainAttack::Config config = {});

    /// Valid once done().
    const MaskedChainAttack::Result& result() const { return out_; }

    bits::BitVec partial_key() const override { return key_; }
    bool resolved() const override { return out_.complete; }
    std::string notes() const override;

private:
    SessionBody body();
    /// One surface round for target group g: both hypotheses, with retries.
    Sub<bool> try_target(int g, const distiller::PolySurface& surface,
                         const std::vector<helperdata::IndexPair>& selected, int block);

    const pairing::MaskedChainPuf* puf_;
    pairing::MaskedChainHelper pristine_;
    MaskedChainAttack::Config config_;
    bits::BitVec key_; ///< bits decided so far (undecided read 0)
    bool fell_back_ = false;   ///< capped surfaces are now the active mode
    bool dead_ = false;        ///< even capped probes die: stop spending queries
    int dead_targets_ = 0;     ///< fully inconclusive targets in a row
    MaskedChainAttack::Result out_;
};

// ---------------------------------------------------------------------------
// Fig. 6c: distiller + overlapping chain
// ---------------------------------------------------------------------------

class OverlapChainAttack {
public:
    using Victim = attack::Victim<pairing::OverlapChainPuf>;

    struct Config {
        double steep_amp = 1000.0;
        int majority_wins = 2;
        int max_probe_queries = 25;
        int max_retries = 3;
        int max_unknown = 12; ///< refuse probes with more than 2^12 hypotheses
        /// Fall back to plausibility-capped, constant-free probe surfaces
        /// when the steep ones are blanket-refused (attack/adaptive.hpp).
        bool adaptive = false;
        double plausibility_cap = 400.0; ///< attacker's |beta| envelope estimate (MHz)
    };

    struct Result {
        bits::BitVec recovered_key;
        bool complete = false;
        std::int64_t queries = 0;
        int probes = 0;          ///< surface placements used
        int hypotheses = 0;      ///< total hypothesis evaluations
        int max_set_size = 0;    ///< largest simultaneous unknown set (4 in Fig. 6c)
    };

    /// The probe surfaces of the attack: one vertex quadratic per column
    /// boundary (Fig. 6c's pattern) plus one cross-row plane. Exposed for the
    /// Fig. 6c bench.
    static std::vector<distiller::PolySurface> probe_surfaces(const sim::ArrayGeometry& geometry,
                                                              double steep_amp);
};

/// The Fig. 6c attack as a propose/observe session: per-surface multi-bit
/// hypothesis enumeration with reprogrammed ECC redundancy. `puf` is the
/// attacker's public design view and must outlive the session.
class OverlapChainSession final : public CoroSession {
public:
    OverlapChainSession(const pairing::OverlapChainPuf& puf,
                        pairing::OverlapChainHelper pristine,
                        OverlapChainAttack::Config config = {});

    /// Valid once done().
    const OverlapChainAttack::Result& result() const { return out_; }

    bits::BitVec partial_key() const override;
    bool resolved() const override { return out_.complete; }
    std::string notes() const override;

private:
    SessionBody body();
    /// One surface round: classify, enumerate hypotheses, commit. Returns
    /// 1 = decided bits, 0 = nothing to learn here, -1 = every hypothesis
    /// read as failure (refusal suspected).
    Sub<int> try_surface(const distiller::PolySurface& surface, double margin);

    const pairing::OverlapChainPuf* puf_;
    pairing::OverlapChainHelper pristine_;
    OverlapChainAttack::Config config_;
    std::vector<std::optional<std::uint8_t>> known_; ///< bits recovered so far
    bool fell_back_ = false; ///< capped surfaces are now the active mode
    bool dead_ = false;      ///< even capped probes die: stop spending queries
    int dead_surfaces_ = 0;  ///< fully failed surfaces in a row
    OverlapChainAttack::Result out_;
};

} // namespace ropuf::attack

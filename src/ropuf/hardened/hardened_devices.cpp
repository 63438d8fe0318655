#include "ropuf/hardened/hardened_devices.hpp"

namespace ropuf::hardened {

const char* to_string(Refusal r) {
    switch (r) {
        case Refusal::None: return "none";
        case Refusal::SealBroken: return "seal broken";
        case Refusal::MalformedBlob: return "malformed blob";
        case Refusal::StructuralCheck: return "structural check";
        case Refusal::Implausible: return "implausible coefficients";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// HardenedSeqPairingPuf
// ---------------------------------------------------------------------------

HardenedSeqPairingPuf::Enrollment HardenedSeqPairingPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto inner = inner_->enroll(rng);
    Enrollment out;
    out.key = inner.key;
    out.sealed_nvm = auth_.seal(pairing::serialize(inner.helper).bytes());
    return out;
}

HardenedSeqPairingPuf::Reconstruction HardenedSeqPairingPuf::reconstruct(
    std::span<const std::uint8_t> sealed_nvm, rng::Xoshiro256pp& rng) const {
    Reconstruction out;
    const auto opened = auth_.open(sealed_nvm);
    if (!opened) {
        out.refusal = Refusal::SealBroken;
        return out;
    }
    pairing::SeqPairingHelper helper;
    try {
        helper = pairing::parse_seq_pairing(helperdata::Nvm(*opened));
    } catch (const helperdata::ParseError&) {
        out.refusal = Refusal::MalformedBlob;
        return out;
    }
    const auto report = helperdata::check_pair_list(helper.pairs, inner_->array().count(),
                                                    /*forbid_reuse=*/true,
                                                    helperdata::SanityMode::Verdict);
    if (!report.ok) {
        out.refusal = Refusal::StructuralCheck;
        return out;
    }
    const auto rec = inner_->reconstruct(helper, rng);
    out.ok = rec.ok;
    out.key = rec.key;
    return out;
}

// ---------------------------------------------------------------------------
// HardenedGroupPuf
// ---------------------------------------------------------------------------

HardenedGroupPuf::Enrollment HardenedGroupPuf::enroll(rng::Xoshiro256pp& rng) const {
    const auto inner = inner_->enroll(rng);
    Enrollment out;
    out.key = inner.key;
    out.sealed_nvm = auth_.seal(group::serialize(inner.helper).bytes());
    return out;
}

HardenedGroupPuf::Reconstruction HardenedGroupPuf::reconstruct_checked_only(
    const group::GroupPufHelper& helper, rng::Xoshiro256pp& rng) const {
    Reconstruction out;
    const auto coeff_report = helperdata::check_coefficients(helper.beta, coefficient_bound_,
                                                             helperdata::SanityMode::Verdict);
    if (!coeff_report.ok) {
        out.refusal = Refusal::Implausible;
        return out;
    }
    const auto group_report = helperdata::check_group_assignment(
        helper.group_of, inner_->array().count(), helperdata::SanityMode::Verdict);
    if (!group_report.ok) {
        out.refusal = Refusal::StructuralCheck;
        return out;
    }
    const auto rec = inner_->reconstruct(helper, rng);
    out.ok = rec.ok;
    out.key = rec.key;
    return out;
}

HardenedGroupPuf::Reconstruction HardenedGroupPuf::reconstruct(
    std::span<const std::uint8_t> sealed_nvm, rng::Xoshiro256pp& rng) const {
    Reconstruction out;
    const auto opened = auth_.open(sealed_nvm);
    if (!opened) {
        out.refusal = Refusal::SealBroken;
        return out;
    }
    group::GroupPufHelper helper;
    try {
        helper = group::parse_group_puf(helperdata::Nvm(*opened));
    } catch (const helperdata::ParseError&) {
        out.refusal = Refusal::MalformedBlob;
        return out;
    }
    return reconstruct_checked_only(helper, rng);
}

} // namespace ropuf::hardened

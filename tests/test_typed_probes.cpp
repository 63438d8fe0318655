// Typed probes: a probe built from the attacker's structured helper must be
// indistinguishable from a probe of its serialized bytes.
//
//  * Lockstep differential runs: every construction's attack session, under
//    none / sanity / crc / mac / noisyrefusal, drives a victim fed the typed
//    probes while a twin victim with the same seeds gets bytes-only copies of
//    the same batches, once with the enrolled MAC reference as bytes and once
//    typed. Every batch's verdicts and the final ledgers agree, and every
//    typed probe passes the byte-level canonical-form predicate.
//  * Round trip: over random and attack-shaped helpers, a probe keeps its
//    typed form only when parsing its bytes gives back the helper field for
//    field; the shapes that do not round-trip carry bytes from the start.
//  * Same image: for round-tripping helpers, DeviceTraits::same_helper and
//    ProbeNvm::same_image agree with comparing the serialized bytes.
//  * Tamper: editing a typed probe's bytes drops the typed form, so the
//    validator, the canonical-form check, the MAC binding and the victim all
//    see the edit, and copies stay as they were.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ropuf/attack/distiller_attack.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/attack/tempaware_attack.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/group/group_puf.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

namespace {

using namespace ropuf;
using helperdata::Nvm;
using rng::Xoshiro256pp;

const char* const kDefenses[] = {"none", "sanity", "crc", "mac", "noisyrefusal"};

sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

/// What the device reads from NVM for `probe`: its bytes and nothing else.
core::Probe bytes_only(const core::Probe& probe) {
    return {Nvm(probe.helper.bytes()), probe.expect};
}

/// How the context holds the enrolled helper, the MAC binding's reference.
enum class Enrolled {
    Bytes, ///< its serialized blob (a raw ProbeNvm)
    Typed, ///< the helper itself, as attack/scenarios.cpp passes it
};

/// The context the scenario registry hands a defense, with the enrolled
/// helper in `form`. `canonical_calls`, when given, counts the calls of the
/// canonical-form predicate.
template <core::Device Puf>
defense::DefenseContext defense_context(const Puf& puf,
                                        const typename core::DeviceTraits<Puf>::Helper& enrolled,
                                        Enrolled form = Enrolled::Typed,
                                        int* canonical_calls = nullptr) {
    auto ctx = attack::make_defense_context(puf, enrolled, 404);
    if (form == Enrolled::Bytes) ctx.enrolled = core::DeviceTraits<Puf>::store(enrolled);
    if (canonical_calls != nullptr) {
        ctx.canonical = [canonical = ctx.canonical, canonical_calls](const Nvm& nvm) {
            ++*canonical_calls;
            return canonical(nvm);
        };
    }
    return ctx;
}

/// One construction under test: its device, enrolled helper, a factory for
/// its attack session and one for victims (same seed, same mode).
template <core::Device Puf>
struct Rig {
    using Helper = typename core::DeviceTraits<Puf>::Helper;
    std::function<std::unique_ptr<attack::Session>()> session;
    std::function<attack::Victim<Puf>()> victim;
};

/// Drives a fresh session under `token` against a typed-probe victim and, in
/// lockstep, a twin fed bytes-only copies, both stacks holding the enrolled
/// helper in `form`; every typed probe the attack stages must round-trip and
/// pass the byte-level canonical-form predicate. Returns the typed probes
/// seen.
template <core::Device Puf>
std::int64_t expect_lockstep(const Puf& puf, const typename Rig<Puf>::Helper& enrolled,
                             const Rig<Puf>& rig, const std::string& token, Enrolled form) {
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;
    SCOPED_TRACE(std::string(core::DeviceTraits<Puf>::kind) + " under " + token +
                 (form == Enrolled::Typed ? ", typed enrolled" : ", enrolled bytes"));
    const auto ctx = defense_context(puf, enrolled, form);
    auto victim = rig.victim();
    auto twin = rig.victim();
    auto typed_stack = defense::apply_defense(token, attack::make_oracle(victim), ctx).oracle;
    auto bytes_stack = defense::apply_defense(token, attack::make_oracle(twin), ctx).oracle;

    const auto session = rig.session();
    std::int64_t typed = 0;
    for (int batch_no = 0;; ++batch_no) {
        const auto batch = session->step();
        if (batch.empty()) break;
        for (const auto& probe : batch) {
            // Attack-shaped helpers: every typed one must round-trip.
            const Helper* helper = probe.helper.template typed<Helper>();
            if (helper == nullptr) continue;
            ++typed;
            const Nvm stored = Traits::store(*helper);
            EXPECT_TRUE(Traits::same_helper(Traits::parse(stored), *helper));
            EXPECT_TRUE(ctx.canonical(stored));
        }
        // The typed stack goes first, so it meets probes whose bytes no
        // reader has built yet.
        const auto verdicts = typed_stack.evaluate(batch);
        std::vector<core::Probe> copies;
        for (const auto& probe : batch) copies.push_back(bytes_only(probe));
        const auto twin_verdicts = bytes_stack.evaluate(copies);
        EXPECT_EQ(verdicts, twin_verdicts) << "batch " << batch_no;
        if (verdicts != twin_verdicts) return typed;
        session->absorb(verdicts);
    }
    const auto a = typed_stack.stats();
    const auto b = bytes_stack.stats();
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(victim.ledger().queries, twin.ledger().queries);
    EXPECT_EQ(victim.ledger().measurements, twin.ledger().measurements);
    EXPECT_EQ(victim.ledger().refused, twin.ledger().refused);
    EXPECT_GT(a.queries, 0);
    return typed;
}

template <core::Device Puf>
void expect_lockstep_all(const Puf& puf, const typename Rig<Puf>::Helper& enrolled,
                         const Rig<Puf>& rig) {
    for (const char* token : kDefenses) {
        for (const Enrolled form : {Enrolled::Bytes, Enrolled::Typed}) {
            EXPECT_GT(expect_lockstep(puf, enrolled, rig, token, form), 0)
                << "no typed probe reached the " << token << " stack";
        }
    }
}

TEST(TypedProbeLockstep, SeqPairing) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 501);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    Xoshiro256pp rng(502);
    const auto e = puf.enroll(rng);
    Rig<pairing::SeqPairingPuf> rig{
        [&] { return std::make_unique<attack::SeqPairingSession>(e.helper, puf.code()); },
        [&] { return attack::Victim<pairing::SeqPairingPuf>(puf, e.key, 503); }};
    expect_lockstep_all(puf, e.helper, rig);
}

TEST(TypedProbeLockstep, MaskedChain) {
    const sim::RoArray chip({20, 8}, quiet_params(), 511);
    const pairing::MaskedChainPuf puf(chip, pairing::MaskedChainConfig{});
    Xoshiro256pp rng(512);
    const auto e = puf.enroll(rng);
    Rig<pairing::MaskedChainPuf> rig{
        [&] { return std::make_unique<attack::MaskedChainSession>(puf, e.helper); },
        [&] { return attack::Victim<pairing::MaskedChainPuf>(puf, 513); }};
    expect_lockstep_all(puf, e.helper, rig);
}

TEST(TypedProbeLockstep, OverlapChain) {
    const sim::RoArray chip({10, 4}, quiet_params(), 521);
    const pairing::OverlapChainPuf puf(chip, pairing::OverlapChainConfig{});
    Xoshiro256pp rng(522);
    const auto e = puf.enroll(rng);
    Rig<pairing::OverlapChainPuf> rig{
        [&] { return std::make_unique<attack::OverlapChainSession>(puf, e.helper); },
        [&] { return attack::Victim<pairing::OverlapChainPuf>(puf, 523); }};
    expect_lockstep_all(puf, e.helper, rig);
}

TEST(TypedProbeLockstep, GroupBased) {
    const sim::RoArray chip({10, 4}, quiet_params(), 531);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    Xoshiro256pp rng(532);
    const auto e = puf.enroll(rng);
    Rig<group::GroupBasedPuf> rig{
        [&] {
            return std::make_unique<attack::GroupSession>(e.helper, chip.geometry(), puf.code());
        },
        [&] { return attack::Victim<group::GroupBasedPuf>(puf, 533); }};
    expect_lockstep_all(puf, e.helper, rig);
}

TEST(TypedProbeLockstep, TempAware) {
    sim::ProcessParams params{};
    params.tempco_sigma = 0.015;
    const sim::RoArray chip({16, 16}, params, 541);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    const tempaware::TempAwarePuf puf(chip, cfg);
    Xoshiro256pp rng(542);
    const auto e = puf.enroll(rng);
    Rig<tempaware::TempAwarePuf> rig{
        [&] {
            return std::make_unique<attack::TempAwareSession>(e.helper, puf.code(), 25.0);
        },
        [&] { return attack::Victim<tempaware::TempAwarePuf>(puf, e.key, 25.0, 543); }};
    expect_lockstep_all(puf, e.helper, rig);
}

// ---------------------------------------------------------------------------
// Round trip: the typed form is kept exactly where parse(store(h)) == h
// (attack-shaped helpers are checked by the lockstep runs above)
// ---------------------------------------------------------------------------

int random_int(Xoshiro256pp& rng) { return static_cast<int>(static_cast<std::uint32_t>(rng.next())); }

double random_double(Xoshiro256pp& rng) { return std::bit_cast<double>(rng.next()); }

std::vector<double> random_beta(Xoshiro256pp& rng) {
    std::vector<double> beta(rng.uniform_u64(0, 10));
    for (auto& c : beta) c = random_double(rng);
    return beta;
}

std::vector<helperdata::IndexPair> random_pairs(Xoshiro256pp& rng, std::size_t n) {
    std::vector<helperdata::IndexPair> pairs(n);
    for (auto& [a, b] : pairs) {
        a = random_int(rng);
        b = static_cast<int>(rng.uniform_u64(0, 127));
    }
    return pairs;
}

/// Random ECC helper; every fourth one plants a parity element that is
/// neither 0 nor 1 (stored as 1, so it cannot round-trip).
ecc::BlockEccHelper random_ecc(Xoshiro256pp& rng) {
    ecc::BlockEccHelper ecc;
    ecc.parity = bits::random_bits(rng.uniform_u64(0, 96), rng);
    ecc.response_bits = random_int(rng);
    if (!ecc.parity.empty() && rng.uniform_u64(0, 3) == 0) {
        ecc.parity[rng.uniform_u64(0, ecc.parity.size() - 1)] =
            static_cast<std::uint8_t>(rng.uniform_u64(2, 255));
    }
    return ecc;
}

/// The property for one helper: a kept typed form round-trips field for
/// field; a dropped one means the probe carries exactly store(h) and the
/// helper really does not round-trip. Returns whether the form was kept.
template <core::Device Puf>
bool expect_typed_iff_round_trip(const typename core::DeviceTraits<Puf>::Helper& helper) {
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;
    const auto probe = attack::make_probe<Puf>(helper);
    const Helper* typed = probe.helper.template typed<Helper>();
    const auto stored = Traits::store(helper);
    EXPECT_EQ(probe.helper.bytes(), stored.bytes());
    std::optional<Helper> parsed;
    try {
        parsed = Traits::parse(stored);
    } catch (const helperdata::ParseError&) {
    }
    const bool round_trips = parsed && Traits::same_helper(*parsed, helper);
    EXPECT_EQ(typed != nullptr, round_trips);
    if (typed != nullptr) {
        EXPECT_TRUE(Traits::same_helper(*typed, helper));
    }
    return typed != nullptr;
}

TEST(TypedProbeRoundTrip, RandomHelpersKeepTheTypedFormExactlyWhenTheyRoundTrip) {
    Xoshiro256pp rng(601);
    int kept = 0;
    int dropped = 0;
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        auto count = [&](bool k) { k ? ++kept : ++dropped; };

        pairing::SeqPairingHelper seq;
        seq.pairs = random_pairs(rng, rng.uniform_u64(0, 40));
        seq.ecc = random_ecc(rng);
        count(expect_typed_iff_round_trip<pairing::SeqPairingPuf>(seq));

        pairing::MaskedChainHelper masked;
        masked.beta = random_beta(rng);
        masked.masking.k = random_int(rng);
        masked.masking.selected.resize(rng.uniform_u64(0, 20));
        for (auto& s : masked.masking.selected) s = random_int(rng);
        masked.ecc = random_ecc(rng);
        count(expect_typed_iff_round_trip<pairing::MaskedChainPuf>(masked));

        pairing::OverlapChainHelper overlap;
        overlap.beta = random_beta(rng);
        overlap.ecc = random_ecc(rng);
        count(expect_typed_iff_round_trip<pairing::OverlapChainPuf>(overlap));

        group::GroupPufHelper grouped;
        grouped.beta = random_beta(rng);
        grouped.group_of.resize(rng.uniform_u64(0, 60));
        for (auto& g : grouped.group_of) g = static_cast<int>(rng.uniform_u64(0, 20)) - 2;
        grouped.ecc = random_ecc(rng);
        count(expect_typed_iff_round_trip<group::GroupBasedPuf>(grouped));

        // Temperature-aware: one record per pair, except every fifth helper
        // (one record short or one too many) and a rare invalid class byte.
        tempaware::TempAwareHelper temp;
        const std::size_t n = rng.uniform_u64(0, 12);
        temp.pairs = random_pairs(rng, n);
        std::size_t records = n;
        if (rng.uniform_u64(0, 4) == 0) records = (n > 0 && rng.bernoulli(0.5)) ? n - 1 : n + 1;
        temp.records.resize(records);
        for (auto& rec : temp.records) {
            rec.cls = static_cast<tempaware::PairClass>(
                rng.uniform_u64(0, 15) == 0 ? rng.uniform_u64(3, 255) : rng.uniform_u64(0, 2));
            rec.t_low = random_double(rng);
            rec.t_high = random_double(rng);
            rec.helper_pair = random_int(rng);
            rec.mask_pair = random_int(rng);
        }
        temp.ecc = random_ecc(rng);
        count(expect_typed_iff_round_trip<tempaware::TempAwarePuf>(temp));
    }
    // Both sides of the property were exercised.
    EXPECT_GT(kept, 200);
    EXPECT_GT(dropped, 100);
}

TEST(TypedProbeRoundTrip, TheTwoNonRoundTrippingShapesCarryBytes) {
    using Traits = core::DeviceTraits<tempaware::TempAwarePuf>;
    sim::ProcessParams params{};
    params.tempco_sigma = 0.015;
    const sim::RoArray chip({16, 16}, params, 611);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    const tempaware::TempAwarePuf puf(chip, cfg);
    Xoshiro256pp rng(612);
    const auto e = puf.enroll(rng);
    ASSERT_NE(attack::make_probe<tempaware::TempAwarePuf>(e.helper)
                  .helper.typed<Traits::Helper>(),
              nullptr);

    auto short_records = e.helper;
    short_records.records.pop_back();
    auto wide_parity = e.helper;
    ASSERT_FALSE(wide_parity.ecc.parity.empty());
    wide_parity.ecc.parity.back() = 2;
    for (const auto* helper : {&short_records, &wide_parity}) {
        const auto probe = attack::make_probe<tempaware::TempAwarePuf>(*helper);
        EXPECT_EQ(probe.helper.typed<Traits::Helper>(), nullptr);
        EXPECT_EQ(probe.helper.bytes(), Traits::store(*helper).bytes());
    }
}

// ---------------------------------------------------------------------------
// Same image: for round-tripping helpers, same_helper holds iff the
// serialized bytes are equal, and ProbeNvm::same_image agrees
// ---------------------------------------------------------------------------

/// Values a double field takes in turn: signed zeros, NaNs that differ only
/// in payload or sign, and neighbours one ulp apart.
std::vector<double> special_doubles() {
    const auto nan = [](std::uint64_t payload) {
        return std::bit_cast<double>(0x7ff8000000000000ull | payload);
    };
    return {0.0, -0.0, nan(1), nan(2), std::bit_cast<double>(0xfff8000000000001ull), 1.0,
            std::nextafter(1.0, 2.0)};
}

/// A round-tripping helper, an unchanged copy of it, and variants that
/// differ from it in one field each (and still round-trip).
template <typename Helper>
class Variants {
public:
    explicit Variants(Helper base) {
        all_.push_back(std::move(base));
        add([](Helper&) {});
    }

    template <typename Edit>
    void add(Edit edit) {
        Helper h = all_.front();
        edit(h);
        all_.push_back(std::move(h));
    }

    /// One variant per special double, written through `field`.
    template <typename Field>
    void add_doubles(Field field) {
        for (const double v : special_doubles()) add([&](Helper& h) { field(h) = v; });
    }

    /// Parity flips, a longer parity and another response length.
    void add_ecc() {
        add([](Helper& h) { h.ecc.parity.front() ^= 1; });
        add([](Helper& h) { h.ecc.parity.back() ^= 1; });
        add([](Helper& h) { h.ecc.parity.push_back(0); });
        add([](Helper& h) { h.ecc.response_bits ^= 1; });
    }

    const std::vector<Helper>& all() const { return all_; }

private:
    std::vector<Helper> all_;
};

/// Compares every pair of `helpers` as fields, as typed probes, and as a
/// typed probe against the other's bytes, each against the bytes compare.
template <core::Device Puf>
void expect_same_iff_same_bytes(const std::vector<typename core::DeviceTraits<Puf>::Helper>& helpers,
                                int& equal, int& differ) {
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;
    SCOPED_TRACE(std::string(Traits::kind));
    std::vector<Nvm> stored;
    std::vector<core::ProbeNvm> typed;
    for (const auto& h : helpers) {
        ASSERT_TRUE(Traits::round_trips(h));
        stored.push_back(Traits::store(h));
        typed.push_back(attack::make_probe_nvm<Puf>(h));
        ASSERT_NE(typed.back().template typed<Helper>(), nullptr);
    }
    for (std::size_t i = 0; i < helpers.size(); ++i) {
        for (std::size_t j = 0; j < helpers.size(); ++j) {
            const bool same_bytes = stored[i].bytes() == stored[j].bytes();
            EXPECT_EQ(Traits::same_helper(helpers[i], helpers[j]), same_bytes) << i << " vs " << j;
            EXPECT_EQ(typed[i].same_image(typed[j]), same_bytes) << i << " vs " << j;
            EXPECT_EQ(typed[i].same_image(core::ProbeNvm(stored[j])), same_bytes)
                << i << " vs " << j;
            same_bytes ? ++equal : ++differ;
        }
    }
}

/// Random parity of 1..96 bits, all 0/1, so the helper round-trips.
ecc::BlockEccHelper binary_ecc(Xoshiro256pp& rng) {
    ecc::BlockEccHelper ecc;
    ecc.parity = bits::random_bits(rng.uniform_u64(1, 96), rng);
    ecc.response_bits = random_int(rng);
    return ecc;
}

std::vector<double> nonempty_beta(Xoshiro256pp& rng) {
    std::vector<double> beta(rng.uniform_u64(1, 10));
    for (auto& c : beta) c = random_double(rng);
    return beta;
}

TEST(TypedProbeSameImage, SameHelperHoldsExactlyWhenTheBytesAreEqual) {
    Xoshiro256pp rng(801);
    int equal = 0;
    int differ = 0;
    for (int trial = 0; trial < 10; ++trial) {
        SCOPED_TRACE(trial);
        {
            pairing::SeqPairingHelper base;
            base.pairs = random_pairs(rng, rng.uniform_u64(1, 20));
            base.ecc = binary_ecc(rng);
            Variants<pairing::SeqPairingHelper> v(base);
            v.add([](auto& h) { h.pairs.front().first ^= 1; });
            v.add([](auto& h) { h.pairs.back().second ^= 1; });
            v.add([](auto& h) { h.pairs.emplace_back(0, 1); });
            v.add_ecc();
            expect_same_iff_same_bytes<pairing::SeqPairingPuf>(v.all(), equal, differ);
        }
        {
            pairing::MaskedChainHelper base;
            base.beta = nonempty_beta(rng);
            base.masking.k = random_int(rng);
            base.masking.selected.resize(rng.uniform_u64(1, 20));
            for (auto& s : base.masking.selected) s = random_int(rng);
            base.ecc = binary_ecc(rng);
            Variants<pairing::MaskedChainHelper> v(base);
            v.add_doubles([](auto& h) -> double& { return h.beta.front(); });
            v.add_doubles([](auto& h) -> double& { return h.beta.back(); });
            v.add([](auto& h) { h.masking.k ^= 1; });
            v.add([](auto& h) { h.masking.selected.front() ^= 1; });
            v.add([](auto& h) { h.masking.selected.push_back(0); });
            v.add_ecc();
            expect_same_iff_same_bytes<pairing::MaskedChainPuf>(v.all(), equal, differ);
        }
        {
            pairing::OverlapChainHelper base;
            base.beta = nonempty_beta(rng);
            base.ecc = binary_ecc(rng);
            Variants<pairing::OverlapChainHelper> v(base);
            v.add_doubles([](auto& h) -> double& { return h.beta.front(); });
            v.add([](auto& h) { h.beta.push_back(0.0); });
            v.add_ecc();
            expect_same_iff_same_bytes<pairing::OverlapChainPuf>(v.all(), equal, differ);
        }
        {
            group::GroupPufHelper base;
            base.beta = nonempty_beta(rng);
            base.group_of.resize(rng.uniform_u64(1, 60));
            for (auto& g : base.group_of) g = static_cast<int>(rng.uniform_u64(1, 20));
            base.ecc = binary_ecc(rng);
            Variants<group::GroupPufHelper> v(base);
            v.add_doubles([](auto& h) -> double& { return h.beta.back(); });
            v.add([](auto& h) { h.group_of.front() ^= 1; });
            v.add([](auto& h) { h.group_of.push_back(1); });
            v.add_ecc();
            expect_same_iff_same_bytes<group::GroupBasedPuf>(v.all(), equal, differ);
        }
        {
            tempaware::TempAwareHelper base;
            base.pairs = random_pairs(rng, rng.uniform_u64(1, 12));
            base.records.resize(base.pairs.size());
            for (auto& rec : base.records) {
                rec.cls = static_cast<tempaware::PairClass>(rng.uniform_u64(0, 2));
                rec.t_low = random_double(rng);
                rec.t_high = random_double(rng);
                rec.helper_pair = random_int(rng);
                rec.mask_pair = random_int(rng);
            }
            base.ecc = binary_ecc(rng);
            Variants<tempaware::TempAwareHelper> v(base);
            v.add_doubles([](auto& h) -> double& { return h.records.front().t_low; });
            v.add_doubles([](auto& h) -> double& { return h.records.back().t_high; });
            v.add([](auto& h) {
                auto& cls = h.records.front().cls;
                cls = static_cast<tempaware::PairClass>((static_cast<int>(cls) + 1) % 3);
            });
            v.add([](auto& h) { h.records.front().helper_pair ^= 1; });
            v.add([](auto& h) { h.records.back().mask_pair ^= 1; });
            v.add([](auto& h) { h.pairs.front().second ^= 1; });
            v.add_ecc();
            expect_same_iff_same_bytes<tempaware::TempAwarePuf>(v.all(), equal, differ);
        }
    }
    // Both sides of the property were exercised.
    EXPECT_GT(equal, 500);
    EXPECT_GT(differ, 10000);
}

// ---------------------------------------------------------------------------
// Tamper regression and lazy bytes
// ---------------------------------------------------------------------------

struct SeqRig {
    using Puf = pairing::SeqPairingPuf;
    using Helper = pairing::SeqPairingHelper;
    sim::RoArray chip{{16, 8}, sim::ProcessParams{}, 701};
    Puf puf{chip, pairing::SeqPairingConfig{}};
    Puf::Enrollment enrollment;

    SeqRig() {
        Xoshiro256pp rng(702);
        enrollment = puf.enroll(rng);
    }
};

TEST(TypedProbeTamper, FlippedBytesReachValidatorAndVictimAndSparesTheSibling) {
    SeqRig rig;
    const auto validator = attack::make_sanity_validator(rig.puf);
    const auto probe = attack::make_probe<SeqRig::Puf>(rig.enrollment.helper);
    auto sibling = probe;
    auto tampered = probe;
    ASSERT_NE(tampered.helper.typed<SeqRig::Helper>(), nullptr);
    // Byte 7 is the high byte of the first pair's first RO index (after the
    // u32 pair count): the index leaves the array.
    tampered.helper.bytes()[7] ^= 0x40;

    EXPECT_EQ(tampered.helper.typed<SeqRig::Helper>(), nullptr);
    ASSERT_NE(sibling.helper.typed<SeqRig::Helper>(), nullptr);
    const auto honest = core::DeviceTraits<SeqRig::Puf>::store(rig.enrollment.helper);
    EXPECT_EQ(sibling.helper.bytes(), honest.bytes());
    EXPECT_EQ(probe.helper.bytes(), honest.bytes());
    EXPECT_NE(tampered.helper.bytes(), honest.bytes());

    EXPECT_TRUE(validator(sibling.helper, helperdata::SanityMode::Verdict).ok);
    EXPECT_FALSE(validator(tampered.helper, helperdata::SanityMode::Verdict).ok);
    EXPECT_EQ(validator(tampered.helper).violations,
              validator(Nvm(tampered.helper.bytes())).violations);

    attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 703);
    auto oracle = attack::make_oracle(victim);
    const auto verdicts = oracle.evaluate(std::vector<core::Probe>{sibling, tampered});
    EXPECT_FALSE(verdicts[0]); // the honest helper regenerates the key
    EXPECT_TRUE(verdicts[1]);  // the out-of-range index fails
    attack::Victim<SeqRig::Puf> twin(rig.puf, rig.enrollment.key, 703);
    auto twin_oracle = attack::make_oracle(twin);
    EXPECT_EQ(twin_oracle.evaluate(std::vector<core::Probe>{bytes_only(sibling),
                                                            bytes_only(tampered)}),
              verdicts);
    EXPECT_EQ(victim.ledger().measurements, twin.ledger().measurements);
}

TEST(TypedProbeTamper, EditedBytesMeetTheCanonicalCheckAndTheMacAsBytes) {
    SeqRig rig;
    using Traits = core::DeviceTraits<SeqRig::Puf>;
    const auto probe = attack::make_probe<SeqRig::Puf>(rig.enrollment.helper);
    // Trailing garbage: not canonical, not the enrolled image.
    auto trailing = probe;
    trailing.helper.bytes().push_back(0);
    // An edit undone: the honest bytes, but no longer a typed probe.
    auto reverted = probe;
    reverted.helper.bytes()[7] ^= 0x40;
    reverted.helper.bytes()[7] ^= 0x40;
    // A canonical re-encoding of another helper (one parity bit flipped).
    auto reencoded = probe;
    auto flipped = rig.enrollment.helper;
    flipped.ecc.parity[0] ^= 1;
    reencoded.helper.bytes() = Traits::store(flipped).bytes();
    const std::vector<core::Probe> batch = {trailing, reverted, reencoded};
    for (const auto& edited : batch) {
        ASSERT_EQ(edited.helper.typed<SeqRig::Helper>(), nullptr);
    }

    int canonical_calls = 0;
    const auto ctx = defense_context(rig.puf, rig.enrollment.helper, Enrolled::Typed,
                                     &canonical_calls);
    attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 741);
    auto crc = defense::apply_defense("crc", attack::make_oracle(victim), ctx);
    const auto crc_verdicts = crc.oracle.evaluate(batch);
    EXPECT_EQ(canonical_calls, 3);
    EXPECT_EQ(crc.refused(), 1);
    EXPECT_TRUE(crc_verdicts[0]);
    EXPECT_FALSE(crc_verdicts[1]);

    auto mac = defense::apply_defense("mac", attack::make_oracle(victim), ctx);
    const auto mac_verdicts = mac.oracle.evaluate(batch);
    EXPECT_EQ(mac.refused(), 2);
    EXPECT_EQ(mac_verdicts, (std::vector<bool>{true, false, true}));
}

TEST(TypedProbeLockstep, InconsistentTypedHelpersDrawNoScan) {
    // A helper the device rejects before measuring must not consume noise,
    // typed or not. On a chip noisy enough that honest regenerations fail
    // now and then, one extra scan would shift every later verdict.
    sim::ProcessParams noisy{};
    noisy.sigma_noise_mhz = 1.0;
    const sim::RoArray chip({16, 8}, noisy, 731);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    Xoshiro256pp rng(732);
    const auto e = puf.enroll(rng);
    auto inconsistent = e.helper;
    inconsistent.ecc.parity.pop_back(); // wrong parity length: no scan
    const std::vector<core::Probe> batch = {
        attack::make_probe<SeqRig::Puf>(inconsistent), attack::make_probe<SeqRig::Puf>(e.helper),
        attack::make_probe<SeqRig::Puf>(e.helper)};
    ASSERT_NE(batch[0].helper.typed<SeqRig::Helper>(), nullptr);
    std::vector<core::Probe> copies;
    for (const auto& probe : batch) copies.push_back(bytes_only(probe));

    attack::Victim<SeqRig::Puf> victim(puf, e.key, 733);
    attack::Victim<SeqRig::Puf> twin(puf, e.key, 733);
    auto typed_oracle = attack::make_oracle(victim);
    auto bytes_oracle = attack::make_oracle(twin);
    int honest_failures = 0;
    for (int round = 0; round < 60; ++round) {
        const auto verdicts = typed_oracle.evaluate(batch);
        ASSERT_EQ(verdicts, bytes_oracle.evaluate(copies)) << "round " << round;
        EXPECT_TRUE(verdicts[0]);
        honest_failures += static_cast<int>(verdicts[1]) + static_cast<int>(verdicts[2]);
    }
    // The verdicts depend on the noise stream, so a drift would show.
    EXPECT_GT(honest_failures, 0);
    EXPECT_LT(honest_failures, 120);
}

TEST(TypedProbeTamper, LastViolationsOfATypedRefusalEqualTheExplainReportOfItsBytes) {
    SeqRig rig;
    const auto validator = attack::make_sanity_validator(rig.puf);
    auto reuse = rig.enrollment.helper;
    reuse.pairs[1].first = reuse.pairs[0].first; // one RO in two pairs
    const auto probe = attack::make_probe<SeqRig::Puf>(reuse);
    ASSERT_NE(probe.helper.typed<SeqRig::Helper>(), nullptr);

    attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 711);
    auto sanity =
        std::make_shared<core::SanityCheckingOracle>(attack::make_oracle(victim), validator);
    core::AnyOracle oracle(sanity);
    EXPECT_TRUE(oracle.evaluate_one(probe));
    ASSERT_EQ(sanity->refused(), 1);
    const auto& violations = sanity->last_violations();
    EXPECT_FALSE(violations.empty());
    EXPECT_EQ(violations, validator(Nvm(probe.helper.bytes())).violations);
}

/// Counts of the two probe-seam counters over one evaluation.
struct SeamCounts {
    double stores = 0.0;
    double parses = 0.0;
};

template <typename Fn>
SeamCounts seam_counts(Fn&& fn) {
    obs::Registry reg;
    obs::install(&reg);
    fn();
    obs::install(nullptr);
    const auto snap = reg.snapshot();
    return {snap.counter_or("helperdata.blob_stores", 0.0),
            snap.counter_or("helperdata.blob_parses", 0.0)};
}

TEST(TypedProbeBytes, BuiltOnlyWhenAByteReaderAsks) {
    SeqRig rig;
    const auto validator = attack::make_sanity_validator(rig.puf);
    std::vector<core::Probe> batch(4, attack::make_probe<SeqRig::Puf>(rig.enrollment.helper));

    // Victim and sanity validator read the typed helper: no store, no parse.
    const auto typed = seam_counts([&] {
        attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 721);
        core::AnyOracle oracle(std::make_shared<core::SanityCheckingOracle>(
            attack::make_oracle(victim), validator));
        (void)oracle.evaluate(batch);
    });
    EXPECT_EQ(typed.stores, 0.0);
    EXPECT_EQ(typed.parses, 0.0);

    // The tamper checks decide typed probes from the helper: the
    // canonical-form check never calls its predicate, and the MAC binding
    // compares with the typed enrolled helper field for field.
    for (const char* token : {"crc", "mac"}) {
        SCOPED_TRACE(token);
        int canonical_calls = 0;
        const auto checked = seam_counts([&] {
            attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 721);
            const auto ctx = defense_context(rig.puf, rig.enrollment.helper, Enrolled::Typed,
                                             &canonical_calls);
            auto oracle = defense::apply_defense(token, attack::make_oracle(victim), ctx).oracle;
            EXPECT_EQ(oracle.evaluate(batch), std::vector<bool>(4, false));
            EXPECT_EQ(oracle.stats().refused, 0);
        });
        EXPECT_EQ(checked.stores, 0.0);
        EXPECT_EQ(checked.parses, 0.0);
        EXPECT_EQ(canonical_calls, 0);
    }

    // Against an enrolled blob the MAC binding compares bytes: each typed
    // probe is stored once and keeps its bytes, and the victim still reads
    // the typed helper.
    const auto byte_compared = seam_counts([&] {
        attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 721);
        const auto ctx = defense_context(rig.puf, rig.enrollment.helper, Enrolled::Bytes);
        auto oracle = defense::apply_defense("mac", attack::make_oracle(victim), ctx).oracle;
        (void)oracle.evaluate(batch);
        (void)oracle.evaluate(batch);
    });
    EXPECT_EQ(byte_compared.stores, 4.0);
    EXPECT_EQ(byte_compared.parses, 0.0);

    // Raw probes are parsed by the validator and again by the victim.
    std::vector<core::Probe> raw;
    for (const auto& probe : batch) raw.push_back(bytes_only(probe));
    const auto parsed = seam_counts([&] {
        attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 721);
        core::AnyOracle oracle(std::make_shared<core::SanityCheckingOracle>(
            attack::make_oracle(victim), validator));
        (void)oracle.evaluate(raw);
    });
    EXPECT_EQ(parsed.stores, 0.0);
    EXPECT_EQ(parsed.parses, 8.0);

    // Raw probes against the typed enrolled helper: the enrolled image is
    // built once for the byte compare, and the canonical-form check runs
    // its predicate on every raw probe.
    int canonical_calls = 0;
    const auto raw_checked = seam_counts([&] {
        attack::Victim<SeqRig::Puf> victim(rig.puf, rig.enrollment.key, 721);
        const auto ctx = defense_context(rig.puf, rig.enrollment.helper, Enrolled::Typed,
                                         &canonical_calls);
        auto mac = defense::apply_defense("mac", attack::make_oracle(victim), ctx).oracle;
        EXPECT_EQ(mac.evaluate(raw), std::vector<bool>(4, false));
        EXPECT_EQ(mac.evaluate(raw), std::vector<bool>(4, false));
        auto crc = defense::apply_defense("crc", attack::make_oracle(victim), ctx).oracle;
        EXPECT_EQ(crc.evaluate(raw), std::vector<bool>(4, false));
    });
    EXPECT_EQ(raw_checked.stores, 1.0);
    EXPECT_EQ(raw_checked.parses, 12.0);
    EXPECT_EQ(canonical_calls, 4);
}

} // namespace

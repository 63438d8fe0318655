// Distance verdicts against decode-and-compare.
//
// A victim answers the oracle's one question — would this probe regenerate
// exactly the expected key? — by Hamming distance (BlockEcc::decodes_to,
// DeviceTraits::accepts) instead of decoding. These tests pin that answer to
// the decode-and-compare it replaces: exhaustively on a small BCH code, over
// every Lehmer rank of small groups, and in lockstep over whole attack
// sessions of all five constructions, typed, as raw bytes and behind a
// sanity check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ropuf/attack/distiller_attack.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/oracle.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/session.hpp"
#include "ropuf/attack/tempaware_attack.hpp"
#include "ropuf/bits/bitvec.hpp"
#include "ropuf/distiller/poly_surface.hpp"
#include "ropuf/distiller/regression.hpp"
#include "ropuf/ecc/bch.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/group/compact.hpp"
#include "ropuf/group/group_puf.hpp"
#include "ropuf/group/kendall.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/rng/xoshiro.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

namespace {

using namespace ropuf;

// ---------------------------------------------------------------------------
// BlockEcc::decodes_to against BlockEcc::reconstruct

/// Calls visit(chosen) for every `w`-subset of [0, n), ascending.
template <class Visit>
void for_each_subset(int n, int w, Visit&& visit) {
    std::vector<int> chosen(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) chosen[static_cast<std::size_t>(i)] = i;
    for (;;) {
        visit(std::span<const int>(chosen));
        int i = w - 1;
        while (i >= 0 && chosen[static_cast<std::size_t>(i)] == n - w + i) --i;
        if (i < 0) return;
        ++chosen[static_cast<std::size_t>(i)];
        for (int j = i + 1; j < w; ++j) {
            chosen[static_cast<std::size_t>(j)] = chosen[static_cast<std::size_t>(j - 1)] + 1;
        }
    }
}

std::vector<std::uint64_t> packed(const bits::BitVec& v) {
    std::vector<std::uint64_t> out(bits::word_count(v.size()));
    bits::pack_words(v, out);
    return out;
}

/// True when reconstruct(noisy, helper) succeeds and gives exactly
/// `reference` — the verdict decodes_to must reproduce.
bool decodes_and_matches(const ecc::BlockEcc& block_ecc, const bits::BitVec& noisy,
                         const ecc::BlockEccHelper& helper, const bits::BitVec& reference) {
    std::vector<std::uint64_t> out(bits::word_count(noisy.size()));
    const auto rec = block_ecc.reconstruct(packed(noisy), helper, out);
    return rec.ok && bits::unpack_words(out, noisy.size()) == reference;
}

/// How the decoder treats a block word beyond t errors.
struct BeyondT {
    int failed = 0;                 ///< decoder reports failure
    int wrong_data = 0;             ///< lands on another codeword with other data
    int virtual_miscorrections = 0; ///< "corrects" a shortened (virtual) zero
};

/// Every error pattern of weight 0 .. 2t+2 over block `block`'s data and
/// parity positions: decodes_to (both overloads) must equal decode-and-
/// compare, and must accept exactly the patterns of weight <= t.
void expect_block_exhaustive(const ecc::BchCode& code, const bits::BitVec& reference, int block,
                             BeyondT* beyond) {
    const ecc::BlockEcc block_ecc(code);
    const int total = static_cast<int>(reference.size());
    const auto honest = block_ecc.enroll(reference);
    const int k = code.k();
    const int p = code.parity_bits();
    const int t = code.t();
    const int len = block_ecc.block_data_bits(total, block);
    const auto ref_words = packed(reference);
    long patterns = 0;
    for (int w = 0; w <= 2 * t + 2; ++w) {
        for_each_subset(len + p, w, [&](std::span<const int> errors) {
            bits::BitVec noisy = reference;
            ecc::BlockEccHelper helper = honest;
            for (const int q : errors) {
                if (q < len) {
                    noisy[static_cast<std::size_t>(block * k + q)] ^= 1u;
                } else {
                    helper.parity[static_cast<std::size_t>(block * p + q - len)] ^= 1u;
                }
            }
            const auto noisy_words = packed(noisy);
            const bool want = decodes_and_matches(block_ecc, noisy, helper, reference);
            const bool got = block_ecc.decodes_to(noisy_words, helper, ref_words);
            ASSERT_EQ(got, want) << "block " << block << ", weight " << w;
            ASSERT_EQ(block_ecc.decodes_to(noisy_words, helper, reference), want);
            ASSERT_EQ(got, w <= t) << "block " << block << ", weight " << w;
            ++patterns;
            if (beyond == nullptr || w <= t) return;
            // Classify the miss on the block's full-length word.
            bits::BitVec word(static_cast<std::size_t>(k - len), 0);
            for (int i = 0; i < len; ++i) word.push_back(noisy[static_cast<std::size_t>(block * k + i)]);
            for (int j = 0; j < p; ++j) word.push_back(helper.parity[static_cast<std::size_t>(block * p + j)]);
            const auto dec = code.decode(word);
            bool virtual_set = false;
            for (int i = 0; i < k - len; ++i) virtual_set |= dec.codeword[static_cast<std::size_t>(i)] != 0;
            if (!dec.ok) {
                ++beyond->failed;
            } else if (virtual_set) {
                ++beyond->virtual_miscorrections;
            } else {
                ++beyond->wrong_data;
            }
        });
    }
    EXPECT_GT(patterns, 0);
}

TEST(DistanceVerdict, BlockCheckEqualsDecodeAndCompareExhaustively) {
    // BCH(31, 21, t = 2) over a 34-bit response: a full block, then a
    // shortened one with 13 data bits behind 8 virtual zeros.
    const ecc::BchCode code(5, 2);
    ASSERT_EQ(code.k(), 21);
    rng::Xoshiro256pp rng(271);
    const auto reference = bits::random_bits(34, rng);
    expect_block_exhaustive(code, reference, 0, nullptr);
    BeyondT beyond;
    expect_block_exhaustive(code, reference, 1, &beyond);
    // The exhaustive sweep reached every way a decode can miss the reference.
    EXPECT_GT(beyond.failed, 0);
    EXPECT_GT(beyond.wrong_data, 0);
    EXPECT_GT(beyond.virtual_miscorrections, 0);
}

TEST(DistanceVerdict, BlockCheckEqualsDecodeAndCompareOnRandomWords) {
    // Errors in several blocks at once, parity elements stored as 2 (a blob
    // keeps any nonzero element as 1), and a code whose parity spans four
    // words.
    for (const auto& [m, t] : {std::pair{5, 3}, std::pair{6, 3}, std::pair{12, 20}}) {
        SCOPED_TRACE(m);
        const ecc::BchCode code(m, t);
        const ecc::BlockEcc block_ecc(code);
        rng::Xoshiro256pp rng(static_cast<std::uint64_t>(300 + m));
        const int total = 2 * code.k() + code.k() / 3;
        const auto reference = bits::random_bits(static_cast<std::size_t>(total), rng);
        const auto honest = block_ecc.enroll(reference);
        int accepted = 0;
        int rejected = 0;
        for (int trial = 0; trial < 400; ++trial) {
            bits::BitVec noisy = reference;
            ecc::BlockEccHelper helper = honest;
            const int flips = static_cast<int>(rng.next() % static_cast<std::uint64_t>(3 * t + 2));
            for (int f = 0; f < flips; ++f) {
                const auto at = rng.next() % (noisy.size() + helper.parity.size());
                if (at < noisy.size()) {
                    noisy[at] ^= 1u;
                } else {
                    helper.parity[at - noisy.size()] ^= 1u;
                }
            }
            for (auto& e : helper.parity) {
                if (e != 0 && rng.next() % 4 == 0) e = 2;
            }
            const bool want = decodes_and_matches(block_ecc, noisy, helper, reference);
            ASSERT_EQ(block_ecc.decodes_to(packed(noisy), helper, reference), want) << trial;
            (want ? accepted : rejected) += 1;
        }
        EXPECT_GT(accepted, 0);
        EXPECT_GT(rejected, 0);
    }
}

TEST(DistanceVerdict, KeyOfAnotherLengthOrNotBinaryIsRejected) {
    const ecc::BchCode code(5, 2);
    const ecc::BlockEcc block_ecc(code);
    rng::Xoshiro256pp rng(33);
    const auto reference = bits::random_bits(34, rng);
    const auto helper = block_ecc.enroll(reference);
    const auto noisy = packed(reference);
    EXPECT_TRUE(block_ecc.decodes_to(noisy, helper, reference));
    auto longer = reference;
    longer.push_back(0);
    EXPECT_FALSE(block_ecc.decodes_to(noisy, helper, longer));
    const bits::BitVec shorter(reference.begin(), reference.end() - 1);
    EXPECT_FALSE(block_ecc.decodes_to(noisy, helper, shorter));
    auto two = reference;
    two[5] = reference[5] == 0 ? 2 : 3; // no regenerated key holds a 2 or a 3
    EXPECT_FALSE(block_ecc.decodes_to(noisy, helper, two));
}

// ---------------------------------------------------------------------------
// Group: every Lehmer rank of groups up to 7 ROs

/// The group victim on groups of the given sizes over a 16-RO chip, under
/// helper parity enrolled on the fresh scan's own Kendall code with 0, t and
/// t+1 parity bits flipped, and on a random order's code. For every chunk
/// value of group `varied` — each rank below g!, and each out-of-range value
/// of its compact_bits(g)-bit field — accepts must equal reconstruct-and-
/// compare; the other groups keep the scan's own ranks.
void expect_group_ranks(const std::vector<int>& sizes, std::size_t varied, std::uint64_t seed) {
    const sim::RoArray chip({4, 4}, sim::ProcessParams{}, seed);
    group::GroupPufConfig cfg;
    cfg.ecc_m = 5;
    cfg.ecc_t = 2;
    const group::GroupBasedPuf puf(chip, cfg);
    const int t = puf.code().t();
    rng::Xoshiro256pp rng(seed + 1);
    auto helper = puf.enroll(rng).helper;
    std::vector<std::vector<int>> members;
    helper.group_of.clear();
    // The given groups on the first ROs, then one singleton group (no
    // Kendall bits, no key bits) per remaining RO.
    for (std::size_t j = 0; helper.group_of.size() < static_cast<std::size_t>(chip.count()); ++j) {
        members.emplace_back();
        for (int i = 0; i < (j < sizes.size() ? sizes[j] : 1); ++i) {
            members.back().push_back(static_cast<int>(helper.group_of.size()));
            helper.group_of.push_back(static_cast<int>(members.size()));
        }
    }
    const ecc::BlockEcc block_ecc(puf.code());
    const auto& c = puf.config().condition;
    const auto scan = chip.measure_all(c, rng);
    // The scan's own Kendall code and key, as the victim derives them.
    const auto own = group::GroupBasedPuf::encode_groups(
        members, distiller::residuals(chip.geometry(), scan,
                                      distiller::PolySurface(cfg.distiller_degree, helper.beta)));
    std::vector<std::size_t> chunk_at{0};
    for (const int g : sizes) chunk_at.push_back(chunk_at.back() + static_cast<std::size_t>(group::compact_bits(g)));
    const auto width = group::compact_bits(sizes[varied]);
    const std::uint64_t out_of_range = group::factorial(sizes[varied]);

    for (const int flips : {0, t, t + 1, -1}) {
        SCOPED_TRACE(flips);
        if (flips >= 0) {
            helper.ecc = block_ecc.enroll(own.kendall);
            for (int f = 0; f < flips && f < static_cast<int>(helper.ecc.parity.size()); ++f) {
                helper.ecc.parity[static_cast<std::size_t>(f)] ^= 1u;
            }
        } else {
            bits::BitVec kendall;
            for (const int g : sizes) {
                const auto chunk = bits::from_u64(rng.next() % group::factorial(g), static_cast<std::size_t>(group::compact_bits(g)));
                const auto code = group::kendall_encode(group::compact_decode(chunk, g).order);
                kendall.insert(kendall.end(), code.begin(), code.end());
            }
            helper.ecc = block_ecc.enroll(kendall);
        }
        int accepted = 0;
        for (std::uint64_t v = 0; v < (std::uint64_t{1} << width); ++v) {
            bits::BitVec expected = own.key;
            const auto chunk = bits::from_u64(v, static_cast<std::size_t>(width));
            std::copy(chunk.begin(), chunk.end(), expected.begin() + static_cast<std::ptrdiff_t>(chunk_at[varied]));
            const auto rec = puf.reconstruct_measured(helper, c, scan);
            const bool want = rec.ok && rec.key == expected;
            const bool got = puf.accepts(helper, c, scan, expected);
            ASSERT_EQ(got, want) << "chunk " << v;
            if (v >= out_of_range) {
                ASSERT_FALSE(got) << "out-of-range chunk " << v;
            }
            accepted += got;
        }
        // Within t of the scan's own code, exactly its own rank is accepted;
        // t+1 parity errors leave none.
        if (flips >= 0 && helper.ecc.parity.size() >= static_cast<std::size_t>(t + 1)) {
            EXPECT_EQ(accepted, flips <= t ? 1 : 0);
        }
        // Keys of another length never match.
        auto longer = own.key;
        longer.push_back(0);
        EXPECT_FALSE(puf.accepts(helper, c, scan, longer));
        if (!own.key.empty()) {
            const bits::BitVec shorter(own.key.begin(), own.key.end() - 1);
            EXPECT_FALSE(puf.accepts(helper, c, scan, shorter));
        }
    }
}

TEST(DistanceVerdict, GroupAcceptsEqualsReconstructForEveryRank) {
    for (int g = 1; g <= 7; ++g) {
        SCOPED_TRACE(g);
        expect_group_ranks({g}, 0, 400 + static_cast<std::uint64_t>(g));
    }
    // Chunks at an offset in the key: a second and a third group around the
    // varied one.
    expect_group_ranks({3, 5, 2}, 1, 420);
    expect_group_ranks({4, 6}, 0, 421);
}

// ---------------------------------------------------------------------------
// Lockstep sessions: accepts against reconstruct-and-compare

/// The reconstruct path the victims used before the distance check, as an
/// oracle: the same parse, consistency check, batched noise and ledger as
/// attack::Victim, then reconstruct_measured and a key compare per probe.
template <core::Device Puf>
class ReconstructingVictim final : public core::OracleBase {
public:
    using Traits = core::DeviceTraits<Puf>;
    using Helper = typename Traits::Helper;

    ReconstructingVictim(const attack::Victim<Puf>& like, std::optional<bits::BitVec> app_key,
                         std::uint64_t noise_seed)
        : puf_(&like.puf()), ambient_(like.ambient()), app_key_(std::move(app_key)), rng_(noise_seed) {}

    void evaluate(std::span<const core::Probe> probes, std::vector<bool>& verdicts) override {
        verdicts.clear();
        const auto& array = puf_->array();
        const int cost = array.count();
        std::vector<std::optional<Helper>> helpers(probes.size());
        std::vector<char> consistent(probes.size(), 0);
        int scans = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            if (const Helper* typed = probes[i].helper.template typed<Helper>()) {
                helpers[i] = *typed;
            } else {
                try {
                    helpers[i] = Traits::parse(probes[i].helper);
                } catch (const helperdata::ParseError&) {
                    continue;
                }
            }
            if (Traits::helper_consistent(*puf_, *helpers[i])) {
                consistent[i] = 1;
                ++scans;
            }
        }
        array.measure_batch_into(ambient_, scans, rng_, scan_buffer_);
        std::size_t scan = 0;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            ++stats_.queries;
            if (!helpers[i]) {
                ++stats_.refused;
                verdicts.push_back(true);
                continue;
            }
            stats_.measurements += cost;
            core::ReconstructResult rec;
            if (consistent[i]) {
                const std::span<const double> freqs(scan_buffer_.data() + scan * static_cast<std::size_t>(cost), static_cast<std::size_t>(cost));
                ++scan;
                rec = Traits::reconstruct_measured(*puf_, *helpers[i], ambient_, freqs);
            }
            const bits::BitVec& expected = probes[i].expect ? *probes[i].expect : *app_key_;
            verdicts.push_back(!rec.ok || rec.key != expected);
            accepted_ += rec.ok && rec.key == expected;
        }
    }
    core::OracleStats stats() const override { return stats_; }
    int accepted() const { return accepted_; }

private:
    const Puf* puf_;
    sim::Condition ambient_;
    std::optional<bits::BitVec> app_key_;
    rng::Xoshiro256pp rng_;
    core::OracleStats stats_;
    std::vector<double> scan_buffer_;
    int accepted_ = 0;
};

enum class Feed { typed, bytes, sanity };

/// Drives `session` against the library's victim and, probe for probe, the
/// reconstructing reference built on the same noise seed: every batch's
/// verdicts and the final ledgers must be equal. Feed::bytes hands both
/// every probe as its raw bytes; Feed::sanity puts a SanityCheckingOracle in
/// front of each. Undefended, some probe must be accepted.
template <core::Device Puf>
void expect_lockstep(attack::Session& session, const Puf& puf, attack::Victim<Puf>& victim,
                    std::optional<bits::BitVec> app_key, std::uint64_t noise_seed, Feed feed) {
    auto reference = std::make_shared<ReconstructingVictim<Puf>>(victim, std::move(app_key), noise_seed);
    core::AnyOracle lib = attack::make_oracle(victim);
    core::AnyOracle ref(reference);
    if (feed == Feed::sanity) {
        lib = core::AnyOracle(std::make_shared<core::SanityCheckingOracle>(lib, attack::make_sanity_validator(puf)));
        ref = core::AnyOracle(std::make_shared<core::SanityCheckingOracle>(ref, attack::make_sanity_validator(puf)));
    }
    int batches = 0;
    for (;;) {
        const auto batch = session.step();
        if (batch.empty()) break;
        std::vector<core::Probe> probes(batch.begin(), batch.end());
        if (feed == Feed::bytes) {
            for (auto& probe : probes) probe.helper = core::ProbeNvm(probe.helper.nvm());
        }
        const auto got = lib.evaluate(probes);
        const auto want = ref.evaluate(probes);
        ASSERT_EQ(got, want) << "batch " << batches;
        session.absorb(got);
        ++batches;
    }
    const auto a = lib.stats();
    const auto b = ref.stats();
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_GT(batches, 0);
    if (feed != Feed::sanity) {
        EXPECT_GT(reference->accepted(), 0);
    }
}

sim::ProcessParams quiet_params() {
    sim::ProcessParams p{};
    p.sigma_noise_mhz = 0.02;
    return p;
}

class Lockstep : public ::testing::TestWithParam<Feed> {};

TEST_P(Lockstep, SeqPairing) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 501);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(502);
    const auto enrollment = puf.enroll(rng);
    attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 503);
    attack::SeqPairingSession session(enrollment.helper, puf.code(), {});
    expect_lockstep(session, puf, victim, enrollment.key, 503, GetParam());
}

TEST_P(Lockstep, MaskedChain) {
    const sim::RoArray chip({20, 8}, quiet_params(), 511);
    const pairing::MaskedChainPuf puf(chip, pairing::MaskedChainConfig{});
    rng::Xoshiro256pp rng(512);
    const auto enrollment = puf.enroll(rng);
    attack::MaskedChainAttack::Victim victim(puf, 513);
    attack::MaskedChainSession session(puf, enrollment.helper, {});
    expect_lockstep(session, puf, victim, std::nullopt, 513, GetParam());
}

TEST_P(Lockstep, OverlapChain) {
    const sim::RoArray chip({10, 4}, quiet_params(), 521);
    const pairing::OverlapChainPuf puf(chip, pairing::OverlapChainConfig{});
    rng::Xoshiro256pp rng(522);
    const auto enrollment = puf.enroll(rng);
    attack::OverlapChainAttack::Victim victim(puf, 523);
    attack::OverlapChainSession session(puf, enrollment.helper, {});
    expect_lockstep(session, puf, victim, std::nullopt, 523, GetParam());
}

TEST_P(Lockstep, TempAware) {
    sim::ProcessParams rich{};
    rich.tempco_sigma = 0.015;
    const sim::RoArray chip({16, 16}, rich, 531);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    const tempaware::TempAwarePuf puf(chip, cfg);
    rng::Xoshiro256pp rng(532);
    const auto enrollment = puf.enroll(rng);
    attack::TempAwareAttack::Victim victim(puf, enrollment.key, 25.0, 533);
    attack::TempAwareSession session(enrollment.helper, puf.code(), victim.ambient_c(), {});
    expect_lockstep(session, puf, victim, enrollment.key, 533, GetParam());
}

TEST_P(Lockstep, Group) {
    const sim::RoArray chip({10, 4}, quiet_params(), 541);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    rng::Xoshiro256pp rng(542);
    const auto enrollment = puf.enroll(rng);
    attack::GroupBasedAttack::Victim victim(puf, 543);
    attack::GroupSession session(enrollment.helper, chip.geometry(), puf.code(), {});
    expect_lockstep(session, puf, victim, std::nullopt, 543, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Feeds, Lockstep,
                         ::testing::Values(Feed::typed, Feed::bytes, Feed::sanity),
                         [](const ::testing::TestParamInfo<Feed>& info) {
                             switch (info.param) {
                             case Feed::typed: return "Typed";
                             case Feed::bytes: return "RawBytes";
                             case Feed::sanity: return "SanityDefended";
                             }
                             return "Unknown";
                         });

} // namespace

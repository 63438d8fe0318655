// E14 — microbenchmarks (google-benchmark): throughput of every substrate.
//
// By default the run also emits BENCH_micro.json (google-benchmark's JSON
// format) in the working directory, the machine-readable perf trajectory CI
// archives; pass your own --benchmark_out= to override.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "ropuf/attack/group_attack.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/attack/tempaware_attack.hpp"
#include "ropuf/core/campaign.hpp"
#include "ropuf/core/sanitizer.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/distiller/regression.hpp"
#include "ropuf/ecc/block_ecc.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fuzzy/fuzzy_extractor.hpp"
#include "ropuf/group/group_puf.hpp"
#include "ropuf/hash/sha256.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/pairing/puf_pipeline.hpp"
#include "ropuf/rng/gaussian.hpp"
#include "ropuf/sim/ro_fleet.hpp"
#include "ropuf/simd/simd.hpp"
#include "ropuf/tempaware/tempaware_puf.hpp"

namespace {

using namespace ropuf;

void BM_Sha256_1KiB(benchmark::State& state) {
    std::vector<std::uint8_t> data(1024, 0xa5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hash::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_BchEncode(benchmark::State& state) {
    const ecc::BchCode code(static_cast<int>(state.range(0)), 3);
    rng::Xoshiro256pp rng(1);
    const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.encode(msg));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BchEncode)->Arg(5)->Arg(6)->Arg(8);

void BM_BchDecodeTErrors(benchmark::State& state) {
    const ecc::BchCode code(static_cast<int>(state.range(0)), 3);
    rng::Xoshiro256pp rng(2);
    const auto msg = bits::random_bits(static_cast<std::size_t>(code.k()), rng);
    auto received = code.encode(msg);
    bits::flip_random(received, code.t(), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.decode(received));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BchDecodeTErrors)->Arg(5)->Arg(6)->Arg(8);

void BM_DistillerFit(benchmark::State& state) {
    const sim::ArrayGeometry g{16, 32};
    const sim::RoArray chip(g, sim::ProcessParams{}, 3);
    rng::Xoshiro256pp rng(4);
    const auto freqs = chip.enroll_frequencies(sim::Condition{}, 4, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(distiller::fit(g, freqs, static_cast<int>(state.range(0))));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DistillerFit)->Arg(2)->Arg(3);

void BM_DistillerResiduals(benchmark::State& state) {
    // The per-probe subtraction: every key regeneration removes the (possibly
    // manipulated) helper surface from a fresh frequency map.
    const sim::ArrayGeometry g{16, 32};
    const sim::RoArray chip(g, sim::ProcessParams{}, 3);
    rng::Xoshiro256pp rng(4);
    const auto freqs = chip.enroll_frequencies(sim::Condition{}, 4, rng);
    const auto surface = distiller::fit(g, freqs, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(distiller::residuals(g, freqs, surface));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DistillerResiduals)->Arg(2)->Arg(3);

void BM_Grouping(benchmark::State& state) {
    rng::Xoshiro256pp rng(5);
    std::vector<double> values(static_cast<std::size_t>(state.range(0)));
    for (auto& v : values) v = rng.gaussian(0.0, 1.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(group::grouping(values, 0.15));
    }
}
BENCHMARK(BM_Grouping)->Arg(128)->Arg(512);

void BM_KendallEncode(benchmark::State& state) {
    const int g = static_cast<int>(state.range(0));
    group::Order order(static_cast<std::size_t>(g));
    for (int i = 0; i < g; ++i) order[static_cast<std::size_t>(i)] = g - 1 - i;
    for (auto _ : state) {
        benchmark::DoNotOptimize(group::kendall_encode(order));
    }
}
BENCHMARK(BM_KendallEncode)->Arg(4)->Arg(8)->Arg(12);

void BM_GroupPufEnroll(benchmark::State& state) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 6);
    const group::GroupBasedPuf puf(chip, group::GroupPufConfig{});
    rng::Xoshiro256pp rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(puf.enroll(rng));
    }
}
BENCHMARK(BM_GroupPufEnroll);

void BM_GroupPufReconstruct(benchmark::State& state) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 8);
    const group::GroupBasedPuf puf(chip, group::GroupPufConfig{});
    rng::Xoshiro256pp rng(9);
    const auto enrollment = puf.enroll(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(puf.reconstruct(enrollment.helper, rng));
    }
}
BENCHMARK(BM_GroupPufReconstruct);

void BM_GroupReconstructMeasured(benchmark::State& state) {
    // The group victim's per-probe regeneration from a given scan — the
    // flat partition, Kendall coding, BlockEcc and entropy packing — on the
    // group scenario's 10x4 array; items = regenerations.
    const sim::RoArray chip({10, 4}, sim::ProcessParams{}, 8);
    const group::GroupBasedPuf puf(chip, group::GroupPufConfig{});
    rng::Xoshiro256pp rng(9);
    const auto enrollment = puf.enroll(rng);
    const auto scan = chip.measure_all(puf.config().condition, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            puf.reconstruct_measured(enrollment.helper, puf.config().condition, scan));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupReconstructMeasured);

void BM_GroupBuildComparison(benchmark::State& state) {
    // The group attacker's comparator experiment (plane, repartition, two
    // helpers and their parity) built into one reused workspace, cycling
    // through every ordered target pair of the group scenario's 10x4 chip;
    // items = comparisons.
    const sim::RoArray chip({10, 4}, sim::ProcessParams{}, 8);
    group::GroupPufConfig cfg;
    cfg.delta_f_th = 0.15;
    const group::GroupBasedPuf puf(chip, cfg);
    rng::Xoshiro256pp rng(9);
    const auto enrollment = puf.enroll(rng);
    std::vector<std::pair<int, int>> targets;
    for (int a = 0; a < chip.count(); ++a) {
        for (int b = 0; b < chip.count(); ++b) {
            if (a != b) targets.emplace_back(a, b);
        }
    }
    attack::GroupBasedAttack::ComparisonWorkspace ws;
    std::size_t next = 0;
    for (auto _ : state) {
        const auto [a, b] = targets[next];
        next = next + 1 == targets.size() ? 0 : next + 1;
        attack::GroupBasedAttack::build_comparison(enrollment.helper, chip.geometry(), puf.code(),
                                                   a, b, 1000.0, ws);
        benchmark::DoNotOptimize(ws.instance.helper[1].ecc.parity.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupBuildComparison);

/// Enrolls `kind`'s victim on its scenario's chip (seqpair, maskedchain,
/// overlapchain, tempaware or group) and calls
/// f(puf, helper, condition, scan, key) with one fresh scan.
template <class F>
void with_victim(const char* kind, F&& f) {
    rng::Xoshiro256pp rng(31);
    const auto run = [&](const auto& puf, const sim::Condition& c) {
        const auto enrollment = puf.enroll(rng);
        f(puf, enrollment.helper, c, puf.array().measure_all(c, rng), enrollment.key);
    };
    sim::ProcessParams quiet{};
    quiet.sigma_noise_mhz = 0.02;
    if (std::strcmp(kind, "seqpair") == 0) {
        const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 32);
        const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
        run(puf, puf.config().condition);
    } else if (std::strcmp(kind, "maskedchain") == 0) {
        const sim::RoArray chip({20, 8}, quiet, 34);
        const pairing::MaskedChainPuf puf(chip, pairing::MaskedChainConfig{});
        run(puf, puf.config().condition);
    } else if (std::strcmp(kind, "overlapchain") == 0) {
        const sim::RoArray chip({10, 4}, quiet, 35);
        const pairing::OverlapChainPuf puf(chip, pairing::OverlapChainConfig{});
        run(puf, puf.config().condition);
    } else if (std::strcmp(kind, "group") == 0) {
        const sim::RoArray chip({10, 4}, quiet, 36);
        group::GroupPufConfig cfg;
        cfg.delta_f_th = 0.15;
        const group::GroupBasedPuf puf(chip, cfg);
        run(puf, puf.config().condition);
    } else {
        sim::ProcessParams params{};
        params.tempco_sigma = 0.015;
        const sim::RoArray chip({16, 16}, params, 33);
        tempaware::TempAwareConfig cfg;
        cfg.classification = {-20.0, 85.0, 0.2};
        cfg.enroll_samples = 64;
        const tempaware::TempAwarePuf puf(chip, cfg);
        run(puf, core::DeviceTraits<tempaware::TempAwarePuf>::condition_at(puf, 25.0));
    }
}

void BM_VictimRegen(benchmark::State& state, const char* kind) {
    // One victim regeneration from a given scan on the scenario's chip:
    // response bits packed, BlockEcc on words, the key unpacked once;
    // items = regenerations.
    with_victim(kind, [&](const auto& puf, const auto& helper, const sim::Condition& c,
                          const std::vector<double>& scan, const bits::BitVec&) {
        for (auto _ : state) {
            benchmark::DoNotOptimize(puf.reconstruct_measured(helper, c, scan));
        }
    });
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_VictimRegen, seqpair, "seqpair");
BENCHMARK_CAPTURE(BM_VictimRegen, tempaware, "tempaware");

void BM_VictimVerdict(benchmark::State& state, const char* kind) {
    // The oracle's verdict on one probe from a given scan, the enrolled
    // helper and the enrolled key, as Victim::evaluate_probes asks it: the
    // response stage, then the per-block distance to the expected key's
    // codeword; no decode, no key. items = verdicts.
    with_victim(kind, [&](const auto& puf, const auto& helper, const sim::Condition& c,
                          const std::vector<double>& scan, const bits::BitVec& key) {
        using Traits = core::DeviceTraits<std::decay_t<decltype(puf)>>;
        for (auto _ : state) {
            benchmark::DoNotOptimize(Traits::accepts(puf, helper, c, scan, key));
        }
    });
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_VictimVerdict, seqpair, "seqpair");
BENCHMARK_CAPTURE(BM_VictimVerdict, maskedchain, "maskedchain");
BENCHMARK_CAPTURE(BM_VictimVerdict, overlapchain, "overlapchain");
BENCHMARK_CAPTURE(BM_VictimVerdict, tempaware, "tempaware");
BENCHMARK_CAPTURE(BM_VictimVerdict, group, "group");

void BM_BlockEccReconstruct(benchmark::State& state) {
    // BlockEcc's word path over four BCH(2^m - 1, k, 3) blocks, the final one
    // shortened, with t errors in every block; items = response bits.
    const ecc::BchCode code(static_cast<int>(state.range(0)), 3);
    const ecc::BlockEcc block_ecc(code);
    const int total = 3 * code.k() + code.k() / 2;
    rng::Xoshiro256pp rng(21);
    const auto reference = bits::random_bits(static_cast<std::size_t>(total), rng);
    const auto helper = block_ecc.enroll(reference);
    auto noisy = reference;
    for (int b = 0; b < block_ecc.block_count(total); ++b) {
        for (int e = 0; e < code.t(); ++e) {
            bits::flip(noisy, static_cast<std::size_t>(b * code.k() + e * 3));
        }
    }
    std::vector<std::uint64_t> in(bits::word_count(noisy.size()));
    std::vector<std::uint64_t> out(in.size());
    bits::pack_words(noisy, in);
    for (auto _ : state) {
        benchmark::DoNotOptimize(block_ecc.reconstruct(in, helper, out));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * total);
}
BENCHMARK(BM_BlockEccReconstruct)->Arg(6)->Arg(8);

void BM_FuzzyReconstruct(benchmark::State& state) {
    const ecc::BchCode code(6, 5);
    const fuzzy::FuzzyExtractor fe(code);
    rng::Xoshiro256pp rng(10);
    const auto response = bits::random_bits(127, rng);
    const auto enrollment = fe.enroll(response, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fe.reconstruct(response, enrollment.helper));
    }
}
BENCHMARK(BM_FuzzyReconstruct);

void BM_SeqPairAttackFullKey(benchmark::State& state) {
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 11);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(12);
    const auto enrollment = puf.enroll(rng);
    for (auto _ : state) {
        attack::SeqPairingAttack::Victim victim(puf, enrollment.key, 13);
        attack::SeqPairingSession session(enrollment.helper, puf.code());
        auto oracle = attack::make_oracle(victim);
        attack::run_to_completion(session, oracle);
        benchmark::DoNotOptimize(session.result());
    }
}
BENCHMARK(BM_SeqPairAttackFullKey)->Unit(benchmark::kMillisecond);

void BM_RoArrayBatchedScan(benchmark::State& state) {
    // The attack engine's hot path: repeated noisy scans at one condition.
    const int cols = static_cast<int>(state.range(0));
    const sim::RoArray chip({cols, 8}, sim::ProcessParams{}, 14);
    rng::Xoshiro256pp rng(15);
    std::vector<double> scan;
    for (auto _ : state) {
        chip.measure_all_into(sim::Condition{}, rng, scan);
        benchmark::DoNotOptimize(scan.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * chip.count());
}
BENCHMARK(BM_RoArrayBatchedScan)->Arg(16)->Arg(64)->Arg(256);

void BM_RoArrayBatchedScanObs(benchmark::State& state) {
    // BM_RoArrayBatchedScan with a metrics registry installed — the obs-on
    // arm of the overhead contract. check_bench_regression.py --compare
    // pairs each Arg with its base benchmark and holds the ratio to 3%.
    const int cols = static_cast<int>(state.range(0));
    const sim::RoArray chip({cols, 8}, sim::ProcessParams{}, 14);
    rng::Xoshiro256pp rng(15);
    std::vector<double> scan;
    obs::Registry reg;
    obs::install(&reg);
    for (auto _ : state) {
        chip.measure_all_into(sim::Condition{}, rng, scan);
        benchmark::DoNotOptimize(scan.data());
    }
    obs::install(nullptr);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * chip.count());
}
BENCHMARK(BM_RoArrayBatchedScanObs)->Arg(16)->Arg(64)->Arg(256);

void BM_RoArrayMeasureBatch(benchmark::State& state) {
    // measure_batch_into amortizes `range` scans into one noise block + one
    // condition sweep (bit-identical to that many measure_all_into calls).
    const int scans = static_cast<int>(state.range(0));
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 14);
    rng::Xoshiro256pp rng(15);
    std::vector<double> buffer;
    for (auto _ : state) {
        chip.measure_batch_into(sim::Condition{}, scans, rng, buffer);
        benchmark::DoNotOptimize(buffer.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * scans *
                            chip.count());
}
BENCHMARK(BM_RoArrayMeasureBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_SimdMeasure(benchmark::State& state) {
    // Successor of BM_RoArrayBatchedScan on the fleet kernel: `range` devices
    // measured lane-parallel (one device per vector lane on the wide paths).
    // Items = measurements, so items_per_second compares directly against the
    // BM_RoArrayBatchedScan baseline; Arg(1) shows the single-device floor.
    const auto devices = static_cast<std::size_t>(state.range(0));
    constexpr int kScans = 64;
    sim::RoFleet fleet({64, 8}, sim::ProcessParams{}, 14, devices);
    const auto count = static_cast<std::int64_t>(fleet.chip(0).count());
    std::vector<std::vector<double>> out;
    for (auto _ : state) {
        fleet.measure_batch(sim::Condition{}, kScans, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(devices) * kScans * count);
}
BENCHMARK(BM_SimdMeasure)->Arg(1)->Arg(8);

void BM_SimdMeasureObs(benchmark::State& state) {
    // BM_SimdMeasure with a metrics registry installed (obs-on arm; see
    // BM_RoArrayBatchedScanObs).
    const auto devices = static_cast<std::size_t>(state.range(0));
    constexpr int kScans = 64;
    sim::RoFleet fleet({64, 8}, sim::ProcessParams{}, 14, devices);
    const auto count = static_cast<std::int64_t>(fleet.chip(0).count());
    std::vector<std::vector<double>> out;
    obs::Registry reg;
    obs::install(&reg);
    for (auto _ : state) {
        fleet.measure_batch(sim::Condition{}, kScans, out);
        benchmark::DoNotOptimize(out.data());
    }
    obs::install(nullptr);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(devices) * kScans * count);
}
BENCHMARK(BM_SimdMeasureObs)->Arg(1)->Arg(8);

void BM_FleetMeasure(benchmark::State& state) {
    // The fleet campaign's per-shard hot path: manufacture a wafer-correlated
    // shard of `range` devices (Population::manufacture_shard, the same call
    // run_fleet_campaign issues per shard) and measure one reconstruction
    // block through the lane-parallel kernel. Geometry and items match
    // BM_SimdMeasure, so the throughput delta against it is exactly the
    // population layer's manufacture + parameter-perturbation overhead.
    // Arg(64) is the campaign's kShardDevices shape.
    const auto devices = static_cast<std::size_t>(state.range(0));
    constexpr int kScans = 15; // majority_wins 5 x trials 3, the smoke shape
    fleet::FleetSpec spec;
    spec.name = "bench";
    spec.devices = devices;
    spec.cols = 64;
    spec.rows = 8;
    spec.base_seed = 21;
    const fleet::Population population(spec);
    const auto count = static_cast<std::int64_t>(spec.ro_count());
    std::vector<std::vector<double>> out;
    for (auto _ : state) {
        sim::RoFleet shard = population.manufacture_shard(
            0, devices, fleet::Population::Phase::campaign);
        shard.measure_batch(sim::Condition{}, kScans, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(devices) * kScans * count);
}
BENCHMARK(BM_FleetMeasure)->Arg(8)->Arg(64);

void BM_MajorityVote(benchmark::State& state) {
    // Bit-sliced majority vote kernel over `range` packed scan rows; items =
    // output bits decided.
    const int n_rows = static_cast<int>(state.range(0));
    constexpr std::size_t kWords = 64; // 4096 response bits
    rng::Xoshiro256pp rng(19);
    std::vector<std::uint64_t> rows(kWords * static_cast<std::size_t>(n_rows));
    for (auto& w : rows) w = rng.next();
    std::vector<std::uint64_t> out(kWords);
    for (auto _ : state) {
        simd::kernels().majority_vote_packed(rows.data(), kWords, n_rows, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kWords * 64);
}
BENCHMARK(BM_MajorityVote)->Arg(5)->Arg(9)->Arg(15);

void BM_BchSyndrome(benchmark::State& state) {
    // Byte-wise Horner syndrome kernel; items = codeword bits. Arg is the
    // field degree m; m=13 exceeds the mul-table budget and exercises the
    // log/exp stepping fallback.
    const ecc::BchCode code(static_cast<int>(state.range(0)), 3);
    rng::Xoshiro256pp rng(20);
    const auto word = bits::random_bits(static_cast<std::size_t>(code.n()), rng);
    const auto bytes = bits::pack_bytes(word);
    const simd::BchHornerView view = code.horner_view();
    std::vector<int> synd(static_cast<std::size_t>(2 * code.t()));
    for (auto _ : state) {
        simd::kernels().bch_syndromes(bytes.data(), bytes.size(), view, synd.data());
        benchmark::DoNotOptimize(synd.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * code.n());
}
BENCHMARK(BM_BchSyndrome)->Arg(5)->Arg(8)->Arg(13);

/// Times one AnyOracle batch of `range` copies of the probe `make` builds
/// for the enrolled helper, against a seqpair victim; items = probes.
void oracle_batch_loop(benchmark::State& state,
                       core::Probe (*make)(const pairing::SeqPairingHelper&)) {
    const int batch_size = static_cast<int>(state.range(0));
    const sim::RoArray chip({16, 8}, sim::ProcessParams{}, 11);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(12);
    const auto enrollment = puf.enroll(rng);
    attack::Victim<pairing::SeqPairingPuf> victim(puf, enrollment.key, 13);
    auto oracle = attack::make_oracle(victim);
    const std::vector<core::Probe> batch(static_cast<std::size_t>(batch_size),
                                         make(enrollment.helper));
    for (auto _ : state) {
        benchmark::DoNotOptimize(oracle.evaluate(batch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch_size);
}

void BM_OracleBatchedProbes(benchmark::State& state) {
    // The oracle's amortized hot path: one AnyOracle batch of `range`
    // identical typed probes (attack::make_probe) against a seqpair victim,
    // which reads the structured helper without a byte round trip. Arg(1)
    // is the sequential baseline; larger batches amortize the whole batch's
    // noise block through measure_batch_into. Items = probes, so throughput
    // compares directly across batch sizes.
    oracle_batch_loop(state, [](const pairing::SeqPairingHelper& helper) {
        return attack::make_probe<pairing::SeqPairingPuf>(helper);
    });
}
BENCHMARK(BM_OracleBatchedProbes)->Arg(1)->Arg(8)->Arg(32);

void BM_OracleBatchedRawProbes(benchmark::State& state) {
    // The same batches as raw-NVM probes (Probe{store(h)}): the victim
    // parses every blob, as it does for bytes an attacker wrote directly.
    oracle_batch_loop(state, [](const pairing::SeqPairingHelper& helper) {
        return core::Probe{pairing::serialize(helper), nullptr};
    });
}
BENCHMARK(BM_OracleBatchedRawProbes)->Arg(1)->Arg(8)->Arg(32);

/// Times the first batch a tempaware substitution session stages through the
/// `token` defense stack, built as the scenarios build it (typed enrolled
/// helper); items = probes. Each iteration evaluates a fresh copy of the
/// batch, as the session stages fresh probes. `raw` turns every probe into
/// its bytes: the byte path of raw and edited probes.
void defended_loop(benchmark::State& state, const char* token, bool raw) {
    using Puf = tempaware::TempAwarePuf;
    sim::ProcessParams params{};
    params.tempco_sigma = 0.015;
    const sim::RoArray chip({16, 16}, params, 21);
    tempaware::TempAwareConfig cfg;
    cfg.classification = {-20.0, 85.0, 0.2};
    cfg.enroll_samples = 64;
    const Puf puf(chip, cfg);
    rng::Xoshiro256pp rng(22);
    const auto enrollment = puf.enroll(rng);
    attack::Victim<Puf> victim(puf, enrollment.key, 25.0, 23);
    auto oracle =
        defense::apply_defense(token, attack::make_oracle(victim),
                               attack::make_defense_context(puf, enrollment.helper, 24))
            .oracle;
    attack::TempAwareSession session(enrollment.helper, puf.code(), victim.ambient_c());
    std::vector<core::Probe> staged;
    for (const auto& probe : session.step()) {
        staged.push_back(raw ? core::Probe{helperdata::Nvm(probe.helper.bytes()), probe.expect}
                             : probe);
    }
    for (auto _ : state) {
        const std::vector<core::Probe> batch = staged;
        benchmark::DoNotOptimize(oracle.evaluate(batch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(staged.size()));
}

void BM_DefendedProbes(benchmark::State& state, const char* token) {
    // The tamper checks on typed probes: `crc` accepts them without its
    // byte-level predicate, `mac` compares helpers with the enrolled one.
    defended_loop(state, token, false);
}
BENCHMARK_CAPTURE(BM_DefendedProbes, crc, "crc");
BENCHMARK_CAPTURE(BM_DefendedProbes, mac, "mac");

void BM_DefendedRawProbes(benchmark::State& state, const char* token) {
    // The same batches as raw-NVM probes: `crc` parses and re-serializes
    // every blob, `mac` compares its bytes with the enrolled image.
    defended_loop(state, token, true);
}
BENCHMARK_CAPTURE(BM_DefendedRawProbes, crc, "crc");
BENCHMARK_CAPTURE(BM_DefendedRawProbes, mac, "mac");

void BM_GaussianPolar(benchmark::State& state) {
    // The pre-campaign scalar path: Marsaglia polar with pair caching.
    rng::Xoshiro256pp rng(16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.gaussian());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaussianPolar);

void BM_GaussianZiggurat(benchmark::State& state) {
    rng::Xoshiro256pp rng(17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng::gaussian_zig(rng));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaussianZiggurat);

void BM_GaussianFillBlock(benchmark::State& state) {
    // The measurement hot path's noise block: fill a scan-sized buffer.
    rng::Xoshiro256pp rng(18);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> block(n);
    for (auto _ : state) {
        rng::fill_gaussian(rng, 0.0, 0.05, block.data(), n);
        benchmark::DoNotOptimize(block.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GaussianFillBlock)->Arg(128)->Arg(2048);

void BM_CampaignSeqpair(benchmark::State& state) {
    // Small campaign per iteration; workers swept to expose scaling in the
    // micro JSON (bench_campaign does the full-size study).
    const core::CampaignRunner runner(attack::default_registry());
    core::CampaignConfig config;
    config.trials = 8;
    config.workers = static_cast<int>(state.range(0));
    config.keep_reports = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runner.run("seqpair/swap", config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * config.trials);
}
BENCHMARK(BM_CampaignSeqpair)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_Scenario(benchmark::State& state, const char* name) {
    const core::AttackEngine engine(attack::default_registry());
    core::ScenarioParams params;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(name, params));
    }
}
BENCHMARK_CAPTURE(BM_Scenario, seqpair_swap, "seqpair/swap")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Scenario, group_sortmerge, "group/sortmerge")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Scenario, tempaware_substitution, "tempaware/substitution")
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    // Default the JSON sidecar unless the caller picked an output file.
    std::vector<char*> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    }
    std::string out_flag = "--benchmark_out=BENCH_micro.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
    // Stamp the build type into the JSON context; a debug build additionally
    // gets a machine-readable warning and a loud stderr banner, so a
    // methodology slip (recording perf figures from -O0 binaries) is visible
    // in both the artifact and the log.
    benchmark::AddCustomContext("ropuf_build_type", benchutil::ropuf_build_type());
    benchmark::AddCustomContext("ropuf_sanitizer", ropuf::core::sanitizer_name());
    benchmark::AddCustomContext("ropuf_simd",
                                ropuf::simd::path_name(ropuf::simd::active_path()));
    if (benchutil::warn_if_debug_build("bench_micro")) {
        benchmark::AddCustomContext(
            "warning", "DEBUG BUILD - timings unreliable, rebuild with Release");
    }
    if (ropuf::core::sanitized_build()) {
        benchmark::AddCustomContext("warning_sanitizer",
                                    "SANITIZED BUILD - timings distorted, do not "
                                    "record as baselines");
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

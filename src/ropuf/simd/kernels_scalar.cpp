// Portable scalar kernel path + the stream-exact kernels shared by all paths.
//
// Compiled with -ffp-contract=off (CMake per-file flag) so the arithmetic
// here is the rounding reference for every other dispatch path.
#include <cmath>

#include "ropuf/simd/kernels_detail.hpp"
#include "ropuf/simd/zig_tables.hpp"

namespace ropuf::simd::detail {

void fill_gaussian_stream(rng::Xoshiro256pp& rng, double mean, double sd,
                          double* out, std::size_t n) {
    const ZigTable<128>& t = zig128();
    for (std::size_t i = 0; i < n; ++i) out[i] = mean + sd * zig_sample(t, rng);
}

void measure_scans_stream(const SoaView& soa, double dt, double dv, double mean,
                          double sd, int scans, rng::Xoshiro256pp& rng, double* out) {
    // Two passes, exactly like the historic noise-block-then-affine code: the
    // noise fill is bound by the serial generator chain, while the affine
    // sweep is branch-free and auto-vectorizes. Fusing them into one loop
    // measures ~17% slower on the CI host (the mixed FP chain spills the
    // generator state), and the per-term rounding is identical either way:
    // out = (mean + sd*z) + ((stat + tc*dt) + dv).
    const std::size_t total = soa.n * static_cast<std::size_t>(scans);
    fill_gaussian_stream(rng, mean, sd, out, total);
    const double* stat = soa.stat;
    const double* tc = soa.tempco;
    for (int s = 0; s < scans; ++s) {
        double* o = out + static_cast<std::size_t>(s) * soa.n;
        for (std::size_t i = 0; i < soa.n; ++i) {
            o[i] += (stat[i] + tc[i] * dt) + dv;
        }
    }
}

// The fleet kernels start on a cache line: where they land otherwise moves
// with unrelated code size, and that moves fleet throughput by a few percent.
[[gnu::aligned(64)]]
void fleet_device_scalar(rng::Xoshiro256pp& main_rng, rng::Xoshiro256pp& slow_rng,
                         const double* base, std::size_t n, int scans, double mean,
                         double sd, double* out) {
    const ZigTable<256>& t = zig256();
    // Keep the main-stream state in locals: exactly one next() per draw, so
    // the serial generator chain stays in registers across the loop.
    const auto st = main_rng.state();
    std::uint64_t s0 = st[0], s1 = st[1], s2 = st[2], s3 = st[3];
    const auto rotl = [](std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    };
    const std::size_t total = n * static_cast<std::size_t>(scans);
    std::size_t bi = 0;
    for (std::size_t i = 0; i < total; ++i) {
        const std::uint64_t word = rotl(s0 + s3, 23) + s0;
        const std::uint64_t tw = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= tw;
        s3 = rotl(s3, 45);
        const int layer = static_cast<int>(word & 255u);
        const double u = zig_signed_unit(word);
        double z;
        if (std::fabs(u) < t.ratio[layer]) {
            z = u * t.x[layer];
        } else {
            z = zig_slow_path(t, slow_rng, u, layer);
        }
        out[i] = (mean + sd * z) + base[bi];
        if (++bi == n) bi = 0;
    }
    main_rng = rng::Xoshiro256pp(std::array<std::uint64_t, 4>{s0, s1, s2, s3});
}

[[gnu::aligned(64)]]
void measure_fleet_scalar(const double* const* base, std::size_t devices,
                          std::size_t n, int scans, double mean, double sd,
                          FleetStreams& streams, double* const* out) {
    for (std::size_t d = 0; d < devices; ++d) {
        fleet_device_scalar(streams.main[d], streams.slow[d], base[d], n, scans,
                            mean, sd, out[d]);
    }
}

void compare_pairs_scalar(const double* values, const int* pairs,
                          std::size_t n_pairs, std::uint8_t* out) {
    for (std::size_t i = 0; i < n_pairs; ++i) {
        const int a = pairs[2 * i];
        const int b = pairs[2 * i + 1];
        out[i] = values[static_cast<std::size_t>(a)] > values[static_cast<std::size_t>(b)]
                     ? 1
                     : 0;
    }
}

void compare_pairs_packed_scalar(const double* values, const int* pairs,
                                 std::size_t n_pairs, std::uint64_t* out) {
    const std::size_t words = (n_pairs + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) out[w] = 0;
    for (std::size_t i = 0; i < n_pairs; ++i) {
        const int a = pairs[2 * i];
        const int b = pairs[2 * i + 1];
        const std::uint64_t bit =
            values[static_cast<std::size_t>(a)] > values[static_cast<std::size_t>(b)] ? 1u
                                                                                      : 0u;
        out[i / 64] |= bit << (i % 64);
    }
}

namespace {

void majority_vote_packed_scalar(const std::uint64_t* rows, std::size_t words,
                                 int n_rows, std::uint64_t* out) {
    majority_vote_packed_generic(rows, words, n_rows, out);
}

void bch_syndromes_scalar(const std::uint8_t* bytes, std::size_t n_bytes,
                          const BchHornerView& tables, int* out) {
    bch_syndromes_generic(bytes, n_bytes, tables, out);
}

const Kernels kScalarKernels = {
    &fill_gaussian_stream,
    &measure_scans_stream,
    &measure_fleet_scalar,
    &compare_pairs_scalar,
    &compare_pairs_packed_scalar,
    &majority_vote_packed_scalar,
    &bch_syndromes_scalar,
};

} // namespace

const Kernels* scalar_table() noexcept { return &kScalarKernels; }

} // namespace ropuf::simd::detail

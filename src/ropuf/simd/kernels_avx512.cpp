// AVX-512 kernel path (F/DQ/VL/BW; compiled with per-file -mavx512* flags and
// -ffp-contract=off — see CMakeLists).
//
// The fleet engine runs 8 device lanes in lockstep: every step advances all
// 8 main streams by one word (vector xoshiro), transforms words to ziggurat
// fast-path candidates (vector gathers into the shared 256-layer table), and
// commits (mean + sd*cand) + base through an in-register 8x8 transpose into
// device-major output. Slow draws (~1.4% with 256 layers) are recorded in a
// bitmap and resolved afterwards as scalar fixups from each device's private
// slow stream — out of the vector loop, because a branch in the hot loop
// costs more than the slow work itself (store-forward stalls + mispredicts
// measured 6x slower end to end).
//
// Bitwise identity with the scalar path is structural: one draw == one main
// word per device, slow resolutions consume only the device's slow stream in
// draw order, and all float arithmetic keeps the scalar path's operation
// order with no FMA contraction. The u64 -> f64 conversion uses
// _mm512_cvtepu64_pd, exact like the scalar cast.
#include "ropuf/simd/kernels_detail.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <vector>

#include "ropuf/simd/zig_tables.hpp"

namespace ropuf::simd::detail {
namespace {

constexpr std::size_t kBlockSteps = 256; // words buffered per fixup round

// The fleet kernels start on a cache line: where they land otherwise moves
// with unrelated code size, and that moves fleet throughput by a few percent.
[[gnu::aligned(64)]]
__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
void fleet_group8_avx512(const double* const* base, std::size_t first, std::size_t n,
                         int scans, double mean, double sd, FleetStreams& streams,
                         double* const* out) {
    const ZigTable<256>& zt = zig256();
    // Interleaved base tile: btile[i*8 + lane] = base[first+lane][i].
    std::vector<double> btile(n * 8);
    for (std::size_t l = 0; l < 8; ++l) {
        const double* b = base[first + l];
        for (std::size_t i = 0; i < n; ++i) btile[i * 8 + l] = b[i];
    }
    alignas(64) std::uint64_t words[kBlockSteps * 8];
    std::uint64_t slowmap[kBlockSteps * 8 / 64];

    __m512i s0, s1, s2, s3;
    {
        alignas(64) std::uint64_t st[4][8];
        for (std::size_t l = 0; l < 8; ++l) {
            const auto& s = streams.main[first + l].state();
            for (int k = 0; k < 4; ++k) st[k][l] = s[static_cast<std::size_t>(k)];
        }
        s0 = _mm512_load_si512(st[0]);
        s1 = _mm512_load_si512(st[1]);
        s2 = _mm512_load_si512(st[2]);
        s3 = _mm512_load_si512(st[3]);
    }

    const __m512d vscale = _mm512_set1_pd(0x1.0p-52);
    const __m512d vone = _mm512_set1_pd(1.0);
    const __m512d vabs = _mm512_castsi512_pd(_mm512_set1_epi64(0x7fffffffffffffffLL));
    const __m512i vlayermask = _mm512_set1_epi64(255);
    const __m512d vsd = _mm512_set1_pd(sd);
    const __m512d vmean = _mm512_set1_pd(mean);
    const __m512i r23 = _mm512_set1_epi64(23);
    const __m512i r45 = _mm512_set1_epi64(45);

    const std::size_t total = n * static_cast<std::size_t>(scans);
    std::size_t done = 0;
    std::size_t bi = 0; // rolling base row index == global step % n
    while (done < total) {
        const std::size_t steps = std::min(kBlockSteps, total - done);
        std::size_t map_at = 0;
        __m512d rows[8];
        // Full 8-step chunks, inner loop fully unrolled: rows[] then lives in
        // registers (a runtime-indexed rows[i & 7] round-trips through the
        // stack every step) and the map flush / transpose run branch-free
        // once per chunk.
        const std::size_t full = steps & ~std::size_t{7};
        for (std::size_t c = 0; c < full; c += 8) {
            std::uint64_t map = 0;
#pragma GCC unroll 8
            for (std::size_t j = 0; j < 8; ++j) {
                // vector xoshiro256++ step: 8 independent device streams
                const __m512i sum = _mm512_add_epi64(s0, s3);
                const __m512i word = _mm512_add_epi64(_mm512_rolv_epi64(sum, r23), s0);
                const __m512i tw = _mm512_slli_epi64(s1, 17);
                s2 = _mm512_xor_si512(s2, s0);
                s3 = _mm512_xor_si512(s3, s1);
                s1 = _mm512_xor_si512(s1, s2);
                s0 = _mm512_xor_si512(s0, s3);
                s2 = _mm512_xor_si512(s2, tw);
                s3 = _mm512_rolv_epi64(s3, r45);
                _mm512_store_si512(words + (c + j) * 8, word);
                // ziggurat fast path: u in (-1,1), candidate u*x[layer]
                const __m512i layer = _mm512_and_si512(word, vlayermask);
                const __m512d md = _mm512_cvtepu64_pd(_mm512_srli_epi64(word, 11));
                const __m512d u = _mm512_sub_pd(_mm512_mul_pd(md, vscale), vone);
                const __m512d xg = _mm512_i64gather_pd(layer, zt.x, 8);
                const __m512d rg = _mm512_i64gather_pd(layer, zt.ratio, 8);
                const __m512d cand = _mm512_mul_pd(u, xg);
                const __m512d absu = _mm512_and_pd(u, vabs);
                const __mmask8 slow = _mm512_cmp_pd_mask(absu, rg, _CMP_NLT_UQ);
                map |= static_cast<std::uint64_t>(slow) << (j * 8);
                // commit assuming fast; slow lanes get overwritten by fixups
                const __m512d basev = _mm512_loadu_pd(btile.data() + bi * 8);
                if (++bi == n) bi = 0;
                const __m512d noise = _mm512_add_pd(vmean, _mm512_mul_pd(vsd, cand));
                rows[j] = _mm512_add_pd(noise, basev);
            }
            slowmap[map_at++] = map;
            // 8x8 transpose: rows[s][lane] -> device-major runs of 8 steps
            const __m512d t0 = _mm512_unpacklo_pd(rows[0], rows[1]);
            const __m512d t1 = _mm512_unpackhi_pd(rows[0], rows[1]);
            const __m512d t2 = _mm512_unpacklo_pd(rows[2], rows[3]);
            const __m512d t3 = _mm512_unpackhi_pd(rows[2], rows[3]);
            const __m512d t4 = _mm512_unpacklo_pd(rows[4], rows[5]);
            const __m512d t5 = _mm512_unpackhi_pd(rows[4], rows[5]);
            const __m512d t6 = _mm512_unpacklo_pd(rows[6], rows[7]);
            const __m512d t7 = _mm512_unpackhi_pd(rows[6], rows[7]);
            const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
            const __m512d u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
            const __m512d u2 = _mm512_shuffle_f64x2(t0, t2, 0xdd);
            const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xdd);
            const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
            const __m512d u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
            const __m512d u6 = _mm512_shuffle_f64x2(t4, t6, 0xdd);
            const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xdd);
            const std::size_t at = done + c;
            _mm512_storeu_pd(out[first + 0] + at, _mm512_shuffle_f64x2(u0, u4, 0x88));
            _mm512_storeu_pd(out[first + 1] + at, _mm512_shuffle_f64x2(u1, u5, 0x88));
            _mm512_storeu_pd(out[first + 2] + at, _mm512_shuffle_f64x2(u2, u6, 0x88));
            _mm512_storeu_pd(out[first + 3] + at, _mm512_shuffle_f64x2(u3, u7, 0x88));
            _mm512_storeu_pd(out[first + 4] + at, _mm512_shuffle_f64x2(u0, u4, 0xdd));
            _mm512_storeu_pd(out[first + 5] + at, _mm512_shuffle_f64x2(u1, u5, 0xdd));
            _mm512_storeu_pd(out[first + 6] + at, _mm512_shuffle_f64x2(u2, u6, 0xdd));
            _mm512_storeu_pd(out[first + 7] + at, _mm512_shuffle_f64x2(u3, u7, 0xdd));
        }
        if (full < steps) {
            // trailing partial chunk (< 8 steps): per-step scalar spill
            std::uint64_t map = 0;
            alignas(64) double tmp[8];
            for (std::size_t i = full; i < steps; ++i) {
                const __m512i sum = _mm512_add_epi64(s0, s3);
                const __m512i word = _mm512_add_epi64(_mm512_rolv_epi64(sum, r23), s0);
                const __m512i tw = _mm512_slli_epi64(s1, 17);
                s2 = _mm512_xor_si512(s2, s0);
                s3 = _mm512_xor_si512(s3, s1);
                s1 = _mm512_xor_si512(s1, s2);
                s0 = _mm512_xor_si512(s0, s3);
                s2 = _mm512_xor_si512(s2, tw);
                s3 = _mm512_rolv_epi64(s3, r45);
                _mm512_store_si512(words + i * 8, word);
                const __m512i layer = _mm512_and_si512(word, vlayermask);
                const __m512d md = _mm512_cvtepu64_pd(_mm512_srli_epi64(word, 11));
                const __m512d u = _mm512_sub_pd(_mm512_mul_pd(md, vscale), vone);
                const __m512d xg = _mm512_i64gather_pd(layer, zt.x, 8);
                const __m512d rg = _mm512_i64gather_pd(layer, zt.ratio, 8);
                const __m512d cand = _mm512_mul_pd(u, xg);
                const __m512d absu = _mm512_and_pd(u, vabs);
                const __mmask8 slow = _mm512_cmp_pd_mask(absu, rg, _CMP_NLT_UQ);
                map |= static_cast<std::uint64_t>(slow) << ((i & 7) * 8);
                const __m512d basev = _mm512_loadu_pd(btile.data() + bi * 8);
                if (++bi == n) bi = 0;
                const __m512d noise = _mm512_add_pd(vmean, _mm512_mul_pd(vsd, cand));
                _mm512_store_pd(tmp, _mm512_add_pd(noise, basev));
                for (std::size_t l = 0; l < 8; ++l) out[first + l][done + i] = tmp[l];
            }
            slowmap[map_at++] = map;
        }
        fleet_fixups<8>(words, slowmap, steps, done, base, n, mean, sd, streams,
                        first, out);
        done += steps;
    }

    alignas(64) std::uint64_t st[4][8];
    _mm512_store_si512(st[0], s0);
    _mm512_store_si512(st[1], s1);
    _mm512_store_si512(st[2], s2);
    _mm512_store_si512(st[3], s3);
    for (std::size_t l = 0; l < 8; ++l) {
        streams.main[first + l] = rng::Xoshiro256pp(
            std::array<std::uint64_t, 4>{st[0][l], st[1][l], st[2][l], st[3][l]});
    }
}

[[gnu::aligned(64)]]
void measure_fleet_avx512(const double* const* base, std::size_t devices,
                          std::size_t n, int scans, double mean, double sd,
                          FleetStreams& streams, double* const* out) {
    if (n == 0 || scans <= 0) return;
    std::size_t d = 0;
    for (; d + 8 <= devices; d += 8) {
        fleet_group8_avx512(base, d, n, scans, mean, sd, streams, out);
    }
    for (; d < devices; ++d) {
        fleet_device_scalar(streams.main[d], streams.slow[d], base[d], n, scans,
                            mean, sd, out[d]);
    }
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
__mmask8 compare8_avx512(const double* values, const int* pairs, std::size_t i) {
    // pairs is interleaved a0 b0 a1 b1 ...; split one 16-int chunk into the
    // a-indices and b-indices and gather both sides.
    const __m512i chunk = _mm512_loadu_si512(pairs + 2 * i);
    const __m512i evens = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m512i odds = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i ia = _mm512_castsi512_si256(_mm512_permutexvar_epi32(evens, chunk));
    const __m256i ib = _mm512_castsi512_si256(_mm512_permutexvar_epi32(odds, chunk));
    const __m512d va = _mm512_i32gather_pd(ia, values, 8);
    const __m512d vb = _mm512_i32gather_pd(ib, values, 8);
    return _mm512_cmp_pd_mask(va, vb, _CMP_GT_OQ);
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
void compare_pairs_avx512(const double* values, const int* pairs,
                          std::size_t n_pairs, std::uint8_t* out) {
    std::size_t i = 0;
    for (; i + 8 <= n_pairs; i += 8) {
        const __mmask8 gt = compare8_avx512(values, pairs, i);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                         _mm_maskz_set1_epi8(gt, 1));
    }
    if (i < n_pairs) compare_pairs_scalar(values, pairs + 2 * i, n_pairs - i, out + i);
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
void compare_pairs_packed_avx512(const double* values, const int* pairs,
                                 std::size_t n_pairs, std::uint64_t* out) {
    const std::size_t words = (n_pairs + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) out[w] = 0;
    std::size_t i = 0;
    for (; i + 8 <= n_pairs; i += 8) {
        const std::uint64_t gt = compare8_avx512(values, pairs, i);
        out[i / 64] |= gt << (i % 64);
    }
    for (; i < n_pairs; ++i) {
        const int a = pairs[2 * i];
        const int b = pairs[2 * i + 1];
        const std::uint64_t bit =
            values[static_cast<std::size_t>(a)] > values[static_cast<std::size_t>(b)] ? 1u
                                                                                      : 0u;
        out[i / 64] |= bit << (i % 64);
    }
}

void majority_vote_packed_avx512(const std::uint64_t* rows, std::size_t words,
                                 int n_rows, std::uint64_t* out) {
    majority_vote_packed_generic(rows, words, n_rows, out);
}

void bch_syndromes_avx512(const std::uint8_t* bytes, std::size_t n_bytes,
                          const BchHornerView& tables, int* out) {
    bch_syndromes_generic(bytes, n_bytes, tables, out);
}

const Kernels kAvx512Kernels = {
    &fill_gaussian_stream,
    &measure_scans_stream,
    &measure_fleet_avx512,
    &compare_pairs_avx512,
    &compare_pairs_packed_avx512,
    &majority_vote_packed_avx512,
    &bch_syndromes_avx512,
};

} // namespace

const Kernels* avx512_table() noexcept { return &kAvx512Kernels; }

} // namespace ropuf::simd::detail

#else // !x86_64

namespace ropuf::simd::detail {
const Kernels* avx512_table() noexcept { return nullptr; }
} // namespace ropuf::simd::detail

#endif

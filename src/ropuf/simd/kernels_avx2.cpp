// AVX2 kernel path (compiled with per-file -mavx2 -ffp-contract=off).
//
// Same two-pass fleet engine as the AVX-512 path at W=4: lockstep vector
// xoshiro across 4 device lanes, branchless fast-path commit through a 4x4
// in-register transpose, slow draws deferred to scalar fixups from each
// device's slow stream (shared fleet_fixups<4>). The u64 -> f64 conversion
// uses the classic magic-number trick (AVX2 has no cvtepu64_pd): both the
// low-32 and high-21 halves are recovered exactly via 2^52-biased doubles,
// so the result is the exact integer value, identical to the scalar cast.
#include "ropuf/simd/kernels_detail.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <vector>

#include "ropuf/simd/zig_tables.hpp"

namespace ropuf::simd::detail {
namespace {

constexpr std::size_t kBlockSteps = 256; // divisible by 16 (map words) and 4

__attribute__((target("avx2")))
inline __m256i rotl64_avx2(__m256i x, int k) {
    return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

/// Exact u64 -> f64 for values < 2^53 (post word>>11 mantissas).
__attribute__((target("avx2")))
inline __m256d cvt53_pd_avx2(__m256i m) {
    const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256d two52 = _mm256_set1_pd(0x1.0p52);
    const __m256i hi = _mm256_srli_epi64(m, 32);
    // 64-bit element = [exp52 high half | value low half] -> 2^52 + value
    const __m256d dlo =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_blend_epi32(m, exp52, 0xaa)), two52);
    const __m256d dhi =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_blend_epi32(hi, exp52, 0xaa)), two52);
    return _mm256_add_pd(_mm256_mul_pd(dhi, _mm256_set1_pd(0x1.0p32)), dlo);
}

// The fleet kernels start on a cache line: where they land otherwise moves
// with unrelated code size, and that moves fleet throughput by a few percent.
[[gnu::aligned(64)]]
__attribute__((target("avx2")))
void fleet_group4_avx2(const double* const* base, std::size_t first, std::size_t n,
                       int scans, double mean, double sd, FleetStreams& streams,
                       double* const* out) {
    const ZigTable<256>& zt = zig256();
    std::vector<double> btile(n * 4); // btile[i*4 + lane] = base[first+lane][i]
    for (std::size_t l = 0; l < 4; ++l) {
        const double* b = base[first + l];
        for (std::size_t i = 0; i < n; ++i) btile[i * 4 + l] = b[i];
    }
    alignas(32) std::uint64_t words[kBlockSteps * 4];
    std::uint64_t slowmap[kBlockSteps * 4 / 64];

    __m256i s0, s1, s2, s3;
    {
        alignas(32) std::uint64_t st[4][4];
        for (std::size_t l = 0; l < 4; ++l) {
            const auto& s = streams.main[first + l].state();
            for (int k = 0; k < 4; ++k) st[k][l] = s[static_cast<std::size_t>(k)];
        }
        s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st[0]));
        s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st[1]));
        s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st[2]));
        s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st[3]));
    }

    const __m256d vscale = _mm256_set1_pd(0x1.0p-52);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d vabs = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256i vlayermask = _mm256_set1_epi64x(255);
    const __m256d vsd = _mm256_set1_pd(sd);
    const __m256d vmean = _mm256_set1_pd(mean);

    const std::size_t total = n * static_cast<std::size_t>(scans);
    std::size_t done = 0;
    std::size_t bi = 0; // rolling base row index == global step % n
    while (done < total) {
        const std::size_t steps = std::min(kBlockSteps, total - done);
        std::uint64_t map = 0;
        std::size_t map_at = 0;
        __m256d rows[4];
        for (std::size_t i = 0; i < steps; ++i) {
            const __m256i sum = _mm256_add_epi64(s0, s3);
            const __m256i word = _mm256_add_epi64(rotl64_avx2(sum, 23), s0);
            const __m256i tw = _mm256_slli_epi64(s1, 17);
            s2 = _mm256_xor_si256(s2, s0);
            s3 = _mm256_xor_si256(s3, s1);
            s1 = _mm256_xor_si256(s1, s2);
            s0 = _mm256_xor_si256(s0, s3);
            s2 = _mm256_xor_si256(s2, tw);
            s3 = rotl64_avx2(s3, 45);
            _mm256_store_si256(reinterpret_cast<__m256i*>(words + i * 4), word);
            const __m256i layer = _mm256_and_si256(word, vlayermask);
            const __m256d md = cvt53_pd_avx2(_mm256_srli_epi64(word, 11));
            const __m256d u = _mm256_sub_pd(_mm256_mul_pd(md, vscale), vone);
            const __m256d xg = _mm256_i64gather_pd(zt.x, layer, 8);
            const __m256d rg = _mm256_i64gather_pd(zt.ratio, layer, 8);
            const __m256d cand = _mm256_mul_pd(u, xg);
            const __m256d absu = _mm256_and_pd(u, vabs);
            const int slow =
                _mm256_movemask_pd(_mm256_cmp_pd(absu, rg, _CMP_NLT_UQ));
            map |= static_cast<std::uint64_t>(slow) << ((i & 15) * 4);
            if ((i & 15) == 15) {
                slowmap[map_at++] = map;
                map = 0;
            }
            const __m256d basev = _mm256_loadu_pd(btile.data() + bi * 4);
            if (++bi == n) bi = 0;
            const __m256d noise = _mm256_add_pd(vmean, _mm256_mul_pd(vsd, cand));
            rows[i & 3] = _mm256_add_pd(noise, basev);
            if ((i & 3) == 3) {
                // 4x4 transpose: rows[s][lane] -> device-major runs of 4 steps
                const __m256d t0 = _mm256_unpacklo_pd(rows[0], rows[1]);
                const __m256d t1 = _mm256_unpackhi_pd(rows[0], rows[1]);
                const __m256d t2 = _mm256_unpacklo_pd(rows[2], rows[3]);
                const __m256d t3 = _mm256_unpackhi_pd(rows[2], rows[3]);
                const std::size_t at = done + (i & ~std::size_t{3});
                _mm256_storeu_pd(out[first + 0] + at, _mm256_permute2f128_pd(t0, t2, 0x20));
                _mm256_storeu_pd(out[first + 1] + at, _mm256_permute2f128_pd(t1, t3, 0x20));
                _mm256_storeu_pd(out[first + 2] + at, _mm256_permute2f128_pd(t0, t2, 0x31));
                _mm256_storeu_pd(out[first + 3] + at, _mm256_permute2f128_pd(t1, t3, 0x31));
            }
        }
        if ((steps & 15) != 0) slowmap[map_at++] = map;
        if ((steps & 3) != 0) {
            alignas(32) double tmp[4];
            const std::size_t chunk_start = steps & ~std::size_t{3};
            for (std::size_t i = chunk_start; i < steps; ++i) {
                _mm256_store_pd(tmp, rows[i & 3]);
                for (std::size_t l = 0; l < 4; ++l) out[first + l][done + i] = tmp[l];
            }
        }
        fleet_fixups<4>(words, slowmap, steps, done, base, n, mean, sd, streams,
                        first, out);
        done += steps;
    }

    alignas(32) std::uint64_t st[4][4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(st[0]), s0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(st[1]), s1);
    _mm256_store_si256(reinterpret_cast<__m256i*>(st[2]), s2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(st[3]), s3);
    for (std::size_t l = 0; l < 4; ++l) {
        streams.main[first + l] = rng::Xoshiro256pp(
            std::array<std::uint64_t, 4>{st[0][l], st[1][l], st[2][l], st[3][l]});
    }
}

[[gnu::aligned(64)]]
void measure_fleet_avx2(const double* const* base, std::size_t devices,
                        std::size_t n, int scans, double mean, double sd,
                        FleetStreams& streams, double* const* out) {
    if (n == 0 || scans <= 0) return;
    std::size_t d = 0;
    for (; d + 4 <= devices; d += 4) {
        fleet_group4_avx2(base, d, n, scans, mean, sd, streams, out);
    }
    for (; d < devices; ++d) {
        fleet_device_scalar(streams.main[d], streams.slow[d], base[d], n, scans,
                            mean, sd, out[d]);
    }
}

__attribute__((target("avx2")))
inline int compare4_avx2(const double* values, const int* pairs, std::size_t i) {
    // pairs is interleaved a0 b0 a1 b1 ...; deinterleave one 8-int chunk.
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs + 2 * i));
    const __m256i evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    const __m256i odds = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
    const __m128i ia = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(chunk, evens));
    const __m128i ib = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(chunk, odds));
    const __m256d va = _mm256_i32gather_pd(values, ia, 8);
    const __m256d vb = _mm256_i32gather_pd(values, ib, 8);
    return _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_GT_OQ));
}

__attribute__((target("avx2")))
void compare_pairs_avx2(const double* values, const int* pairs,
                        std::size_t n_pairs, std::uint8_t* out) {
    std::size_t i = 0;
    for (; i + 4 <= n_pairs; i += 4) {
        const int gt = compare4_avx2(values, pairs, i);
        out[i + 0] = static_cast<std::uint8_t>(gt & 1);
        out[i + 1] = static_cast<std::uint8_t>((gt >> 1) & 1);
        out[i + 2] = static_cast<std::uint8_t>((gt >> 2) & 1);
        out[i + 3] = static_cast<std::uint8_t>((gt >> 3) & 1);
    }
    if (i < n_pairs) compare_pairs_scalar(values, pairs + 2 * i, n_pairs - i, out + i);
}

__attribute__((target("avx2")))
void compare_pairs_packed_avx2(const double* values, const int* pairs,
                               std::size_t n_pairs, std::uint64_t* out) {
    const std::size_t words = (n_pairs + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) out[w] = 0;
    std::size_t i = 0;
    for (; i + 4 <= n_pairs; i += 4) {
        const std::uint64_t gt = static_cast<std::uint64_t>(compare4_avx2(values, pairs, i));
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

void majority_vote_packed_avx2(const std::uint64_t* rows, std::size_t words,
                               int n_rows, std::uint64_t* out) {
    majority_vote_packed_generic(rows, words, n_rows, out);
}

void bch_syndromes_avx2(const std::uint8_t* bytes, std::size_t n_bytes,
                        const BchHornerView& tables, int* out) {
    bch_syndromes_generic(bytes, n_bytes, tables, out);
}

const Kernels kAvx2Kernels = {
    &fill_gaussian_stream,
    &measure_scans_stream,
    &measure_fleet_avx2,
    &compare_pairs_avx2,
    &compare_pairs_packed_avx2,
    &majority_vote_packed_avx2,
    &bch_syndromes_avx2,
};

} // namespace

const Kernels* avx2_table() noexcept { return &kAvx2Kernels; }

} // namespace ropuf::simd::detail

#else // !x86_64

namespace ropuf::simd::detail {
const Kernels* avx2_table() noexcept { return nullptr; }
} // namespace ropuf::simd::detail

#endif

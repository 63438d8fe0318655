#include "ropuf/ecc/bch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <set>
#include <stdexcept>

#include "ropuf/obs/metrics.hpp"

namespace ropuf::ecc {

namespace {

// Gf2m caps m at 14, so n < 2^14: a packed word fits 256 u64s (2 KiB).
// Scratch arrays of that size are left uninitialized: each function writes
// every element it reads first, and zeroing 2 KiB per call would cost a
// tenth or more of a decode.
constexpr std::size_t kMaxWords = 256;

/// Multiplies two GF(2) polynomials (index i = coeff of x^i).
std::vector<std::uint8_t> gf2_poly_mul(const std::vector<std::uint8_t>& a,
                                       const std::vector<std::uint8_t>& b) {
    std::vector<std::uint8_t> out(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!a[i]) continue;
        for (std::size_t j = 0; j < b.size(); ++j) {
            out[i + j] ^= b[j];
        }
    }
    return out;
}

} // namespace

BchCode::BchCode(int m, int t) : field_(m), n_(field_.n()), t_(t) {
    if (t < 1) throw std::invalid_argument("BchCode requires t >= 1");

    // Generator = LCM of the minimal polynomials of alpha^1 .. alpha^{2t}.
    // Conjugacy: the minimal polynomial of alpha^i also covers alpha^{2i mod n}.
    std::set<int> covered;
    std::vector<std::uint8_t> gen{1};
    for (int i = 1; i <= 2 * t_; ++i) {
        if (covered.contains(i % n_)) continue;
        // Cyclotomic coset of i.
        std::vector<int> coset;
        int c = i % n_;
        do {
            coset.push_back(c);
            covered.insert(c);
            c = (2 * c) % n_;
        } while (c != i % n_);
        // Minimal polynomial = prod over the coset of (x + alpha^c), computed
        // with GF(2^m) coefficients; the result has GF(2) coefficients.
        std::vector<int> min_poly{1};
        for (int e : coset) {
            const int root = field_.alpha_pow(e);
            std::vector<int> next(min_poly.size() + 1, 0);
            for (std::size_t d = 0; d < min_poly.size(); ++d) {
                next[d + 1] ^= min_poly[d];                   // x * term
                next[d] ^= field_.mul(min_poly[d], root);     // root * term
            }
            min_poly = std::move(next);
        }
        std::vector<std::uint8_t> min_poly2(min_poly.size());
        for (std::size_t d = 0; d < min_poly.size(); ++d) {
            assert(min_poly[d] == 0 || min_poly[d] == 1);
            min_poly2[d] = static_cast<std::uint8_t>(min_poly[d]);
        }
        gen = gf2_poly_mul(gen, min_poly2);
    }
    generator_ = std::move(gen);
    const int deg = static_cast<int>(generator_.size()) - 1;
    k_ = n_ - deg;
    if (k_ < 1) {
        throw std::invalid_argument("BCH(m,t): generator degree leaves no message bits");
    }
    build_parity_table();
    build_horner_tables();
}

void BchCode::build_parity_table() {
    // Row v = v(x) * x^p mod g(x), held left-aligned (coefficient of x^(p-1)
    // first). Row 1 is x^p mod g(x) = the low terms of g; each further power
    // of two is one clock of r <- r*x mod g(x) — a word-wise shift left that
    // feeds back the low terms when x^p pops out — and, by linearity, every
    // other row is the XOR of its lowest set bit's row and the rest.
    const int p = parity_bits();
    const std::size_t pw = bits::word_count(static_cast<std::size_t>(p));
    parity_tbl_.assign(256 * pw, 0);
    const auto row = [&](std::size_t v) { return parity_tbl_.data() + v * pw; };
    for (int d = 0; d < p; ++d) {
        if (generator_[static_cast<std::size_t>(d)]) {
            bits::set_bit(std::span(row(1), pw), static_cast<std::size_t>(p - 1 - d));
        }
    }
    for (std::size_t v = 2; v < 256; v <<= 1) {
        const std::uint64_t* const half = row(v / 2);
        std::uint64_t* const r = row(v);
        for (std::size_t w = 0; w + 1 < pw; ++w) r[w] = (half[w] << 1) | (half[w + 1] >> 63);
        r[pw - 1] = half[pw - 1] << 1;
        if (half[0] >> 63) {
            for (std::size_t w = 0; w < pw; ++w) r[w] ^= row(1)[w];
        }
    }
    for (std::size_t v = 3; v < 256; ++v) {
        const std::size_t low = v & (~v + 1);
        if (low == v) continue;
        for (std::size_t w = 0; w < pw; ++w) row(v)[w] = row(low)[w] ^ row(v ^ low)[w];
    }
}

void BchCode::build_horner_tables() {
    // S_j = r(alpha^j) with bit i the coefficient of x^(n-1-i). The kernel
    // evaluates the zero-padded byte sequence (length 8B >= n) by Horner:
    //     acc <- acc * alpha^{8j} ^ T_j[byte]
    // where T_j[byte] = sum over set bits k (MSB-first) of alpha^{j*(7-k)}.
    // Padding with `pad` trailing zeros multiplies every true term by
    // alpha^{j*pad}, so one final multiply by alpha^{-j*pad} restores S_j.
    const int n_synd = 2 * t_;
    const int n_bytes = (n_ + 7) / 8;
    const int pad = n_bytes * 8 - n_;

    horner_byte_tbl_.assign(static_cast<std::size_t>(n_synd) * 256, 0);
    horner_step_log_.resize(static_cast<std::size_t>(n_synd));
    horner_fixup_log_.resize(static_cast<std::size_t>(n_synd));
    for (int j = 1; j <= n_synd; ++j) {
        std::uint16_t* row = horner_byte_tbl_.data() + static_cast<std::size_t>(j - 1) * 256;
        int bit_val[8]; // alpha^{j*(7-k)} for MSB-first bit position k
        for (int k = 0; k < 8; ++k) bit_val[k] = field_.alpha_pow(j * (7 - k));
        for (int byte = 0; byte < 256; ++byte) {
            int acc = 0;
            for (int k = 0; k < 8; ++k) {
                if (byte & (1 << (7 - k))) acc ^= bit_val[k];
            }
            row[byte] = static_cast<std::uint16_t>(acc);
        }
        horner_step_log_[static_cast<std::size_t>(j - 1)] =
            static_cast<std::uint16_t>((8 * j) % n_);
        const int back = static_cast<int>((static_cast<long long>(j) * pad) % n_);
        horner_fixup_log_[static_cast<std::size_t>(j - 1)] =
            static_cast<std::uint16_t>((n_ - back) % n_);
    }

    // Direct per-step multiplication tables when the field is small enough
    // (m <= 12 keeps a 2t x 2^m uint16 block within a few hundred KB); the
    // kernel falls back to log/exp stepping otherwise.
    if (field_.size() <= 4096) {
        horner_mul_tbl_.assign(
            static_cast<std::size_t>(n_synd) * static_cast<std::size_t>(field_.size()), 0);
        for (int j = 1; j <= n_synd; ++j) {
            const int step = field_.alpha_pow(8 * j);
            std::uint16_t* row = horner_mul_tbl_.data() +
                                 static_cast<std::size_t>(j - 1) *
                                     static_cast<std::size_t>(field_.size());
            for (int v = 0; v < field_.size(); ++v) {
                row[v] = static_cast<std::uint16_t>(field_.mul(v, step));
            }
        }
    }
}

simd::BchHornerView BchCode::horner_view() const {
    simd::BchHornerView v;
    v.byte_tbl = horner_byte_tbl_.data();
    v.mul_tbl = horner_mul_tbl_.empty() ? nullptr : horner_mul_tbl_.data();
    v.step_log = horner_step_log_.data();
    v.fixup_log = horner_fixup_log_.data();
    v.log_tbl = field_.log_table().data();
    v.exp_tbl = field_.exp_table().data();
    v.field_n = field_.n();
    v.field_size = field_.size();
    v.n_synd = 2 * t_;
    return v;
}

bits::BitVec BchCode::encode(const bits::BitVec& message) const {
    return bits::concat(message, parity(message));
}

bits::BitVec BchCode::parity(const bits::BitVec& message) const {
    assert(static_cast<int>(message.size()) == k_);
    std::array<std::uint64_t, kMaxWords> msg;
    std::array<std::uint64_t, kMaxWords> par;
    bits::pack_words(message, std::span(msg.data(), bits::word_count(message.size())));
    parity_words(msg, par);
    return bits::unpack_words(par, static_cast<std::size_t>(parity_bits()));
}

void BchCode::parity_words(std::span<const std::uint64_t> message,
                           std::span<std::uint64_t> parity) const {
    // Systematic encoding: remainder of m(x) * x^p divided by g(x), p = n-k,
    // one message byte per step as in a table-driven CRC. With the remainder
    // r held left-aligned, a byte B gives r <- (r << 8) ^ T[top byte of r ^ B]
    // (T[v] = v(x) * x^p mod g(x)). The message is zero-extended at the front
    // to whole bytes, which leaves r unchanged; for p < 8 the top byte of r is
    // r followed by zeros and r << 8 is zero, so the same step holds.
    const std::size_t pw = bits::word_count(static_cast<std::size_t>(parity_bits()));
    assert(message.size() >= bits::word_count(static_cast<std::size_t>(k_)));
    assert(parity.size() >= pw);
    const int pad = (8 - k_ % 8) % 8;
    const auto for_each_byte = [&](auto&& step) {
        int bytes_left = (k_ + pad) / 8;
        for (std::size_t c = 0; bytes_left > 0; ++c) {
            // Padded bits [64c, 64c + 64) are message bits [64c - pad, 64c + 64 - pad).
            std::uint64_t chunk = message[c] >> pad;
            if (pad != 0 && c > 0) chunk |= message[c - 1] << (64 - pad);
            const int nb = std::min(bytes_left, 8);
            bytes_left -= nb;
            for (int j = 0; j < nb; ++j, chunk <<= 8) step(chunk >> 56);
        }
    };
    if (pw == 1) {
        // p <= 64: the whole remainder stays in one register.
        std::uint64_t r = 0;
        for_each_byte([&](std::uint64_t byte) { r = (r << 8) ^ parity_tbl_[(r >> 56) ^ byte]; });
        parity[0] = r;
        return;
    }
    std::uint64_t* const r = parity.data();
    std::fill_n(r, pw, std::uint64_t{0});
    for_each_byte([&](std::uint64_t byte) {
        const std::size_t idx = (r[0] >> 56) ^ byte;
        for (std::size_t w = 0; w + 1 < pw; ++w) r[w] = (r[w] << 8) | (r[w + 1] >> 56);
        r[pw - 1] <<= 8;
        const std::uint64_t* const row = parity_tbl_.data() + idx * pw;
        for (std::size_t w = 0; w < pw; ++w) r[w] ^= row[w];
    });
}

bool BchCode::syndromes(std::span<const std::uint64_t> word, int* s) const {
    // Byte-wise table-driven Horner through the simd kernel layer: 8 bits per
    // GF(2^m) step instead of one table lookup per set bit. The kernel reads
    // MSB-first bytes, which on a little-endian host are each packed word
    // byte-reversed; the pad bits of the final byte are the word's zero tail.
    const std::size_t nw = bits::word_count(static_cast<std::size_t>(n_));
    assert(word.size() >= nw);
    std::array<std::uint8_t, 8 * kMaxWords> bytes;
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t be = word[w];
        if constexpr (std::endian::native == std::endian::little) be = __builtin_bswap64(be);
        std::memcpy(bytes.data() + 8 * w, &be, sizeof be);
    }
    ROPUF_OBS_COUNT("simd.calls.bch_syndromes", 1);
    simd::kernels().bch_syndromes(bytes.data(), (static_cast<std::size_t>(n_) + 7) / 8,
                                  horner_view(), s);
    bool any = false;
    for (int j = 0; j < 2 * t_; ++j) any |= (s[j] != 0);
    return any;
}

BchCode::DecodeResult BchCode::decode(const bits::BitVec& received) const {
    assert(static_cast<int>(received.size()) == n_);
    const std::size_t nw = bits::word_count(received.size());
    std::array<std::uint64_t, kMaxWords> word;
    std::array<std::uint64_t, kMaxWords> before;
    bits::pack_words(received, std::span(word.data(), nw));
    std::copy_n(word.begin(), nw, before.begin());
    const auto r = decode_in_place(std::span(word.data(), nw));
    DecodeResult out{r.ok, received, r.corrected};
    // Apply exactly the decoder's flips to the caller's elements.
    for (std::size_t w = 0; w < nw; ++w) {
        for (std::uint64_t diff = word[w] ^ before[w]; diff != 0;) {
            const int bit = std::countl_zero(diff);
            out.codeword[w * 64 + static_cast<std::size_t>(bit)] ^= 1u;
            diff &= ~(std::uint64_t{1} << (63 - bit));
        }
    }
    return out;
}

BchCode::WordDecode BchCode::decode_in_place(std::span<std::uint64_t> word) const {
    // Fixed-capacity scratch for the whole decode: the 2t syndromes, three
    // polynomial buffers of capacity 2t+1 (no Berlekamp–Massey iterate
    // exceeds degree 2t) and the at most t flipped positions, all zeroed.
    // Small t stays on the stack.
    const int ns = 2 * t_;
    const int cap = ns + 1;
    const std::size_t need = static_cast<std::size_t>(ns + 3 * cap + t_);
    std::array<int, 256> stack_buf;
    std::vector<int> heap_buf;
    if (need > stack_buf.size()) heap_buf.resize(need);
    int* const s = heap_buf.empty() ? stack_buf.data() : heap_buf.data();
    std::fill_n(s, need, 0);
    if (!syndromes(word, s)) return {true, 0};

    // Berlekamp–Massey: find the error-locator polynomial sigma(x) with
    // sigma(0) = 1 whose feedback taps annihilate the syndrome sequence.
    // sigma is updated in place and kept zero beyond sigma_len; prev and
    // spare swap roles at each length change.
    int* const sigma = s + ns;    // current locator, coeff i of x^i
    int* prev = sigma + cap;      // locator before the last length change
    int* spare = prev + cap;
    sigma[0] = 1;
    prev[0] = 1;
    int sigma_len = 1;
    int prev_len = 1;
    int l = 0;                     // current LFSR length
    int shift = 1;                 // steps since the last length change
    int prev_discrepancy = 1;      // discrepancy at the last length change
    for (int r = 0; r < ns; ++r) {
        // Discrepancy d = S_r + sum_i sigma_i * S_{r-i}.
        int d = s[r];
        for (int i = 1; i <= l && i <= r; ++i) d ^= field_.mul(sigma[i], s[r - i]);
        if (d == 0) {
            ++shift;
            continue;
        }
        // sigma' = sigma - (d/prev_d) * x^shift * prev
        const bool length_change = 2 * l <= r;
        if (length_change) std::copy_n(sigma, sigma_len, spare);
        const int scale = field_.div(d, prev_discrepancy);
        for (int i = 0; i < prev_len; ++i) sigma[i + shift] ^= field_.mul(scale, prev[i]);
        const int old_len = sigma_len;
        sigma_len = std::max(sigma_len, prev_len + shift);
        assert(sigma_len <= cap);
        if (length_change) {
            std::swap(prev, spare);
            prev_len = old_len;
            prev_discrepancy = d;
            l = r + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
    }
    // Trim trailing zeros to get the true degree.
    while (sigma_len > 1 && sigma[sigma_len - 1] == 0) --sigma_len;
    const int degree = sigma_len - 1;
    if (degree > t_ || degree != l) return {false, 0};

    // Chien search: roots alpha^(-e) of sigma locate errors at x^e. Term i
    // of sigma(alpha^(-e)) is alpha^(log sigma_i - i*e), so each nonzero
    // term's log steps by -i per position. A degree-d locator has at most d
    // roots, so the search stops at the d-th.
    int* const term_log = prev;
    int* const term_step = spare;
    int terms = 0;
    for (int i = 1; i <= degree; ++i) {
        if (sigma[i] == 0) continue;
        term_log[terms] = field_.log(sigma[i]);
        term_step[terms] = i;
        ++terms;
    }
    const int* const exp = field_.exp_table().data();
    int* const flipped = sigma + 3 * cap; // past the three polynomial buffers
    int found = 0;
    const auto flip = [&](int bit_index) {
        word[static_cast<std::size_t>(bit_index) / 64] ^= std::uint64_t{1}
                                                          << (63 - bit_index % 64);
    };
    for (int e = 0; e < n_ && found < degree; ++e) {
        int value = sigma[0];
        for (int j = 0; j < terms; ++j) {
            value ^= exp[term_log[j]];
            term_log[j] -= term_step[j];
            if (term_log[j] < 0) term_log[j] += n_;
        }
        if (value == 0) {
            const int bit_index = n_ - 1 - e;
            flip(bit_index);
            flipped[found++] = bit_index;
        }
    }
    // A valid correction must find every root and restore a codeword. By
    // linearity, flipping the coefficient of x^e adds alpha^(j*e) to S_j, so
    // the corrected word's syndromes are the received ones plus those terms.
    bool restored = found == degree;
    for (int j = 1; restored && j <= ns; ++j) {
        int value = s[j - 1];
        for (int i = 0; i < found; ++i) value ^= exp[(j * (n_ - 1 - flipped[i])) % n_];
        restored = value == 0;
    }
    if (!restored) {
        for (int i = 0; i < found; ++i) flip(flipped[i]); // back to what was received
        return {false, 0};
    }
    return {true, found};
}

bits::BitVec BchCode::message_of(const bits::BitVec& codeword) const {
    assert(static_cast<int>(codeword.size()) == n_);
    return bits::slice(codeword, 0, static_cast<std::size_t>(k_));
}

bool BchCode::is_codeword(const bits::BitVec& word) const {
    assert(static_cast<int>(word.size()) == n_);
    std::array<std::uint64_t, kMaxWords> packed;
    const std::span<std::uint64_t> w(packed.data(), bits::word_count(word.size()));
    bits::pack_words(word, w);
    std::vector<int> s(static_cast<std::size_t>(2 * t_));
    return !syndromes(w, s.data());
}

} // namespace ropuf::ecc

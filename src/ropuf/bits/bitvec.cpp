#include "ropuf/bits/bitvec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ropuf::bits {

BitVec xor_bits(const BitVec& a, const BitVec& b) {
    assert(a.size() == b.size());
    BitVec out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
    return out;
}

void xor_into(BitVec& a, const BitVec& b) {
    assert(a.size() == b.size());
    for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

namespace {

/// Elements [i, i + 8) of `v` as one word, element i + j in byte j.
std::uint64_t load8(std::span<const std::uint8_t> v, std::size_t i) {
    std::uint64_t x;
    std::memcpy(&x, v.data() + i, sizeof x);
    if constexpr (std::endian::native == std::endian::big) x = __builtin_bswap64(x);
    return x;
}

} // namespace

bool is_binary(const BitVec& v) {
    std::size_t i = 0;
    for (; i + 8 <= v.size(); i += 8) {
        if ((load8(v, i) & 0xfefefefefefefefe) != 0) return false;
    }
    return std::all_of(v.begin() + static_cast<std::ptrdiff_t>(i), v.end(),
                       [](std::uint8_t b) { return b <= 1; });
}

int weight(const BitVec& v) {
    int w = 0;
    for (auto b : v) w += b;
    return w;
}

int hamming(const BitVec& a, const BitVec& b) {
    assert(a.size() == b.size());
    int d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i];
    return d;
}

void flip(BitVec& v, std::size_t pos) {
    assert(pos < v.size());
    v[pos] ^= 1u;
}

std::vector<std::size_t> flip_random(BitVec& v, int count, rng::Xoshiro256pp& rng) {
    assert(count >= 0 && static_cast<std::size_t>(count) <= v.size());
    // Partial Fisher-Yates over an index vector: picks `count` distinct slots.
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::vector<std::size_t> chosen;
    chosen.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_u64(static_cast<std::uint64_t>(k), idx.size() - 1));
        std::swap(idx[static_cast<std::size_t>(k)], idx[j]);
        const std::size_t pos = idx[static_cast<std::size_t>(k)];
        v[pos] ^= 1u;
        chosen.push_back(pos);
    }
    return chosen;
}

BitVec random_bits(std::size_t n, rng::Xoshiro256pp& rng) {
    BitVec v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next() & 1u);
    return v;
}

BitVec zeros(std::size_t n) { return BitVec(n, 0); }

BitVec ones(std::size_t n) { return BitVec(n, 1); }

BitVec complement(const BitVec& v) {
    BitVec out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] ^ 1u;
    return out;
}

BitVec concat(const BitVec& a, const BitVec& b) {
    BitVec out;
    out.reserve(a.size() + b.size());
    out.insert(out.end(), a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

BitVec slice(const BitVec& v, std::size_t begin, std::size_t len) {
    assert(begin + len <= v.size());
    return BitVec(v.begin() + static_cast<std::ptrdiff_t>(begin),
                  v.begin() + static_cast<std::ptrdiff_t>(begin + len));
}

std::vector<std::uint8_t> pack_bytes(const BitVec& v) {
    std::vector<std::uint8_t> bytes((v.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i]) bytes[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
    return bytes;
}

BitVec unpack_bytes(std::span<const std::uint8_t> bytes, std::size_t nbits) {
    assert(nbits <= bytes.size() * 8);
    BitVec v(nbits);
    for (std::size_t i = 0; i < nbits; ++i) {
        v[i] = (bytes[i / 8] >> (7 - i % 8)) & 1u;
    }
    return v;
}

void pack_words(std::span<const std::uint8_t> v, std::span<std::uint64_t> out) {
    assert(out.size() >= word_count(v.size()));
    // Eight elements at a time, a word's eight groups gathered in a register.
    // A group's nonzero flags land in the low bit of each byte, and one
    // multiply gathers the eight flags MSB-first into the top byte (flag j
    // goes to bit 63 - j; no two partial products overlap, so nothing
    // carries). The last group is zero-padded.
    const auto gather = [&](std::size_t i) {
        std::uint64_t x = 0;
        if (i + 8 <= v.size()) {
            x = load8(v, i);
        } else {
            for (std::size_t j = 0; i + j < v.size(); ++j) x |= std::uint64_t{v[i + j]} << (8 * j);
        }
        constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7f;
        const std::uint64_t flags = ((((x & kLow7) + kLow7) | x) & ~kLow7) >> 7;
        return (flags * 0x8040201008040201) >> 56;
    };
    std::size_t w = 0;
    for (std::size_t i = 0; i < v.size(); ++w) {
        std::uint64_t acc = 0;
        unsigned filled = 0;
        for (; filled < 64 && i < v.size(); filled += 8, i += 8) acc = (acc << 8) | gather(i);
        out[w] = acc << (64 - filled);
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(w), out.end(), std::uint64_t{0});
}

BitVec unpack_words(std::span<const std::uint64_t> words, std::size_t nbits) {
    assert(nbits <= words.size() * 64);
    BitVec v(nbits);
    for (std::size_t i = 0; i < nbits; ++i) v[i] = test_bit(words, i) ? 1 : 0;
    return v;
}

namespace {

/// The 64 bits of `src` starting at bit `from`, MSB-aligned (zeros past the end).
std::uint64_t load64(std::span<const std::uint64_t> src, std::size_t from) {
    const std::size_t w = from / 64;
    const unsigned s = static_cast<unsigned>(from % 64);
    std::uint64_t out = src[w] << s;
    if (s != 0 && w + 1 < src.size()) out |= src[w + 1] >> (64 - s);
    return out;
}

} // namespace

void copy_bits(std::span<const std::uint64_t> src, std::size_t from,
               std::span<std::uint64_t> dst, std::size_t to, std::size_t len) {
    assert(from + len <= src.size() * 64 && to + len <= dst.size() * 64);
    while (len > 0) {
        // As many bits as fit in the current destination word.
        const unsigned s = static_cast<unsigned>(to % 64);
        const std::size_t n = std::min<std::size_t>(len, 64 - s);
        const std::uint64_t top = n == 64 ? ~std::uint64_t{0} : ~(~std::uint64_t{0} >> n);
        std::uint64_t& word = dst[to / 64];
        word = (word & ~(top >> s)) | ((load64(src, from) & top) >> s);
        from += n;
        to += n;
        len -= n;
    }
}

std::string to_string(const BitVec& v) {
    std::string s(v.size(), '0');
    for (std::size_t i = 0; i < v.size(); ++i) s[i] = v[i] ? '1' : '0';
    return s;
}

BitVec from_string(std::string_view s) {
    BitVec v(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '0') {
            v[i] = 0;
        } else if (s[i] == '1') {
            v[i] = 1;
        } else {
            throw std::invalid_argument("BitVec string must contain only '0'/'1'");
        }
    }
    return v;
}

std::uint64_t to_u64(const BitVec& v) {
    assert(v.size() <= 64);
    std::uint64_t x = 0;
    for (auto b : v) x = (x << 1) | b;
    return x;
}

BitVec from_u64(std::uint64_t value, std::size_t nbits) {
    assert(nbits <= 64);
    BitVec v(nbits);
    for (std::size_t i = 0; i < nbits; ++i) {
        v[nbits - 1 - i] = static_cast<std::uint8_t>((value >> i) & 1u);
    }
    return v;
}

double bias(const BitVec& v) {
    if (v.empty()) return 0.0;
    return static_cast<double>(weight(v)) / static_cast<double>(v.size());
}

} // namespace ropuf::bits

#include "ropuf/ecc/block_ecc.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace ropuf::ecc {

namespace {

// Gf2m caps m at 14, so a codeword fits 256 u64 words. The scratch arrays
// of that size are left uninitialized: each block writes every word it
// reads first (see bch.cpp).
constexpr std::size_t kMaxWords = 256;

/// True when any of the first `count` bits of a packed word is set.
bool any_leading_bit(std::span<const std::uint64_t> word, std::size_t count) {
    for (std::size_t w = 0; w < count / 64; ++w) {
        if (word[w] != 0) return true;
    }
    const auto rest = static_cast<unsigned>(count % 64);
    return rest != 0 && (word[count / 64] >> (64 - rest)) != 0;
}

} // namespace

int BlockEcc::block_count(int response_bits) const {
    assert(response_bits >= 0);
    const int k = code_->k();
    return (response_bits + k - 1) / k;
}

int BlockEcc::block_data_bits(int response_bits, int block) const {
    const int k = code_->k();
    const int blocks = block_count(response_bits);
    assert(block >= 0 && block < blocks);
    if (block < blocks - 1) return k;
    const int rem = response_bits - (blocks - 1) * k;
    return rem == 0 ? k : rem;
}

int BlockEcc::helper_bits(int response_bits) const {
    return block_count(response_bits) * code_->parity_bits();
}

BlockEccHelper BlockEcc::enroll(const bits::BitVec& reference) const {
    std::vector<std::uint64_t> packed(bits::word_count(reference.size()));
    bits::pack_words(reference, packed);
    return enroll(packed, static_cast<int>(reference.size()));
}

BlockEccHelper BlockEcc::enroll(std::span<const std::uint64_t> reference,
                                int response_bits) const {
    assert(reference.size() >= bits::word_count(static_cast<std::size_t>(response_bits)));
    const int k = code_->k();
    const int p = code_->parity_bits();
    BlockEccHelper helper;
    helper.response_bits = response_bits;
    helper.parity.resize(static_cast<std::size_t>(helper_bits(response_bits)));
    // Shortened code: the message is zero-padded up to k bits; the zero
    // prefix is virtual and never transmitted or corrupted. One buffer holds
    // every block's message.
    std::array<std::uint64_t, kMaxWords> message;
    std::array<std::uint64_t, kMaxWords> parity;
    const std::span<std::uint64_t> msg(message.data(),
                                       bits::word_count(static_cast<std::size_t>(k)));
    const int blocks = block_count(response_bits);
    for (int b = 0; b < blocks; ++b) {
        const int len = block_data_bits(response_bits, b);
        std::fill(msg.begin(), msg.end(), std::uint64_t{0});
        bits::copy_bits(reference, static_cast<std::size_t>(b) * static_cast<std::size_t>(k), msg,
                        static_cast<std::size_t>(k - len), static_cast<std::size_t>(len));
        code_->parity_words(msg, parity);
        std::uint8_t* const out = helper.parity.data() + static_cast<std::ptrdiff_t>(b) * p;
        for (int j = 0; j < p; ++j) {
            out[j] = bits::test_bit(parity, static_cast<std::size_t>(j)) ? 1 : 0;
        }
    }
    return helper;
}

BlockEcc::WordResult BlockEcc::reconstruct(std::span<const std::uint64_t> noisy,
                                           const BlockEccHelper& helper,
                                           std::span<std::uint64_t> out) const {
    const int total = helper.response_bits;
    assert(noisy.size() >= bits::word_count(static_cast<std::size_t>(total)));
    assert(out.size() >= bits::word_count(static_cast<std::size_t>(total)));
    assert(static_cast<int>(helper.parity.size()) == helper_bits(total));
    const int k = code_->k();
    const int p = code_->parity_bits();
    WordResult res;
    res.ok = true;
    // Each block's received word [virtual zeros | data | parity] is assembled
    // in one reused buffer and decoded in place.
    std::array<std::uint64_t, kMaxWords> buffer;
    const std::span<std::uint64_t> word(buffer.data(),
                                        bits::word_count(static_cast<std::size_t>(code_->n())));
    const int blocks = block_count(total);
    for (int b = 0; b < blocks; ++b) {
        const int len = block_data_bits(total, b);
        const auto pad = static_cast<std::size_t>(k - len);
        const std::size_t at = static_cast<std::size_t>(b) * static_cast<std::size_t>(k);
        std::fill(word.begin(), word.end(), std::uint64_t{0});
        bits::copy_bits(noisy, at, word, pad, static_cast<std::size_t>(len));
        const std::uint8_t* const parity =
            helper.parity.data() + static_cast<std::ptrdiff_t>(b) * p;
        for (int j = 0; j < p; ++j) {
            if (parity[j]) bits::set_bit(word, static_cast<std::size_t>(k + j));
        }
        const auto decoded = code_->decode_in_place(word);
        // A decoder that "corrects" a virtual (shortened) zero position has
        // actually miscorrected; flag it as a failure.
        if (!decoded.ok || any_leading_bit(word, pad)) {
            res.ok = false;
            ++res.failed_blocks;
            // Keep the noisy bits so the caller still gets a length-correct value.
            bits::copy_bits(noisy, at, out, at, static_cast<std::size_t>(len));
            continue;
        }
        res.corrected += decoded.corrected;
        bits::copy_bits(word, pad, out, at, static_cast<std::size_t>(len));
    }
    return res;
}

std::vector<int> BlockEcc::block_error_counts(const bits::BitVec& reference,
                                              const bits::BitVec& noisy) const {
    assert(reference.size() == noisy.size());
    const int total = static_cast<int>(reference.size());
    const int k = code_->k();
    const int blocks = block_count(total);
    std::vector<int> counts(static_cast<std::size_t>(blocks), 0);
    for (int i = 0; i < total; ++i) {
        if (reference[static_cast<std::size_t>(i)] != noisy[static_cast<std::size_t>(i)]) {
            ++counts[static_cast<std::size_t>(i / k)];
        }
    }
    return counts;
}

} // namespace ropuf::ecc

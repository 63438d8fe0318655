#include "ropuf/ecc/block_ecc.hpp"

#include <algorithm>
#include <cassert>

namespace ropuf::ecc {

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
    const int total = static_cast<int>(reference.size());
    const int k = code_->k();
    BlockEccHelper helper;
    helper.response_bits = total;
    helper.parity.reserve(static_cast<std::size_t>(helper_bits(total)));
    // Shortened code: the message is zero-padded up to k bits; the zero
    // prefix is virtual and never transmitted or corrupted. One buffer holds
    // every block's message.
    bits::BitVec message(static_cast<std::size_t>(k));
    const int blocks = block_count(total);
    for (int b = 0; b < blocks; ++b) {
        const int len = block_data_bits(total, b);
        const auto data = reference.begin() + static_cast<std::ptrdiff_t>(b) * k;
        std::fill_n(message.begin(), k - len, std::uint8_t{0});
        std::copy_n(data, len, message.begin() + (k - len));
        const auto parity = code_->parity(message);
        helper.parity.insert(helper.parity.end(), parity.begin(), parity.end());
    }
    return helper;
}

BlockEcc::Result BlockEcc::reconstruct(const bits::BitVec& noisy,
                                       const BlockEccHelper& helper) const {
    const int total = helper.response_bits;
    assert(static_cast<int>(noisy.size()) == total);
    assert(static_cast<int>(helper.parity.size()) == helper_bits(total));
    const int k = code_->k();
    const int p = code_->parity_bits();
    Result out;
    out.value.reserve(static_cast<std::size_t>(total));
    out.ok = true;
    // Each block's received word [virtual zeros | data | parity] is assembled
    // in one reused buffer.
    bits::BitVec word(static_cast<std::size_t>(code_->n()));
    const int blocks = block_count(total);
    for (int b = 0; b < blocks; ++b) {
        const int len = block_data_bits(total, b);
        const auto data = noisy.begin() + static_cast<std::ptrdiff_t>(b) * k;
        std::fill_n(word.begin(), k - len, std::uint8_t{0});
        std::copy_n(data, len, word.begin() + (k - len));
        std::copy_n(helper.parity.begin() + static_cast<std::ptrdiff_t>(b) * p, p,
                    word.begin() + k);
        const auto result = code_->decode(word);
        // A decoder that "corrects" a virtual (shortened) zero position has
        // actually miscorrected; flag it as a failure.
        const auto first = result.codeword.begin();
        const auto is_set = [](std::uint8_t v) { return v != 0; };
        if (!result.ok || std::any_of(first, first + (k - len), is_set)) {
            out.ok = false;
            ++out.failed_blocks;
            // Keep the noisy bits so the caller still gets a length-correct value.
            out.value.insert(out.value.end(), data, data + len);
            continue;
        }
        out.corrected += result.corrected;
        out.value.insert(out.value.end(), first + (k - len), first + k);
    }
    return out;
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

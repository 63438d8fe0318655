#include "ropuf/helperdata/blob.hpp"

namespace ropuf::helperdata {

void BlobWriter::put_bits(const bits::BitVec& v) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    const std::size_t at = bytes_.size();
    bytes_.resize(at + (v.size() + 7) / 8, 0);
    std::uint8_t* const out = bytes_.data() + at;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i]) out[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
}

void BlobWriter::put_bytes(std::span<const std::uint8_t> b) {
    bytes_.insert(bytes_.end(), b.begin(), b.end());
}

void BlobReader::throw_truncated() { throw ParseError("helper blob truncated"); }

bits::BitVec BlobReader::get_bits() {
    const std::uint32_t nbits = get_u32();
    // size_t arithmetic: in u32, counts near 2^32 would wrap to 0 bytes.
    const std::size_t nbytes = (static_cast<std::size_t>(nbits) + 7) / 8;
    need(nbytes);
    const std::uint8_t* const in = bytes_.data() + cursor_;
    cursor_ += nbytes;
    bits::BitVec v(nbits);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = (in[i / 8] >> (7 - i % 8)) & 1u;
    return v;
}

std::vector<std::uint8_t> BlobReader::get_bytes(std::size_t n) {
    need(n);
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
    cursor_ += n;
    return out;
}

void Nvm::flip_bit(std::size_t byte_index, int bit) {
    if (byte_index >= bytes_.size() || bit < 0 || bit > 7) {
        throw std::out_of_range("Nvm::flip_bit out of range");
    }
    bytes_[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
}

} // namespace ropuf::helperdata

// Public helper-data NVM model.
//
// "Hereby, public helper bits are generated during a one-time
// post-manufacturing enrollment phase. They are stored in (off-chip) NVM and
// assist with every key reconstruction." (paper Section III). The paper's
// central threat model is that this memory is *readable and writable* by the
// attacker (Section VII-B), so the Blob API deliberately provides unrestricted
// byte- and bit-level manipulation alongside structured serialization.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ropuf/bits/bitvec.hpp"

namespace ropuf::helperdata {

/// Raised when a device parses a malformed helper blob. Whether a real device
/// even performs such checks is exactly the "precise specification of helper
/// data use" the paper calls for in Section VII-C.
class ParseError : public std::runtime_error {
public:
    explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only binary writer with fixed-width little-endian encodings.
class BlobWriter {
public:
    void put_u8(std::uint8_t v) { bytes_.push_back(v); }
    void put_u16(std::uint16_t v) { put_le(v, 2); }
    void put_u32(std::uint32_t v) { put_le(v, 4); }
    void put_u64(std::uint64_t v) { put_le(v, 8); }
    void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
    /// Length-prefixed bit vector (u32 bit count + bytes packed MSB-first,
    /// final byte zero-padded).
    void put_bits(const bits::BitVec& v);
    void put_bytes(std::span<const std::uint8_t> bytes);

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    void put_le(std::uint64_t v, std::size_t width) {
        const std::size_t at = bytes_.size();
        bytes_.resize(at + width);
        for (std::size_t i = 0; i < width; ++i) {
            bytes_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    std::vector<std::uint8_t> bytes_;
};

/// Cursor-based reader; throws ParseError on truncation.
class BlobReader {
public:
    explicit BlobReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    std::uint8_t get_u8() { return static_cast<std::uint8_t>(get_le(1)); }
    std::uint16_t get_u16() { return static_cast<std::uint16_t>(get_le(2)); }
    std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_le(4)); }
    std::uint64_t get_u64() { return get_le(8); }
    double get_f64() { return std::bit_cast<double>(get_u64()); }
    bits::BitVec get_bits();
    std::vector<std::uint8_t> get_bytes(std::size_t n);

    std::size_t remaining() const { return bytes_.size() - cursor_; }
    bool exhausted() const { return remaining() == 0; }

    /// Validates an untrusted element count against the bytes actually left:
    /// throws ParseError when `count * element_bytes` cannot possibly fit.
    /// Always call this before reserving/resizing containers sized by blob
    /// content — a forged count field must not drive allocations.
    void require_count(std::uint64_t count, std::size_t element_bytes) const {
        if (element_bytes == 0) return;
        if (count > remaining() / element_bytes) {
            throw ParseError("helper blob: element count exceeds payload");
        }
    }

private:
    void need(std::size_t n) const {
        if (remaining() < n) [[unlikely]] throw_truncated();
    }
    [[noreturn]] static void throw_truncated();

    std::uint64_t get_le(std::size_t width) {
        need(width);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i) {
            v |= static_cast<std::uint64_t>(bytes_[cursor_ + i]) << (8 * i);
        }
        cursor_ += width;
        return v;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t cursor_ = 0;
};

/// The attacker's view of helper NVM: a mutable byte array with bit-level
/// access. All manipulation attacks operate through this type.
class Nvm {
public:
    Nvm() = default;
    explicit Nvm(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t>& bytes() { return bytes_; }
    std::size_t size() const { return bytes_.size(); }

    /// Flips one bit (byte_index, bit 0 = LSB).
    void flip_bit(std::size_t byte_index, int bit);

    /// Overwrites the full content.
    void program(std::vector<std::uint8_t> bytes) { bytes_ = std::move(bytes); }

    BlobReader reader() const { return BlobReader(bytes_); }

private:
    std::vector<std::uint8_t> bytes_;
};

} // namespace ropuf::helperdata

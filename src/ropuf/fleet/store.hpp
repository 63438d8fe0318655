// Compact binary enrollment store — fixed-width records, mmap-able,
// torn-tail-tolerant.
//
// JSONL is the right codec for hundreds of campaign records; it is the
// wrong codec for millions of enrollment records. This store is the
// binary sibling of xp's JSONL result store with the same crash-safety
// contract translated to fixed-width framing:
//
//   file  := header | record*
//   header (64 bytes) := magic u32 | version u32 | record_bytes u32 |
//                        key_bits u32 | devices u64 | base_seed u64 |
//                        spec_hash u64 | ro_count u32 | pad-to-64
//   record := device u64 | key_words u64[ceil(key_bits/64)] |
//             helper u16[key_bits] | checksum u64
//
// All fields are little-endian. `helper[j]` is the disjoint-pair index
// p_j selected for key bit j (the pair compares ROs 2p_j and 2p_j+1);
// `checksum` is FNV-1a 64 over the record's preceding bytes. A record is
// valid iff its checksum matches AND its device id equals its position —
// records are written in device order, so position doubles as an index
// and the id field as a second integrity check.
//
// Torn-tail tolerance: records are written in device order, one flushed
// batch at a time, so a crash corrupts at most the batch in flight and an
// injected torn_write at most the record it fires on. Either way the
// invalid bytes form one contiguous tail. Readers validate from the end
// backwards and expose only the valid prefix; the writer reopens, finds
// the first invalid record, and resumes writing over it — mirroring how
// the JSONL reader skips a torn line and resume re-runs the job.
//
// The read path maps the file (one mmap, zero copies); random access to
// record d is O(1) offset arithmetic, which is what keeps a fleet
// campaign's memory O(shard): shards decode only their own records out of
// the page cache.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ropuf/fleet/spec.hpp"

namespace ropuf::fi {
class Injector;
}

namespace ropuf::fleet {

inline constexpr std::uint32_t kStoreMagic = 0x45465052u; // "RPFE" on disk
inline constexpr std::uint32_t kStoreVersion = 1;
inline constexpr std::size_t kStoreHeaderBytes = 64;

/// The store's identity block. Every field is checked on reopen — an
/// enrollment store is only meaningful against the exact spec that
/// manufactured it.
struct StoreHeader {
    std::uint32_t record_bytes = 0;
    std::uint32_t key_bits = 0;
    std::uint64_t devices = 0;
    std::uint64_t base_seed = 0;
    std::uint64_t spec_hash = 0;
    std::uint32_t ro_count = 0;

    bool operator==(const StoreHeader&) const = default;
};

/// Builds the header for a spec (fills record_bytes from key_bits).
StoreHeader make_store_header(const FleetSpec& spec);

/// Bytes of one record for `key_bits` (device + key words + helper + checksum).
std::size_t record_bytes_for(int key_bits);

/// One enrolled device.
struct EnrollmentRecord {
    std::uint64_t device = 0;
    std::vector<std::uint64_t> key_words;  ///< key bits packed LSB-first
    std::vector<std::uint16_t> helper;     ///< selected pair index per key bit

    /// Key bit j (0/1) from the packed words.
    int key_bit(int j) const {
        return static_cast<int>((key_words[static_cast<std::size_t>(j) / 64] >>
                                 (static_cast<std::size_t>(j) % 64)) &
                                1u);
    }
};

/// Append-only binary writer with resume. Opening an existing store (with
/// `truncate == false`) validates the header against `header`, scans for
/// the valid record prefix, and positions the next append there.
class EnrollmentWriter {
public:
    EnrollmentWriter(const std::string& path, const StoreHeader& header,
                     bool truncate = false);
    ~EnrollmentWriter();
    EnrollmentWriter(const EnrollmentWriter&) = delete;
    EnrollmentWriter& operator=(const EnrollmentWriter&) = delete;

    /// The device id the next append must carry (== valid records so far).
    std::uint64_t next_device() const noexcept { return next_device_; }

    /// Appends `records` with one write and one flush; record k must carry
    /// device next_device() + k and the header's shape. Records are checked,
    /// and the injector consulted, in device order. The first bad record or
    /// fault leaves the bytes one-record appends would (the records before
    /// it, plus half of a torn record) and throws: xp::SpecError for a bad
    /// record or real I/O failure, fi::InjectedFault when the injector
    /// fires. The writer then re-seeks to the record boundary before the
    /// next append, so a retried record overwrites the torn bytes instead
    /// of landing after them.
    void append(std::span<const EnrollmentRecord> records);

    /// Installs (or clears) the store-seam fault injector.
    void set_fault_injector(fi::Injector* injector) { injector_ = injector; }

    const std::string& path() const { return path_; }

private:
    std::string path_;
    std::FILE* file_ = nullptr;
    StoreHeader header_;
    std::uint64_t next_device_ = 0;
    fi::Injector* injector_ = nullptr;
    bool dirty_ = false; ///< last append may have left torn bytes
    std::vector<unsigned char> batch_; ///< encode buffer, reused across appends
};

/// Read-only mmap view. Construction validates the header and finds the
/// valid record prefix (checksum scan from the tail); record(d) then
/// decodes straight out of the mapping.
class EnrollmentMap {
public:
    explicit EnrollmentMap(const std::string& path);
    ~EnrollmentMap();
    EnrollmentMap(const EnrollmentMap&) = delete;
    EnrollmentMap& operator=(const EnrollmentMap&) = delete;

    const StoreHeader& header() const noexcept { return header_; }
    /// Valid (non-torn) records — the enrolled prefix of the population.
    std::uint64_t valid_records() const noexcept { return valid_records_; }
    /// Bytes of torn tail the reader is ignoring (0 for a clean file).
    std::uint64_t torn_tail_bytes() const noexcept { return torn_tail_bytes_; }

    /// Decodes record `index` (must be < valid_records()).
    EnrollmentRecord record(std::uint64_t index) const;

private:
    StoreHeader header_;
    const unsigned char* data_ = nullptr; ///< whole-file mapping
    std::size_t size_ = 0;
    std::uint64_t valid_records_ = 0;
    std::uint64_t torn_tail_bytes_ = 0;
};

} // namespace ropuf::fleet

#include "ropuf/fleet/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace ropuf::fleet {

using xp::SpecError;

namespace {

void put_u16(unsigned char* p, std::uint16_t v) {
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}
void put_u32(unsigned char* p, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint16_t get_u16(const unsigned char* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}
std::uint64_t get_u64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint64_t checksum(const unsigned char* p, std::size_t n) {
    return xp::fnv1a64(std::string_view(reinterpret_cast<const char*>(p), n));
}

std::size_t key_word_count(int key_bits) {
    return (static_cast<std::size_t>(key_bits) + 63) / 64;
}

/// Serializes the 64-byte header block.
void encode_header(const StoreHeader& h, unsigned char out[kStoreHeaderBytes]) {
    std::memset(out, 0, kStoreHeaderBytes);
    put_u32(out + 0, kStoreMagic);
    put_u32(out + 4, kStoreVersion);
    put_u32(out + 8, h.record_bytes);
    put_u32(out + 12, h.key_bits);
    put_u64(out + 16, h.devices);
    put_u64(out + 24, h.base_seed);
    put_u64(out + 32, h.spec_hash);
    put_u32(out + 40, h.ro_count);
}

StoreHeader decode_header(const unsigned char* p, const std::string& path) {
    if (get_u32(p + 0) != kStoreMagic) {
        throw SpecError("not an enrollment store (bad magic): " + path);
    }
    if (get_u32(p + 4) != kStoreVersion) {
        throw SpecError("unsupported enrollment store version in " + path);
    }
    StoreHeader h;
    h.record_bytes = get_u32(p + 8);
    h.key_bits = get_u32(p + 12);
    h.devices = get_u64(p + 16);
    h.base_seed = get_u64(p + 24);
    h.spec_hash = get_u64(p + 32);
    h.ro_count = get_u32(p + 40);
    // The fleet spec's own shape limits: u16 RO indices and at most one key
    // bit per disjoint RO pair. They also keep the key width far from the
    // int conversion and size arithmetic in record_bytes_for, where a wild
    // value could wrap to a tiny record width.
    if (h.ro_count > 65535 || h.key_bits == 0 || h.key_bits > h.ro_count / 2 ||
        h.record_bytes != record_bytes_for(static_cast<int>(h.key_bits))) {
        throw SpecError("corrupt enrollment store header in " + path);
    }
    return h;
}

/// Encodes one record into the record_bytes at `out`, checksum last.
void encode_record(const EnrollmentRecord& rec, unsigned char* out) {
    unsigned char* p = out;
    put_u64(p, rec.device);
    p += 8;
    for (std::uint64_t w : rec.key_words) {
        put_u64(p, w);
        p += 8;
    }
    for (std::uint16_t v : rec.helper) {
        put_u16(p, v);
        p += 2;
    }
    put_u64(p, checksum(out, static_cast<std::size_t>(p - out)));
}

/// True iff the record bytes at `p` are intact and carry device id
/// `expected_device`.
bool record_valid(const unsigned char* p, const StoreHeader& h,
                  std::uint64_t expected_device) {
    const std::size_t body = h.record_bytes - 8;
    return get_u64(p + body) == checksum(p, body) && get_u64(p) == expected_device;
}

EnrollmentRecord decode_record(const unsigned char* p, const StoreHeader& h) {
    EnrollmentRecord rec;
    rec.device = get_u64(p);
    p += 8;
    const std::size_t kw = key_word_count(static_cast<int>(h.key_bits));
    rec.key_words.resize(kw);
    for (std::size_t i = 0; i < kw; ++i) {
        rec.key_words[i] = get_u64(p);
        p += 8;
    }
    rec.helper.resize(h.key_bits);
    for (std::uint32_t i = 0; i < h.key_bits; ++i) {
        rec.helper[i] = get_u16(p);
        p += 2;
    }
    return rec;
}

} // namespace

std::size_t record_bytes_for(int key_bits) {
    return 8 + 8 * key_word_count(key_bits) + 2 * static_cast<std::size_t>(key_bits) + 8;
}

StoreHeader make_store_header(const FleetSpec& spec) {
    StoreHeader h;
    h.record_bytes = static_cast<std::uint32_t>(record_bytes_for(spec.key_bits));
    h.key_bits = static_cast<std::uint32_t>(spec.key_bits);
    h.devices = spec.devices;
    h.base_seed = spec.base_seed;
    h.spec_hash = fleet_spec_hash_u64(spec);
    h.ro_count = static_cast<std::uint32_t>(spec.ro_count());
    return h;
}

EnrollmentWriter::EnrollmentWriter(const std::string& path, const StoreHeader& header,
                                   bool truncate)
    : path_(path), header_(header) {
    if (!truncate) {
        if (std::FILE* existing = std::fopen(path.c_str(), "rb+"); existing != nullptr) {
            // Resume: validate identity, then find the valid record prefix.
            // Appends land in device order, so invalid records only ever
            // form a contiguous tail, and the first invalid record is where
            // writing resumes (overwriting any torn bytes).
            file_ = existing;
            unsigned char hdr[kStoreHeaderBytes];
            if (std::fread(hdr, 1, sizeof hdr, file_) != sizeof hdr) {
                std::fclose(file_);
                throw SpecError("enrollment store too short for its header: " + path);
            }
            StoreHeader on_disk;
            try {
                on_disk = decode_header(hdr, path);
            } catch (...) {
                std::fclose(file_);
                throw;
            }
            if (on_disk != header_) {
                std::fclose(file_);
                throw SpecError("enrollment store " + path +
                                " was written for a different fleet spec");
            }
            std::vector<unsigned char> rec(header_.record_bytes);
            while (next_device_ < header_.devices &&
                   std::fread(rec.data(), 1, rec.size(), file_) == rec.size() &&
                   record_valid(rec.data(), header_, next_device_)) {
                ++next_device_;
            }
            const long long pos =
                static_cast<long long>(kStoreHeaderBytes) +
                static_cast<long long>(next_device_) * header_.record_bytes;
            if (std::fseek(file_, static_cast<long>(pos), SEEK_SET) != 0) {
                std::fclose(file_);
                throw SpecError("seek failed for enrollment store: " + path);
            }
            return;
        }
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
        throw SpecError("cannot open enrollment store for writing: " + path);
    }
    unsigned char hdr[kStoreHeaderBytes];
    encode_header(header_, hdr);
    if (std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr || std::fflush(file_) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw SpecError("write failed for enrollment store: " + path);
    }
}

EnrollmentWriter::~EnrollmentWriter() {
    if (file_ != nullptr) std::fclose(file_);
}

void EnrollmentWriter::append(std::span<const EnrollmentRecord> records) {
    const std::size_t record_bytes = header_.record_bytes;
    if (dirty_) {
        // A previous append tore: re-seek to the record boundary so the
        // retry overwrites the fragment — the binary twin of the JSONL
        // writer's newline-termination recovery.
        const long long pos = static_cast<long long>(kStoreHeaderBytes) +
                              static_cast<long long>(next_device_) * record_bytes;
        if (std::fseek(file_, static_cast<long>(pos), SEEK_SET) != 0) {
            throw SpecError("seek failed for enrollment store: " + path_);
        }
        dirty_ = false;
    }
    batch_.resize(records.size() * record_bytes);
    std::size_t encoded = 0;
    // Writes the `encoded` records plus `tail` bytes of the next one, then
    // advances past the complete records.
    const auto write = [&](std::size_t tail) {
        const std::size_t bytes = encoded * record_bytes + tail;
        if (bytes == 0) return;
        if (std::fwrite(batch_.data(), 1, bytes, file_) != bytes || std::fflush(file_) != 0) {
            dirty_ = true; // unknown how much landed; retry overwrites
            throw SpecError("write failed for enrollment store: " + path_);
        }
        next_device_ += encoded;
        ROPUF_OBS_COUNT("fleet.store.bytes_written",
                        static_cast<double>(encoded * record_bytes));
    };
    for (const EnrollmentRecord& rec : records) {
        if (rec.device != next_device_ + encoded) {
            write(0);
            throw SpecError("enrollment records must append in device order");
        }
        if (rec.helper.size() != header_.key_bits ||
            rec.key_words.size() != key_word_count(static_cast<int>(header_.key_bits))) {
            write(0);
            throw SpecError("enrollment record shape does not match the store header");
        }
        encode_record(rec, batch_.data() + encoded * record_bytes);
        if (injector_ != nullptr) {
            switch (injector_->next_store_fault()) {
                case fi::Injector::StoreFault::none:
                    break;
                case fi::Injector::StoreFault::fail:
                    write(0);
                    throw fi::InjectedFault(fi::FaultPoint::store_write_fail,
                                            "injected store write failure");
                case fi::Injector::StoreFault::torn:
                    // Half a record, then "crash": the fixed-width analogue
                    // of the JSONL torn line.
                    write(record_bytes / 2);
                    dirty_ = true;
                    throw fi::InjectedFault(fi::FaultPoint::torn_write, "injected torn write");
            }
        }
        ++encoded;
    }
    write(0);
}

EnrollmentMap::EnrollmentMap(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw SpecError("cannot open enrollment store: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < kStoreHeaderBytes) {
        ::close(fd);
        throw SpecError("enrollment store too short for its header: " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (map == MAP_FAILED) throw SpecError("mmap failed for enrollment store: " + path);
    data_ = static_cast<const unsigned char*>(map);
    try {
        header_ = decode_header(data_, path);
    } catch (...) {
        ::munmap(const_cast<unsigned char*>(data_), size_);
        data_ = nullptr;
        throw;
    }
    // Forward checksum scan for the valid prefix. O(file) once at open —
    // ~a second per ten million records — after which record() is pure
    // offset arithmetic into the page cache.
    const std::size_t body_bytes = size_ - kStoreHeaderBytes;
    const std::uint64_t full = body_bytes / header_.record_bytes;
    while (valid_records_ < full &&
           record_valid(data_ + kStoreHeaderBytes + valid_records_ * header_.record_bytes,
                        header_, valid_records_)) {
        ++valid_records_;
    }
    torn_tail_bytes_ = body_bytes - valid_records_ * header_.record_bytes;
}

EnrollmentMap::~EnrollmentMap() {
    if (data_ != nullptr) ::munmap(const_cast<unsigned char*>(data_), size_);
}

EnrollmentRecord EnrollmentMap::record(std::uint64_t index) const {
    if (index >= valid_records_) {
        throw SpecError("enrollment record index out of range: " + std::to_string(index));
    }
    return decode_record(data_ + kStoreHeaderBytes + index * header_.record_bytes, header_);
}

} // namespace ropuf::fleet

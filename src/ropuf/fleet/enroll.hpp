// Population enrollment: measure every device once, well, and persist it.
//
// Enrollment follows the paper's standard recipe: average `enroll_samples`
// noisy scans per device at the reference condition, form the disjoint
// adjacent RO pairs (2p, 2p+1), and keep the `key_bits` most reliable
// pairs — largest |Δf|, index as tie-break — as the device's helper data.
// Key bit j is then sign(Δf) of selected pair p_j. Selected pair indices
// are stored sorted ascending, so the helper is a canonical set, not a
// ranking (rank would leak more than the paper's schemes do).
//
// Devices enroll in shards of kShardDevices through RoFleet::measure_batch,
// so the SIMD kernels see a full device batch per call. Shards run on the
// shared worker pool (core::parallel_for); an in-order committer hands
// each finished shard to the writer as one batch, in device order, so the
// store bytes are the same at every worker count and memory stays
// O(workers x shard). Enrollment is resumable: the writer knows the valid
// record prefix, and enroll_population simply continues from there —
// records are deterministic per device, so a resumed store is
// byte-identical to a clean one.
#pragma once

#include <atomic>
#include <cstdint>

#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/store.hpp"

namespace ropuf::fleet {

/// Devices per enrollment batch (and per campaign shard): wide enough
/// that every SIMD path runs full lanes, small enough that per-shard
/// buffers stay cache-friendly.
inline constexpr std::size_t kShardDevices = 64;

/// Enrolls one device in isolation — bit-identical to the record the
/// sharded path produces for it (pinned by test).
EnrollmentRecord enroll_device(const Population& population, std::uint64_t device);

/// Enrolls every not-yet-enrolled device (writer.next_device() onward)
/// into `writer` on `workers` pool threads (0 = hardware concurrency, see
/// core::resolve_workers). Checks `stop` as each shard is claimed when
/// non-null (SIGINT): the store then ends at the last shard committed
/// before it. The first writer error ends the commit and is rethrown, so
/// writer.next_device() is always the valid prefix. Returns the number of
/// devices enrolled by this call.
std::uint64_t enroll_population(const Population& population, EnrollmentWriter& writer,
                                const std::atomic<bool>* stop = nullptr, int workers = 0);

/// What enroll_with_retry did.
struct EnrollRunStats {
    std::uint64_t enrolled = 0; ///< devices enrolled by this call
    int store_retries = 0;      ///< injected store faults absorbed
};

/// enroll_population under the store-fault policy of `ropuf fleet enroll`:
/// an injected store fault is retried (the writer has re-seeked to the
/// record boundary), and the fault is rethrown only once `max_attempts`
/// attempts in a row land no record. Returns when every device is enrolled
/// or `stop` is set.
EnrollRunStats enroll_with_retry(const Population& population, EnrollmentWriter& writer,
                                 int max_attempts, const std::atomic<bool>* stop = nullptr,
                                 int workers = 0);

} // namespace ropuf::fleet

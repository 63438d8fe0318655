#include "ropuf/fleet/enroll.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>
#include <vector>

#include "ropuf/core/parallel.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/metrics.hpp"

namespace ropuf::fleet {

namespace {

/// Builds the record of `device` into `rec` from its scan block `meas`
/// (scan s occupies [s*n, (s+1)*n)). Reuses `rec`'s storage and this
/// thread's scratch, so a pool worker allocates nothing here once both
/// have grown to the spec's shape.
void record_from_scans(const FleetSpec& spec, std::uint64_t device,
                       const std::vector<double>& meas, EnrollmentRecord& rec) {
    const std::size_t n = static_cast<std::size_t>(spec.ro_count());
    const std::size_t pairs = n / 2;
    const std::size_t key_bits = static_cast<std::size_t>(spec.key_bits);
    const int samples = spec.enroll_samples;
    thread_local std::vector<double> delta;
    thread_local std::vector<std::uint16_t> order;

    // Average the scans (enrollment's noise suppression) and difference the
    // disjoint adjacent pairs. Each RO sums its scans in scan order before
    // the division, so every average is the same double as ever.
    delta.resize(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
        double a = 0.0;
        double b = 0.0;
        for (int s = 0; s < samples; ++s) {
            const double* scan = meas.data() + static_cast<std::size_t>(s) * n;
            a += scan[2 * p];
            b += scan[2 * p + 1];
        }
        delta[p] = a / static_cast<double>(samples) - b / static_cast<double>(samples);
    }

    // Keep the key_bits most reliable pairs: |Δf| descending, index as
    // tie-break. That order is total, so the selected set is exactly what a
    // stable sort of the ascending index list by |Δf| keeps.
    order.resize(pairs);
    std::iota(order.begin(), order.end(), std::uint16_t{0});
    const auto more_reliable = [](std::uint16_t a, std::uint16_t b) {
        const double da = std::abs(delta[a]);
        const double db = std::abs(delta[b]);
        return da > db || (da == db && a < b);
    };
    const auto selected = order.begin() + static_cast<std::ptrdiff_t>(key_bits);
    std::nth_element(order.begin(), selected, order.end(), more_reliable);
    std::sort(order.begin(), selected); // canonical set order, not rank

    rec.device = device;
    rec.helper.assign(order.begin(), selected);
    rec.key_words.assign((key_bits + 63) / 64, 0);
    for (std::size_t j = 0; j < key_bits; ++j) {
        if (delta[rec.helper[j]] > 0.0) rec.key_words[j / 64] |= std::uint64_t{1} << (j % 64);
    }
}

/// Reorder-ring slots per worker. A worker descheduled mid-shard for a few
/// scheduler ticks must not stall the others: at a fraction of a
/// millisecond per shard they need tens of free slots to keep building
/// until it resumes. For the fleet_100k record shape that is about 1 MiB
/// of buffered records at four workers.
constexpr std::size_t kCommitShardsPerWorker = 32;

/// One shard's records, built by the worker that claimed the shard.
using ShardSlot = std::vector<EnrollmentRecord>;

/// Manufactures, measures and enrolls devices [first, first + count) into
/// `slot`. The measurement buffer is per thread, as in the campaign's
/// run_shard.
void build_shard(const Population& population, std::uint64_t first, std::size_t count,
                 ShardSlot& slot) {
    const FleetSpec& spec = population.spec();
    thread_local std::vector<std::vector<double>> scratch;
    sim::RoFleet fleet = population.manufacture_shard(first, count, Population::Phase::enroll);
    fleet.measure_batch(sim::Condition{}, spec.enroll_samples, scratch);
    slot.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        record_from_scans(spec, first + i, scratch[i], slot[i]);
    }
}

/// Hands finished shards to the writer in device order, whatever order the
/// pool finishes them in: the campaign Committer's reorder discipline over
/// a ring of reusable shard slots. Publishing never waits for the writer:
/// the first thread to find the next shard ready commits every ready shard
/// in order, outside the lock, while the others go back to building. Only
/// a worker that claims a shard a whole ring ahead of the commit point
/// waits for its slot, so the buffer stays bounded at any schedule skew.
class ShardCommitter {
public:
    ShardCommitter(EnrollmentWriter& writer, std::size_t ring)
        : writer_(writer), slots_(ring), ready_(ring, false) {}

    /// Waits until shard `index`'s slot is free and returns it, or nullptr
    /// once the commit has ended at or before `index`.
    ShardSlot* acquire(std::size_t index) {
        std::unique_lock<std::mutex> lock(mutex_);
        slot_freed_.wait(lock,
                         [&] { return index >= end_ || index < next_ + slots_.size(); });
        return index < end_ ? &slots_[index % slots_.size()] : nullptr;
    }

    /// Marks shard `index` built. If no other thread is committing, appends
    /// every shard that is now next in order, one batch each. A writer
    /// error ends the commit at the failing shard, so no later shard
    /// appends, and is rethrown.
    void publish(std::size_t index) {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_[index % slots_.size()] = true;
        if (committing_) return; // that thread picks this shard up in turn
        committing_ = true;
        while (next_ < end_ && ready_[next_ % slots_.size()]) {
            // The slot stays marked ready and next_ stays put while it is
            // written, so no other thread touches it unlocked.
            const ShardSlot& slot = slots_[next_ % slots_.size()];
            lock.unlock();
            try {
                writer_.append(slot);
            } catch (...) {
                lock.lock();
                end_ = next_;
                committing_ = false;
                slot_freed_.notify_all();
                throw;
            }
            ROPUF_OBS_COUNT("fleet.devices_enrolled", static_cast<double>(slot.size()));
            lock.lock();
            ready_[next_ % slots_.size()] = false;
            ++next_;
            slot_freed_.notify_all();
        }
        committing_ = false;
    }

    /// Ends the commit at shard `index`: it and every later shard are never
    /// appended (a shard skipped at claim, or one whose build threw).
    void end(std::size_t index) {
        const std::lock_guard<std::mutex> lock(mutex_);
        end_ = std::min(end_, index);
        slot_freed_.notify_all();
    }

private:
    EnrollmentWriter& writer_;
    std::vector<ShardSlot> slots_;
    std::vector<bool> ready_;
    std::mutex mutex_;
    std::condition_variable slot_freed_;
    std::size_t next_ = 0; ///< the shard the writer takes next
    std::size_t end_ = std::numeric_limits<std::size_t>::max();
    bool committing_ = false; ///< a thread is appending ready shards
};

} // namespace

EnrollmentRecord enroll_device(const Population& population, std::uint64_t device) {
    ShardSlot slot;
    build_shard(population, device, 1, slot);
    return std::move(slot[0]);
}

std::uint64_t enroll_population(const Population& population, EnrollmentWriter& writer,
                                const std::atomic<bool>* stop, int workers) {
    const std::uint64_t devices = population.spec().devices;
    const std::uint64_t start = writer.next_device();
    const std::size_t shards =
        static_cast<std::size_t>((devices - start + kShardDevices - 1) / kShardDevices);
    const int threads = core::resolve_workers(workers);
    ShardCommitter committer(writer, kCommitShardsPerWorker * static_cast<std::size_t>(threads));

    core::parallel_for(shards, threads, [&](std::size_t i) {
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
            committer.end(i);
            return;
        }
        ShardSlot* slot = committer.acquire(i);
        if (slot == nullptr) return;
        const std::uint64_t first = start + i * kShardDevices;
        try {
            build_shard(population, first,
                        static_cast<std::size_t>(
                            std::min<std::uint64_t>(kShardDevices, devices - first)),
                        *slot);
        } catch (...) {
            committer.end(i);
            throw;
        }
        committer.publish(i);
    });
    return writer.next_device() - start;
}

EnrollRunStats enroll_with_retry(const Population& population, EnrollmentWriter& writer,
                                 int max_attempts, const std::atomic<bool>* stop,
                                 int workers) {
    EnrollRunStats stats;
    const std::uint64_t start = writer.next_device();
    int consecutive_faults = 0;
    while (writer.next_device() < population.spec().devices &&
           (stop == nullptr || !stop->load())) {
        const std::uint64_t before = writer.next_device();
        try {
            (void)enroll_population(population, writer, stop, workers);
        } catch (const fi::InjectedFault&) {
            // The writer has re-seeked to the record boundary, so the retry
            // overwrites the torn bytes. Give up only when no record at all
            // lands within the attempt budget.
            ++stats.store_retries;
            consecutive_faults = writer.next_device() > before ? 1 : consecutive_faults + 1;
            if (consecutive_faults >= max_attempts) throw;
        }
    }
    stats.enrolled = writer.next_device() - start;
    return stats;
}

} // namespace ropuf::fleet

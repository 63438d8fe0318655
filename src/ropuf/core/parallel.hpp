// The worker pool: one for every scheduler in the repo — the trials of a
// whole xp plan (xp::execute_plan) and of a retried job's next attempt,
// campaign trials (CampaignRunner) and fleet shards
// (fleet::run_fleet_campaign).
//
// Items are claimed through one shared atomic cursor. The item list is
// fixed before any worker starts and never grows, so a single fetch_add
// gives the dynamic load balance per-worker deques with stealing would: a
// worker stuck on a slow item simply stops claiming, and the others drain
// the rest. Determinism is the caller's business — results must be keyed on
// the item index, never on which worker ran it.
#pragma once

#include <cstddef>
#include <functional>

namespace ropuf::core {

/// The most pool threads any caller gets. The executor's pool spans a
/// whole plan's trials, so the thread count is bounded by this ceiling,
/// not by the work; the ropuf CLI rejects a larger --workers outright.
inline constexpr int kMaxWorkers = 1024;

/// Worker-count convention shared by every driver: `requested` > 0 is
/// taken as is, up to kMaxWorkers; 0 (or less) means
/// std::thread::hardware_concurrency(), at least 1 (and at most
/// kMaxWorkers).
int resolve_workers(int requested);

/// Calls body(i) once for every i in [0, n) on min(workers, n, kMaxWorkers)
/// threads.
/// At one worker it runs inline on the caller's thread (which keeps its
/// trace track name); otherwise it spawns threads named "worker" on the
/// trace. The first exception that escapes `body` stops further claims;
/// items already running finish, the pool joins, and that exception is
/// rethrown to the caller.
void parallel_for(std::size_t n, int workers, const std::function<void(std::size_t)>& body);

} // namespace ropuf::core

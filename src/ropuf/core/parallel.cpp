#include "ropuf/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "ropuf/obs/trace.hpp"

namespace ropuf::core {

int resolve_workers(int requested) {
    if (requested <= 0) requested = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(requested, 1, kMaxWorkers);
}

void parallel_for(std::size_t n, int workers, const std::function<void(std::size_t)>& body) {
    const std::size_t threads =
        std::min(n, static_cast<std::size_t>(std::clamp(workers, 1, kMaxWorkers)));
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto worker = [&] {
        if (obs::TraceSink* sink = obs::trace()) sink->set_thread_name("worker");
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
}

} // namespace ropuf::core

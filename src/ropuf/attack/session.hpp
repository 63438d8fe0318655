// Budgeted, resumable attack sessions.
//
// Every attack in the paper is a loop of "manipulate helper data, query the
// failure oracle, learn". A Session turns that loop inside out into a
// propose/observe state machine, so attack cost can be read off while the
// attack runs, not only after the key fell:
//
//   while (!session.done()) {
//       auto batch = session.step();          // probes the attack wants next
//       session.absorb(oracle.evaluate(batch)); // verdicts drive it forward
//   }
//
// Between any step/absorb cycle the caller can stop (budget spent), inspect
// partial_key() (queries-vs-accuracy curves), or interpose middleware on the
// oracle side (core::BudgetedOracle / SanityCheckingOracle / TracingOracle).
// run_to_completion() is the thin driver that runs this loop to the end:
//
//   SeqPairingSession session(helper, code);
//   auto oracle = make_oracle(victim);
//   run_to_completion(session, oracle);   // then read session.result()
//
// Implementation: sessions are C++20 coroutines. Each attack keeps its
// original control flow (phases, retries, merge sorts, hypothesis
// enumerations) verbatim, with every oracle query expressed as
// `co_await ask(probe)`; the coroutine machinery suspends the whole call
// stack at that point and resumes it when verdicts arrive. This is what
// guarantees the Session rewrite is *bitwise identical* to the pre-Session
// attacks: same probes, same order, same adaptive decisions, same RNG
// consumption — regression-pinned by tests/test_session_regression.cpp.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ropuf/attack/oracle.hpp"
#include "ropuf/core/attack_engine.hpp"
#include "ropuf/core/oracle.hpp"
#include "ropuf/obs/metrics.hpp"

namespace ropuf::attack {

/// The propose/observe interface every attack session implements.
class Session {
public:
    virtual ~Session() = default;

    /// The next probe batch the attack wants answered. An empty batch means
    /// the session is done. The span stays valid until the matching absorb().
    virtual std::span<const core::Probe> step() = 0;

    /// Feeds the verdicts for the last step()'s batch (one per probe, in
    /// probe order) and advances the state machine to its next batch or to
    /// completion. Throws std::logic_error out of cycle, std::invalid_argument
    /// on a verdict-count mismatch.
    virtual void absorb(const std::vector<bool>& verdicts) = 0;

    /// True once the attack has nothing left to ask.
    virtual bool done() const = 0;

    /// The attack's best current key knowledge (partial during the run; the
    /// recovered key once done and resolved). Undecided positions read 0.
    virtual bits::BitVec partial_key() const = 0;

    /// The attack's own completion flag (meaningful once done()).
    virtual bool resolved() const = 0;

    /// Scenario-specific remarks for reports (meaningful once done()).
    virtual std::string notes() const { return {}; }

    /// Oracle probes answered so far (the session-side query count).
    virtual std::int64_t probes_answered() const = 0;
};

namespace detail {

/// Shared state between a session's coroutines and its step()/absorb() edge.
struct ProbeChannel {
    std::vector<core::Probe> staged;   ///< what step() hands out
    std::vector<bool> verdicts;        ///< what absorb() feeds back
    std::coroutine_handle<> waiter;    ///< innermost coroutine awaiting verdicts
};

/// Awaitable for a single probe; resumes with its verdict.
struct ProbeAwaiter {
    ProbeChannel* channel;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { channel->waiter = h; }
    bool await_resume() const { return channel->verdicts.at(0); }
};

/// Awaitable for a probe batch; resumes with one verdict per probe.
struct BatchAwaiter {
    ProbeChannel* channel;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { channel->waiter = h; }
    std::vector<bool> await_resume() const { return channel->verdicts; }
};

} // namespace detail

/// An awaitable sub-step of a session coroutine (started on first co_await,
/// completes back into its awaiter via symmetric transfer). Move-only.
template <typename T>
class [[nodiscard]] Sub {
public:
    struct promise_type {
        T value{};
        std::coroutine_handle<> continuation;
        std::exception_ptr exception;

        Sub get_return_object() {
            return Sub(std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        auto final_suspend() noexcept {
            struct Continue {
                bool await_ready() noexcept { return false; }
                std::coroutine_handle<> await_suspend(
                    std::coroutine_handle<promise_type> h) noexcept {
                    auto continuation = h.promise().continuation;
                    return continuation ? continuation : std::noop_coroutine();
                }
                void await_resume() noexcept {}
            };
            return Continue{};
        }
        void return_value(T v) { value = std::move(v); }
        void unhandled_exception() { exception = std::current_exception(); }
    };

    explicit Sub(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
    Sub(Sub&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
    Sub(const Sub&) = delete;
    Sub& operator=(const Sub&) = delete;
    Sub& operator=(Sub&&) = delete;
    ~Sub() {
        if (handle_) handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        handle_.promise().continuation = parent;
        return handle_; // symmetric transfer: start the sub-step
    }
    T await_resume() {
        if (handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
        return std::move(handle_.promise().value);
    }

private:
    std::coroutine_handle<promise_type> handle_;
};

/// The root coroutine of a session (the attack body). Owned by CoroSession.
class SessionBody {
public:
    struct promise_type {
        std::exception_ptr exception;

        SessionBody get_return_object() {
            return SessionBody(std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() { exception = std::current_exception(); }
    };

    SessionBody() = default;
    explicit SessionBody(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
    SessionBody(SessionBody&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
    SessionBody& operator=(SessionBody&& other) noexcept {
        if (this != &other) {
            if (handle_) handle_.destroy();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }
    SessionBody(const SessionBody&) = delete;
    SessionBody& operator=(const SessionBody&) = delete;
    ~SessionBody() {
        if (handle_) handle_.destroy();
    }

    std::coroutine_handle<promise_type> handle() const { return handle_; }
    explicit operator bool() const { return static_cast<bool>(handle_); }

private:
    std::coroutine_handle<promise_type> handle_;
};

/// Coroutine-backed Session base. A derived session implements the attack as
/// a `SessionBody body()` member coroutine (adopted via start()) that asks
/// the oracle through `co_await ask(...)` / `co_await ask_batch(...)` /
/// `co_await any_pass(...)`.
class CoroSession : public Session {
public:
    CoroSession() = default;
    // The body coroutine captures `this`; sessions are pinned in place.
    CoroSession(const CoroSession&) = delete;
    CoroSession& operator=(const CoroSession&) = delete;

    std::span<const core::Probe> step() override {
        if (!body_) throw std::logic_error("session has no body");
        if (!started_) {
            started_ = true;
            resume_once();
        }
        if (done()) return {};
        return channel_.staged;
    }

    void absorb(const std::vector<bool>& verdicts) override {
        if (!started_ || done() || channel_.staged.empty()) {
            throw std::logic_error("absorb() without a pending step()");
        }
        if (verdicts.size() != channel_.staged.size()) {
            throw std::invalid_argument("absorb(): verdict count does not match the batch");
        }
        channel_.verdicts = verdicts;
        channel_.staged.clear();
        answered_ += static_cast<std::int64_t>(verdicts.size());
        resume_once();
    }

    bool done() const override { return started_ && body_.handle().done(); }
    std::int64_t probes_answered() const override { return answered_; }

protected:
    /// Adopt the attack-body coroutine. Call exactly once, at the end of the
    /// derived constructor (the body only runs on the first step()).
    void start(SessionBody body) { body_ = std::move(body); }

    /// Stage one probe and suspend until its verdict (true = regen failed).
    detail::ProbeAwaiter ask(core::Probe probe) {
        channel_.staged.clear();
        channel_.staged.push_back(std::move(probe));
        return detail::ProbeAwaiter{&channel_};
    }

    /// Stage a whole batch and suspend until its verdicts.
    detail::BatchAwaiter ask_batch(std::vector<core::Probe> probes) {
        if (probes.empty()) throw std::logic_error("ask_batch(): empty batch");
        channel_.staged = std::move(probes);
        return detail::BatchAwaiter{&channel_};
    }

    /// The one-sided injected-offset probe: asks the same probe up to
    /// `attempts` times, stopping at the first pass; resumes true only when
    /// every attempt failed. Under the correct hypothesis a query passes with
    /// probability ~1-q (q = residual-noise failure rate); under an incorrect
    /// one a pass needs the decoder to miscorrect into exactly the reference
    /// word (~never), so one pass is near-conclusive.
    /// `probe` is read on every attempt: it must live until the co_await on
    /// this call resumes, as a temporary argument of that co_await does.
    Sub<bool> any_pass(const core::Probe& probe, int attempts) {
        for (int i = 0; i < attempts; ++i) {
            if (!co_await ask(probe)) co_return false;
        }
        co_return true;
    }

private:
    void resume_once() {
        std::coroutine_handle<> next =
            channel_.waiter ? channel_.waiter
                            : static_cast<std::coroutine_handle<>>(body_.handle());
        channel_.waiter = {};
        next.resume();
        if (body_.handle().done() && body_.handle().promise().exception) {
            std::rethrow_exception(body_.handle().promise().exception);
        }
    }

    detail::ProbeChannel channel_;
    SessionBody body_;
    bool started_ = false;
    std::int64_t answered_ = 0;
};

/// The NVM image of a structured helper: typed, serializing on first byte
/// read; a helper whose bytes would not parse back to it
/// (DeviceTraits::round_trips) is serialized right away, so every reader
/// sees exactly what the device would parse.
template <core::Device Puf>
core::ProbeNvm make_probe_nvm(const typename core::DeviceTraits<Puf>::Helper& helper) {
    using Traits = core::DeviceTraits<Puf>;
    if (!Traits::round_trips(helper)) {
        ROPUF_OBS_COUNT("helperdata.blob_stores", 1);
        return Traits::store(helper);
    }
    return core::ProbeNvm::from_helper(helper, &Traits::store, &Traits::same_helper);
}

/// Builds the probe for a structured helper (make_probe_nvm), compared
/// against the enrolled key (keyed mode) or an attacker-chosen `expect`
/// (reprogram mode).
template <core::Device Puf>
core::Probe make_probe(const typename core::DeviceTraits<Puf>::Helper& helper,
                       std::shared_ptr<const bits::BitVec> expect = nullptr) {
    return {make_probe_nvm<Puf>(helper), std::move(expect)};
}

/// Outcome of driving a session against an oracle.
struct DriveResult {
    bool finished = false;         ///< the session ran out of probes to ask
    bool budget_exhausted = false; ///< a BudgetedOracle stopped the run
    std::int64_t batches = 0;      ///< step/absorb cycles driven
};

/// The thin driver: steps the session until done, feeding oracle verdicts. A BudgetExhausted from the oracle ends the
/// run cleanly (the session keeps its partial state). When `truth` and
/// `trace` are given, appends a (cumulative queries, partial-key accuracy)
/// point after every batch whose accuracy moved, plus the final point.
DriveResult run_to_completion(Session& session, core::AnyOracle& oracle,
                              const bits::BitVec* truth = nullptr,
                              std::vector<core::ProgressPoint>* trace = nullptr);

} // namespace ropuf::attack

// Fault injection + fault-tolerant execution: the plan grammar's
// canonical-form/content-hash contract, injector determinism, and the
// chaos-to-clean equivalence proofs — a run that suffered injected store
// failures, torn writes, job throws, hangs, timeouts, quarantines, aborts
// or truncation, once resumed fault-free, must be bitwise identical (in
// deterministic record content) to a run that never saw a fault.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "pt_util.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/errors.hpp"
#include "ropuf/core/sanitizer.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

// Same shape as the golden grid: 4 jobs, milliseconds each.
constexpr const char* kSpecText =
    "name = chaos\n"
    "scenarios = seqpair/swap, fuzzy/reference\n"
    "sigma_noise_mhz = 0.02, 0.05\n"
    "trials = 2\n"
    "master_seed = 3\n";

std::string temp_path(const char* stem) {
    return testing::TempDir() + stem + std::to_string(::getpid()) + ".jsonl";
}

xp::Plan make_plan() {
    return xp::plan_spec(xp::parse_spec(kSpecText), attack::default_registry());
}

// Sanitizer instrumentation slows a healthy attempt down, which would turn
// a tight watchdog budget into spurious timeouts (and burned attempts) on
// jobs that never hung. Tests that pit a hang against a watchdog scale
// BOTH so the intended relation — hang >> timeout >> honest attempt —
// holds on every CI leg. The factor is per sanitizer: TSan costs ~5-15x
// real time, ASan/UBSan ~2-3x — inflating ASan budgets by the TSan factor
// made the chaos tests take far longer than needed and let an injected
// hang fit inside an honest-attempt budget, weakening the invariant.
// Decision-only injector tests (no real sleeping) stay unscaled.
#if ROPUF_TSAN_ENABLED
constexpr double kTimeScale = 10.0;
#elif ROPUF_ASAN_ENABLED
constexpr double kTimeScale = 3.0;
#else
constexpr double kTimeScale = 1.0;
#endif

struct ChaosRun {
    xp::RunStats stats;
    std::string path;
};

/// Runs (or resumes) the plan on `workers` pool threads with an optional
/// fault plan; backoff is zeroed so retry-heavy tests stay fast.
xp::RunStats run_plan_with_faults(int workers, const xp::Plan& plan, const std::string& path,
                                  const std::string& fi_text, bool resume = false,
                                  double job_timeout_ms = 0.0,
                                  const std::atomic<bool>* stop = nullptr) {
    const fi::FaultPlan fault_plan = fi::parse_fault_plan(fi_text);
    fi::Injector injector(fault_plan);
    const std::set<std::string> skip =
        resume ? xp::completed_job_ids(path, plan.hash) : std::set<std::string>{};
    xp::ResultWriter writer(path, /*truncate=*/!resume);
    xp::RunOptions opts;
    opts.workers = workers;
    opts.retry.backoff_base_ms = 0.0;
    opts.retry.job_timeout_ms = job_timeout_ms;
    opts.stop = stop;
    if (!fault_plan.empty()) {
        opts.injector = &injector;
        writer.set_fault_injector(&injector);
    }
    return xp::execute_plan(plan, attack::default_registry(), skip, writer, opts);
}

/// Deterministic record content per job, quarantined records excluded —
/// the comparison unit for chaos-to-clean equivalence. Keyed by job ID
/// because resume appends re-run jobs after the survivors.
std::map<std::string, std::string> ok_content(const std::string& path) {
    std::map<std::string, std::string> by_job;
    for (const xp::JobRecord& r : xp::read_results(path)) {
        if (r.failed()) continue;
        by_job[r.job_id] = std::string(xp::deterministic_prefix(xp::to_jsonl(r)));
    }
    return by_job;
}

// ---------------------------------------------------------------------------
// Fault-plan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyAndNoneParseToNoRules) {
    EXPECT_TRUE(fi::parse_fault_plan("").empty());
    EXPECT_TRUE(fi::parse_fault_plan("  none ").empty());
    EXPECT_TRUE(fi::parse_fault_plan("none").rules.empty());
}

TEST(FaultPlan, CanonicalFormRoundTripsAndHashesStably) {
    // Messy input: out-of-order rules, unsorted duplicate ids, spaces.
    const fi::FaultPlan plan = fi::parse_fault_plan(
        " job_hang( ids=4|2|2, ms=400 ) ; seed(7); store_write_fail(p=0.2) ;"
        "job_throw(ids=1, times=0)");
    const std::string canonical = fi::canonical_fault_plan(plan);
    EXPECT_EQ(canonical,
              "seed(7);store_write_fail(p=0.2);job_throw(p=1,ids=1,times=0);"
              "job_hang(ms=400,ids=2|4,times=1)");
    // parse(canonical(plan)) is a fixpoint, and the content hash follows.
    const fi::FaultPlan reparsed = fi::parse_fault_plan(canonical);
    EXPECT_EQ(fi::canonical_fault_plan(reparsed), canonical);
    EXPECT_EQ(fi::fault_plan_hash(reparsed), fi::fault_plan_hash(plan));
    // A different plan gets a different address.
    EXPECT_NE(fi::fault_plan_hash(fi::parse_fault_plan("seed(8);store_write_fail(p=0.2)")),
              fi::fault_plan_hash(plan));
}

TEST(FaultPlan, RejectsMalformedAndInapplicableTokens) {
    EXPECT_THROW((void)fi::parse_fault_plan("job_explode(p=1)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(zap=1)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(p=abc)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(ids=x)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(p=1"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("seed(nope)"), fi::FaultPlanError);
    // Keys that exist but do not apply to the point are errors, never
    // silently ignored.
    EXPECT_THROW((void)fi::parse_fault_plan("torn_write(p=0.5)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("worker_abort(ids=1)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("store_write_fail(every=2)"),
                 fi::FaultPlanError);
    // Range validation.
    EXPECT_THROW((void)fi::parse_fault_plan("store_write_fail(p=1.5)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("torn_write(every=0)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("worker_abort(after=0)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_hang(ms=-1)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(ids=0,times=-2)"),
                 fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(p=nan)"), fi::FaultPlanError);
    // Integers never wrap: a negative or overflowing seed, and any count or
    // index past INT_MAX (which used to alias a small one), are errors.
    EXPECT_THROW((void)fi::parse_fault_plan("seed(-1)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("seed(99999999999999999999999)"),
                 fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_hang(ids=4294967297,ms=10)"),
                 fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_hang(ms=4294967396)"), fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("torn_write(every=4294967297)"),
                 fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_throw(times=4294967297)"),
                 fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("worker_abort(after=2147483648)"),
                 fi::FaultPlanError);
    EXPECT_THROW((void)fi::parse_fault_plan("job_hang(ms=99999999999999999999999)"),
                 fi::FaultPlanError);
    // The extremes that do fit still parse.
    EXPECT_EQ(fi::parse_fault_plan("seed(18446744073709551615)").seed,
              18446744073709551615ULL);
    EXPECT_EQ(fi::parse_fault_plan("worker_abort(after=2147483647)").rules.at(0).after,
              2147483647);
}

// ---------------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------------

TEST(Injector, StoreFaultSequenceReproducesBitwise) {
    const char* text = "seed(11);store_write_fail(p=0.3);torn_write(every=4)";
    fi::Injector a(fi::parse_fault_plan(text));
    fi::Injector b(fi::parse_fault_plan(text));
    int faults = 0;
    for (int i = 0; i < 200; ++i) {
        const auto fa = a.next_store_fault();
        ASSERT_EQ(static_cast<int>(fa), static_cast<int>(b.next_store_fault())) << "op " << i;
        if (fa != fi::Injector::StoreFault::none) ++faults;
        // torn_write(every=4) alone guarantees a fault at every 4th op.
        if ((i + 1) % 4 == 0) {
            EXPECT_EQ(fa, fi::Injector::StoreFault::torn);
        }
    }
    EXPECT_GT(faults, 50); // p=0.3 plus every 4th: far from silent
    // A different seed realizes a different store-fault sequence.
    fi::Injector c(fi::parse_fault_plan("seed(12);store_write_fail(p=0.3)"));
    fi::Injector d(fi::parse_fault_plan("seed(11);store_write_fail(p=0.3)"));
    int diverged = 0;
    for (int i = 0; i < 200; ++i) {
        if (c.next_store_fault() != d.next_store_fault()) ++diverged;
    }
    EXPECT_GT(diverged, 0);
}

TEST(Injector, JobDecisionsAreKeyedNotStreamed) {
    // Hash-keyed decisions: the answer for (job, attempt) cannot depend on
    // which other jobs were probed first — that is what makes worker
    // scheduling irrelevant.
    const char* text = "seed(5);job_throw(p=0.5,times=0)";
    fi::Injector a(fi::parse_fault_plan(text));
    fi::Injector b(fi::parse_fault_plan(text));
    const auto throws_for = [](const fi::Injector& inj, int job, int attempt) {
        try {
            (void)inj.job_fault(job, attempt);
            return false;
        } catch (const fi::InjectedFault&) {
            return true;
        }
    };
    std::vector<bool> forward;
    std::vector<bool> backward;
    for (int job = 0; job < 32; ++job) forward.push_back(throws_for(a, job, 1));
    for (int job = 31; job >= 0; --job) backward.push_back(throws_for(b, job, 1));
    for (int job = 0; job < 32; ++job) {
        EXPECT_EQ(forward[static_cast<std::size_t>(job)],
                  backward[static_cast<std::size_t>(31 - job)])
            << "job " << job;
    }
    EXPECT_NE(std::count(forward.begin(), forward.end(), true), 0);
    EXPECT_NE(std::count(forward.begin(), forward.end(), false), 0);
}

TEST(Injector, TimesGateAndIdsRestrictFiring) {
    fi::Injector inj(fi::parse_fault_plan("job_throw(ids=3,times=2)"));
    EXPECT_THROW((void)inj.job_fault(3, 1), fi::InjectedFault);
    EXPECT_THROW((void)inj.job_fault(3, 2), fi::InjectedFault);
    EXPECT_EQ(inj.job_fault(3, 3), 0); // past the times gate: retry succeeds
    EXPECT_EQ(inj.job_fault(2, 1), 0); // other jobs untouched
    fi::Injector hang(fi::parse_fault_plan("job_hang(ids=1,ms=250,times=1)"));
    EXPECT_EQ(hang.job_fault(1, 1), 250);
    EXPECT_EQ(hang.job_fault(1, 2), 0);
    EXPECT_EQ(hang.job_fault(0, 1), 0);
    fi::Injector abort_inj(fi::parse_fault_plan("worker_abort(after=2)"));
    EXPECT_FALSE(abort_inj.abort_due(0));
    EXPECT_FALSE(abort_inj.abort_due(1));
    EXPECT_TRUE(abort_inj.abort_due(2));
    EXPECT_TRUE(abort_inj.abort_due(3));
}

// ---------------------------------------------------------------------------
// Failure records
// ---------------------------------------------------------------------------

TEST(FailureRecords, QuarantineRecordRoundTripsAndIsNotCompleted) {
    const xp::Plan plan = make_plan();
    const core::JobError error{core::JobErrorClass::timeout, "exceeded 50 ms \"watchdog\""};
    const xp::JobRecord failed = xp::make_failed_record(plan, plan.jobs[1], error, 3);
    EXPECT_TRUE(failed.failed());
    const std::string line = xp::to_jsonl(failed);
    const xp::JobRecord back = xp::parse_record(line);
    EXPECT_TRUE(back.failed());
    EXPECT_EQ(back.attempts, 3);
    EXPECT_EQ(back.error_class, "timeout");
    EXPECT_EQ(back.error_message, error.message); // escaping round-trips
    EXPECT_EQ(back.job_id, plan.jobs[1].id);
    // The verdict is deterministic content; the error details are host-bound
    // side-fields excluded like timing.
    const std::string_view prefix = xp::deterministic_prefix(line);
    EXPECT_NE(prefix.find("\"outcome\":\"job_failed\""), std::string_view::npos);
    EXPECT_EQ(prefix.find("\"fault\""), std::string_view::npos);

    const std::string path = temp_path("quar");
    {
        xp::ResultWriter writer(path, /*truncate=*/true);
        writer.append(failed);
    }
    // Quarantined records never enter the resume skip set.
    EXPECT_TRUE(xp::completed_job_ids(path, plan.hash).empty());
    std::remove(path.c_str());
}

TEST(FailureRecords, ErrorClassNamesRoundTrip) {
    for (const auto cls :
         {core::JobErrorClass::scenario_exception, core::JobErrorClass::injected_fault,
          core::JobErrorClass::timeout, core::JobErrorClass::store_write,
          core::JobErrorClass::unknown}) {
        EXPECT_EQ(core::job_error_class_from(core::job_error_class_name(cls)), cls);
    }
    EXPECT_EQ(core::job_error_class_from("martian"), core::JobErrorClass::unknown);
}

// ---------------------------------------------------------------------------
// Chaos equivalence: faulted run (+ resume) == clean run, bitwise — on one
// worker and on a four-worker pool, where jobs' trials interleave and
// records still commit in plan order.
// ---------------------------------------------------------------------------

class Chaos : public testing::TestWithParam<int> {
protected:
    xp::RunStats run_with_faults(const xp::Plan& plan, const std::string& path,
                                 const std::string& fi_text, bool resume = false,
                                 double job_timeout_ms = 0.0,
                                 const std::atomic<bool>* stop = nullptr) const {
        return run_plan_with_faults(GetParam(), plan, path, fi_text, resume, job_timeout_ms,
                                    stop);
    }
};

// No instantiation prefix: the cases stay Chaos.<name>/w<workers>, which
// the chaos_smoke ctest entry selects with Chaos.*.
INSTANTIATE_TEST_SUITE_P(, Chaos, testing::Values(1, 4),
                         [](const testing::TestParamInfo<int>& info) {
                             std::string name = "w";
                             name += std::to_string(info.param);
                             return name;
                         });

/// Job indices of a results file, in file order.
std::vector<int> record_indices(const std::string& path) {
    std::vector<int> indices;
    for (const xp::JobRecord& r : xp::read_results(path)) indices.push_back(r.index);
    return indices;
}

TEST_P(Chaos, RetriedJobsMatchCleanRunBitwise) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_retry");
    const std::string chaos = temp_path("chaos_retry");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // Every job throws on its first attempt, then succeeds on retry.
    const xp::RunStats stats = run_with_faults(plan, chaos, "job_throw(times=1)");
    EXPECT_TRUE(stats.complete());
    EXPECT_EQ(stats.executed, 4);
    EXPECT_EQ(stats.retries, 4);
    EXPECT_EQ(ok_content(chaos), ok_content(clean));
    // Retried records carry their attempt count in the fault side-key.
    for (const xp::JobRecord& r : xp::read_results(chaos)) EXPECT_EQ(r.attempts, 2);
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

TEST_P(Chaos, QuarantinedJobIsRetriedByResumeToCleanEquivalence) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_quar");
    const std::string chaos = temp_path("chaos_quar");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // Job 2 fails every attempt: quarantined, run completes around it.
    const xp::RunStats stats = run_with_faults(plan, chaos, "job_throw(ids=2,times=0)");
    EXPECT_FALSE(stats.complete());
    EXPECT_EQ(stats.executed, 3);
    EXPECT_EQ(stats.failed, 1);
    EXPECT_EQ(ok_content(chaos).size(), 3u);

    // Resume with the plan cleared retries exactly the quarantined job.
    const xp::RunStats resumed = run_with_faults(plan, chaos, "", /*resume=*/true);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.executed, 1);
    EXPECT_EQ(resumed.skipped, 3);
    EXPECT_EQ(ok_content(chaos), ok_content(clean));
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

TEST_P(Chaos, WatchdogTimesOutHungAttemptThenRetrySucceeds) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_hang");
    const std::string chaos = temp_path("chaos_hang");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // The first `times` attempts of job 1 sleep 400 ms under a 60 ms
    // watchdog: each is abandoned as a timeout, and the next one runs. With
    // times=2 the hang lands on attempt 2 as well, whose trials a retry
    // runs; attempt 3 runs clean.
    for (const int times : {1, 2}) {
        char hang_plan[64];
        std::snprintf(hang_plan, sizeof hang_plan, "job_hang(ids=1,ms=%d,times=%d)",
                      static_cast<int>(400 * kTimeScale), times);
        const xp::RunStats stats = run_with_faults(plan, chaos, hang_plan,
                                                   /*resume=*/false,
                                                   /*job_timeout_ms=*/60.0 * kTimeScale);
        EXPECT_TRUE(stats.complete()) << hang_plan;
        EXPECT_EQ(stats.retries, times) << hang_plan;
        EXPECT_EQ(ok_content(chaos), ok_content(clean)) << hang_plan;
        for (const xp::JobRecord& r : xp::read_results(chaos)) {
            EXPECT_EQ(r.attempts, r.index == 1 ? times + 1 : 1) << hang_plan;
        }
    }
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

TEST_P(Chaos, StoreFaultsAreRetriedAndTornTailsSkipped) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_store");
    const std::string chaos = temp_path("chaos_store");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // Every 2nd append writes a torn half-line then fails; the executor
    // retries the append and the reader must skip the fragments.
    const xp::RunStats stats = run_with_faults(plan, chaos, "torn_write(every=2)");
    EXPECT_TRUE(stats.complete());
    EXPECT_GT(stats.store_retries, 0);
    xp::ReadStats read_stats;
    (void)xp::read_results(chaos, &read_stats);
    EXPECT_GT(read_stats.skipped_lines, 0);
    EXPECT_EQ(ok_content(chaos), ok_content(clean));

    // last_good_offset is where a salvage truncation would cut: dropping
    // everything past it sheds only trailing garbage — every parseable
    // record survives (interior torn fragments from retried appends stay,
    // the reader skips them either way).
    std::ifstream in(chaos, std::ios::binary);
    std::string prefix(static_cast<std::size_t>(read_stats.last_good_offset), '\0');
    in.read(prefix.data(), read_stats.last_good_offset);
    const std::string truncated = temp_path("chaos_store_trunc");
    std::ofstream(truncated, std::ios::binary) << prefix;
    const auto salvaged = xp::read_results(truncated);
    EXPECT_EQ(salvaged.size(), xp::read_results(chaos).size());
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
    std::remove(truncated.c_str());
}

TEST_P(Chaos, PersistentStoreFailureIsFatalAfterRetries) {
    const xp::Plan plan = make_plan();
    const std::string chaos = temp_path("chaos_dead_store");
    // p=1: every append attempt fails; the executor must give up loudly
    // rather than spin or silently drop records.
    EXPECT_THROW((void)run_with_faults(plan, chaos, "store_write_fail(p=1)"),
                 fi::InjectedFault);
    std::remove(chaos.c_str());
}

TEST_P(Chaos, WorkerAbortIsCrashEquivalentAndResumable) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_abort");
    const std::string chaos = temp_path("chaos_abort");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    const xp::RunStats stats = run_with_faults(plan, chaos, "worker_abort(after=2)");
    EXPECT_TRUE(stats.aborted);
    EXPECT_FALSE(stats.complete());
    EXPECT_EQ(stats.executed, 2);

    const xp::RunStats resumed = run_with_faults(plan, chaos, "", /*resume=*/true);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.skipped, 2);
    EXPECT_EQ(ok_content(chaos), ok_content(clean));
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

TEST_P(Chaos, TrialThrowPropagatesIntoRetryPath) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_trial");
    const std::string chaos = temp_path("chaos_trial");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // The fault fires in core::run_trial, in one trial of job 0's attempt
    // on whichever pool runs it; the AttemptRunner classifies it and fails
    // the attempt like any job failure, and the job is retried past the
    // times gate, then matches clean.
    for (const int times : {1, 2}) {
        const std::string fault = "trial_throw(ids=0,times=" + std::to_string(times) + ")";
        const xp::RunStats stats = run_with_faults(plan, chaos, fault);
        EXPECT_TRUE(stats.complete()) << fault;
        EXPECT_EQ(stats.retries, times) << fault;
        EXPECT_EQ(ok_content(chaos), ok_content(clean)) << fault;
        for (const xp::JobRecord& r : xp::read_results(chaos)) {
            EXPECT_EQ(r.attempts, r.index == 0 ? times + 1 : 1) << fault;
        }
    }
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

TEST_P(Chaos, SigintStopsBetweenJobsAndStaysResumable) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_sig");
    const std::string chaos = temp_path("chaos_sig");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // Deliver a real SIGINT through the installed handler. The flag is set
    // before the run starts, so it stops before dispatching job one —
    // flushed, empty of records, and fully resumable.
    xp::install_sigint_handler();
    ASSERT_EQ(std::raise(SIGINT), 0);
    EXPECT_TRUE(xp::sigint_stop_flag().load());
    const xp::RunStats stats = run_with_faults(plan, chaos, "", /*resume=*/false,
                                               /*job_timeout_ms=*/0.0,
                                               &xp::sigint_stop_flag());
    EXPECT_TRUE(stats.stopped);
    EXPECT_EQ(stats.executed, 0);

    xp::sigint_stop_flag().store(false);
    const xp::RunStats resumed = run_with_faults(plan, chaos, "", /*resume=*/true);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(ok_content(chaos), ok_content(clean));
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

TEST_P(Chaos, InterruptionsLeaveAPlanOrderPrefix) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_prefix");
    const std::string chaos = temp_path("chaos_prefix");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());

    // worker_abort(after=k): exactly jobs 0..k-1, in plan order, however
    // far the pool got with the later jobs' trials.
    for (int k = 1; k <= 3; ++k) {
        const xp::RunStats stats =
            run_with_faults(plan, chaos, "worker_abort(after=" + std::to_string(k) + ")");
        EXPECT_TRUE(stats.aborted);
        std::vector<int> expected(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) expected[static_cast<std::size_t>(i)] = i;
        EXPECT_EQ(record_indices(chaos), expected) << "after=" << k;
    }

    // The stop flag flips while job 1 hangs: jobs 2 and 3 may finish
    // first, but nothing after the unfinished job 1 is written.
    std::atomic<bool> stop{false};
    std::thread stopper([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<int>(100 * kTimeScale)));
        stop.store(true, std::memory_order_relaxed);
    });
    char hang_plan[64];
    std::snprintf(hang_plan, sizeof hang_plan, "job_hang(ids=1,ms=%d,times=1)",
                  static_cast<int>(300 * kTimeScale));
    const xp::RunStats stopped = run_with_faults(plan, chaos, hang_plan, /*resume=*/false,
                                                 /*job_timeout_ms=*/0.0, &stop);
    stopper.join();
    EXPECT_TRUE(stopped.stopped);
    EXPECT_EQ(stopped.failed, 0);
    EXPECT_EQ(record_indices(chaos), std::vector<int>{0});
    const xp::RunStats resumed = run_with_faults(plan, chaos, "", /*resume=*/true);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.skipped, 1);
    EXPECT_EQ(ok_content(chaos), ok_content(clean));
    std::remove(clean.c_str());
    std::remove(chaos.c_str());
}

// ---------------------------------------------------------------------------
// Property: any truncation point + resume == one uninterrupted run
// ---------------------------------------------------------------------------

TEST_P(Chaos, PropertyAnyTruncationPlusResumeMatchesCleanBitwise) {
    const xp::Plan plan = make_plan();
    const std::string clean = temp_path("clean_prop");
    EXPECT_TRUE(run_with_faults(plan, clean, "").complete());
    const auto clean_content = ok_content(clean);

    std::string clean_bytes;
    {
        std::ifstream in(clean, std::ios::binary);
        clean_bytes.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(clean_bytes.empty());

    // The crash model: the process dies mid-write at an arbitrary byte
    // offset. Whatever survives — complete records, a torn tail, or nothing
    // — resume must finish the file to clean-run equivalence.
    const std::string mutilated = temp_path("prop_trunc");
    const pt::Result r = pt::check<std::size_t>(
        "truncate-at-any-offset + resume == clean run", /*seed=*/2026, /*cases=*/40,
        [&](pt::Rng& rng) {
            return static_cast<std::size_t>(rng.uniform_u64(0, clean_bytes.size()));
        },
        [](const std::size_t& offset) {
            // Shrink toward 0: smaller survivors are simpler repros.
            std::vector<std::size_t> candidates;
            if (offset > 0) candidates.push_back(offset / 2);
            if (offset > 0) candidates.push_back(offset - 1);
            return candidates;
        },
        [&](const std::size_t& offset) -> std::string {
            std::ofstream(mutilated, std::ios::binary)
                << clean_bytes.substr(0, offset);
            const xp::RunStats resumed = run_with_faults(plan, mutilated, "",
                                                         /*resume=*/true);
            if (!resumed.complete()) return "resume did not complete the file";
            if (ok_content(mutilated) != clean_content) {
                return "resumed content diverged from the clean run";
            }
            return "";
        },
        [](const std::size_t& offset) { return "truncated at byte " + std::to_string(offset); });
    EXPECT_FALSE(r.failed) << r.summary();
    std::remove(clean.c_str());
    std::remove(mutilated.c_str());
}

} // namespace

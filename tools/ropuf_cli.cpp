// ropuf — the experiment CLI: reproduce the paper in one run.
//
//   ropuf list                         registered scenarios & defenses
//   ropuf plan <spec>                  expand a spec without running it
//   ropuf run <spec> [options]         run every job, write results JSONL
//   ropuf resume <spec> <results>      run exactly the missing job IDs
//   ropuf report <results>             aggregate a results file into tables
//   ropuf report <results> --matrix    attack x defense outcome matrix
//   ropuf report <results> --timings   wall-time percentiles + retry histogram
//
//   ropuf fleet info <spec>            canonical fleet spec, hash, shard table
//   ropuf fleet enroll <spec>          manufacture + enroll into a binary store
//   ropuf fleet campaign <spec>        sharded campaign over the store
//   ropuf fleet resume <spec> <res>    run exactly the missing shards
//   ropuf fleet stats <store>          population entropy / collision metrics
//
// run/resume options:
//   -o <file>            results path (default: <spec name>.jsonl)
//   --workers <n>        pool threads running the trials of every job (0 =
//                        hardware concurrency; at most 1024)
//   --max-jobs <n>       stop after executing n jobs (interruption testing)
//   --max-attempts <n>   per-job attempts before quarantine (default 3)
//   --job-timeout-ms <n> per-attempt watchdog timeout (0 = none)
//   (fleet campaign/resume take both per shard; fleet enroll takes
//   --max-attempts as its store-fault budget and --workers for its shards)
//   --fi <plan>          fault-injection plan (chaos testing); overrides the
//                        ROPUF_FI environment variable
//   --quiet              suppress per-job progress lines
//   --obs                install the metrics registry (adds the per-job "obs"
//                        record side-key); implied by --progress/--trace-out
//   --progress           live one-line status on stderr (auto-on when stderr
//                        is a TTY; --no-progress suppresses)
//   --trace-out <file>   write a Chrome trace-event JSON of the run
//
// Every verb rejects an option it would not read (exit 2) instead of
// silently ignoring it, and options go after the positional arguments
// (`ropuf run --obs <spec>` is a usage error that names --obs).
//
// Observability never changes results: the obs side-key rides outside the
// deterministic record prefix, so an obs-on run is byte-identical (per
// diff_results.py) to an obs-off run.
//
// `run` refuses an existing results file (use `resume`, or a new -o path):
// results are append-only and content-addressed by the spec hash, so
// silently mixing two runs in one file is never what anyone wants.
//
// Exit codes: 0 = every requested job done (a --max-jobs-limited run that
// did its quota is "done"); 1 = operational error; 2 = usage error;
// 3 = incomplete-but-resumable (SIGINT, injected worker_abort, or
// quarantined jobs) — `ropuf resume` finishes the file.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/attack_engine.hpp"
#include "ropuf/core/parallel.hpp"
#include "ropuf/defense/registry.hpp"
#include "ropuf/fi/fault_plan.hpp"
#include "ropuf/fi/injector.hpp"
#include "ropuf/fleet/campaign.hpp"
#include "ropuf/fleet/enroll.hpp"
#include "ropuf/fleet/population.hpp"
#include "ropuf/fleet/spec.hpp"
#include "ropuf/fleet/stats.hpp"
#include "ropuf/fleet/store.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/obs/progress.hpp"
#include "ropuf/obs/trace.hpp"
#include "ropuf/xp/executor.hpp"
#include "ropuf/xp/planner.hpp"
#include "ropuf/xp/result_store.hpp"
#include "ropuf/xp/sweep_spec.hpp"

namespace {

using namespace ropuf;

int usage(std::FILE* out) {
    std::fputs(
        "usage: ropuf <command> [args]\n"
        "\n"
        "  list                       registered scenarios, constructions & defenses\n"
        "  plan <spec>                expand a spec into its job table\n"
        "  run <spec> [options]       run a spec, writing one JSONL record per job\n"
        "  resume <spec> <results>    complete the job IDs missing from <results>\n"
        "  report <results>           render summary tables from a results file\n"
        "  report <results> --matrix  render the attack x defense outcome matrix\n"
        "  report <results> --timings render wall-time percentiles + retry histogram\n"
        "\n"
        "  fleet info <spec>          canonical fleet spec, hash & shard table\n"
        "  fleet enroll <spec>        manufacture + enroll the population store\n"
        "  fleet campaign <spec>      reconstruction campaign over the store\n"
        "  fleet resume <spec> <res>  complete the shards missing from <res>\n"
        "  fleet stats <store>        population entropy / collision metrics\n"
        "\n"
        "run/resume options:\n"
        "  -o <file>            results path (run only; default <spec name>.jsonl)\n"
        "  --workers <n>        pool threads for every job's trials (0 = hardware\n"
        "                       concurrency; at most 1024)\n"
        "  --max-jobs <n>       stop after executing n jobs\n"
        "  --max-attempts <n>   per-job attempts before quarantine (default 3)\n"
        "  --job-timeout-ms <n> per-attempt watchdog timeout in ms (0 = none)\n"
        "  --fi <plan>          fault-injection plan (see README; overrides $ROPUF_FI)\n"
        "  --quiet              suppress per-job progress\n"
        "  --obs                metrics registry on (adds the 'obs' record side-key)\n"
        "  --progress           live status line on stderr (auto-on for a TTY;\n"
        "                       --no-progress suppresses)\n"
        "  --trace-out <file>   write Chrome trace-event JSON (Perfetto-loadable)\n"
        "\n"
        "fleet enroll/campaign/resume options (plus the above where they apply):\n"
        "  --store <file>       enrollment store path (default <spec name>.fleet)\n"
        "  --max-shards <n>     campaign: dispatch at most n pending shards\n"
        "  (campaign/resume apply --max-attempts and --job-timeout-ms per shard;\n"
        "   enroll takes only --store, --workers, --max-attempts, --fi and the obs\n"
        "   options; every --workers count writes the same store bytes)\n"
        "\n"
        "exit codes: 0 done, 1 error, 2 usage,\n"
        "            3 incomplete but resumable (interrupt/abort/quarantine)\n",
        out);
    return out == stderr ? 2 : 0;
}

struct CliOptions {
    std::string output;
    int workers = 0;
    int max_jobs = -1;
    int max_attempts = 3;
    int job_timeout_ms = 0;
    std::string fi_plan;
    bool fi_given = false; ///< --fi seen (even empty/"none" overrides $ROPUF_FI)
    bool quiet = false;
    bool obs = false;          ///< --obs: metrics registry without progress/trace
    bool progress = false;     ///< --progress: force the live status line on
    bool no_progress = false;  ///< --no-progress: suppress even on a TTY
    std::string trace_out;     ///< --trace-out: Chrome trace JSON path
    std::string store;         ///< fleet: --store enrollment store path
    int max_shards = -1;       ///< fleet: --max-shards dispatch quota (-1 = all)
};

/// Whole-token integer parse: "abc" and "3x" must be errors, never a
/// silent 0 (a zero --max-jobs would make the run a no-op that exits 0).
/// Values above `max` are usage errors too.
bool parse_int_arg(const std::string& token, const char* what, int* out, int max = 1 << 20) {
    char* end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (token.empty() || end == nullptr || *end != '\0' || v < 0 || v > max) {
        std::fprintf(stderr, "ropuf: %s expects an integer in [0, %d], got '%s'\n", what, max,
                     token.c_str());
        return false;
    }
    *out = static_cast<int>(v);
    return true;
}

/// Options every run-style verb takes: the fault plan, the obs surfaces,
/// and --quiet (a no-op for the fleet verbs, which print no per-job lines;
/// accepted so one script flag set serves every verb).
constexpr std::string_view kCommonOptions[] = {"--fi",       "--quiet",       "--obs",
                                               "--progress", "--no-progress", "--trace-out"};

/// Parses `args[start..]` for `verb`, which reads the common options plus
/// `accepted`; any other option is a usage error, never silently ignored.
/// The positional arguments before `start` (the spec path, then a results
/// file for resume) come first: an option in their place is a usage error
/// that names the option, not the spec path it displaced.
bool parse_options(const std::vector<std::string>& args, std::size_t start, CliOptions& opts,
                   const char* verb, std::initializer_list<std::string_view> accepted) {
    const std::size_t spec_at = args[0] == "fleet" ? 2 : 1;
    for (std::size_t i = spec_at; i < start; ++i) {
        if (args[i].starts_with('-')) {
            std::fprintf(stderr,
                         "ropuf: %s: option '%s' is placed before the %s; options go after it\n",
                         verb, args[i].c_str(), i == spec_at ? "spec path" : "results file");
            return false;
        }
    }
    for (std::size_t i = start; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (std::find(std::begin(kCommonOptions), std::end(kCommonOptions), arg) ==
                std::end(kCommonOptions) &&
            std::find(accepted.begin(), accepted.end(), arg) == accepted.end()) {
            std::fprintf(stderr, "ropuf: %s does not take option '%s'\n", verb, arg.c_str());
            return false;
        }
        const auto next = [&](const char* what) -> const std::string* {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "ropuf: %s expects a value\n", what);
                return nullptr;
            }
            return &args[++i];
        };
        if (arg == "-o") {
            const std::string* v = next("-o");
            if (v == nullptr) return false;
            opts.output = *v;
        } else if (arg == "--workers") {
            const std::string* v = next("--workers");
            if (v == nullptr ||
                !parse_int_arg(*v, "--workers", &opts.workers, core::kMaxWorkers)) {
                return false;
            }
        } else if (arg == "--max-jobs") {
            const std::string* v = next("--max-jobs");
            if (v == nullptr || !parse_int_arg(*v, "--max-jobs", &opts.max_jobs)) return false;
        } else if (arg == "--max-attempts") {
            const std::string* v = next("--max-attempts");
            if (v == nullptr || !parse_int_arg(*v, "--max-attempts", &opts.max_attempts)) {
                return false;
            }
            if (opts.max_attempts < 1) {
                std::fprintf(stderr, "ropuf: --max-attempts must be >= 1\n");
                return false;
            }
        } else if (arg == "--job-timeout-ms") {
            const std::string* v = next("--job-timeout-ms");
            if (v == nullptr ||
                !parse_int_arg(*v, "--job-timeout-ms", &opts.job_timeout_ms)) {
                return false;
            }
        } else if (arg == "--fi") {
            const std::string* v = next("--fi");
            if (v == nullptr) return false;
            opts.fi_plan = *v;
            opts.fi_given = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--obs") {
            opts.obs = true;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--no-progress") {
            opts.no_progress = true;
        } else if (arg == "--trace-out") {
            const std::string* v = next("--trace-out");
            if (v == nullptr) return false;
            opts.trace_out = *v;
        } else if (arg == "--store") {
            const std::string* v = next("--store");
            if (v == nullptr) return false;
            opts.store = *v;
        } else if (arg == "--max-shards") {
            const std::string* v = next("--max-shards");
            if (v == nullptr || !parse_int_arg(*v, "--max-shards", &opts.max_shards)) {
                return false;
            }
        }
    }
    return true;
}

int cmd_list() {
    const auto& registry = attack::default_registry();
    std::printf("%-26s %-13s %-16s %s\n", "scenario", "construction", "paper", "attack");
    for (const auto& s : registry.scenarios()) {
        std::printf("%-26s %-13s %-16s %s\n", s.name.c_str(), s.construction.c_str(),
                    s.paper_ref.c_str(), s.attack.c_str());
    }
    const auto& defenses = defense::default_registry();
    std::printf("\n%-26s %-28s %s\n", "defense", "reference", "summary");
    for (const auto& d : defenses.defenses()) {
        std::string token = d.name;
        if (!d.defaults.empty()) {
            token = defense::canonical_token(d.name, defenses);
        }
        std::printf("%-26s %-28s %s\n", token.c_str(), d.reference.c_str(),
                    d.summary.c_str());
    }
    std::printf(
        "\n%zu scenarios, %zu defenses. Sweep axes: geometry, sigma_noise_mhz,\n",
        registry.size(), defenses.size());
    std::puts("ambient_c, majority_wins, ecc, query_budget, defense, trials, "
              "master_seed. See specs/*.spec for examples.");
    return 0;
}

int cmd_plan(const std::string& spec_path) {
    const xp::SweepSpec spec = xp::load_spec_file(spec_path);
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());
    std::printf("spec %s  hash %s  %zu jobs\n\n", plan.spec_name.c_str(), plan.hash.c_str(),
                plan.jobs.size());
    std::printf("%-22s %-32s %6s %6s %8s %8s %7s %-18s %6s %12s\n", "job", "scenario", "geom",
                "sigma", "ambient", "ecc", "budget", "defense", "trials", "campaign_seed");
    for (const auto& job : plan.jobs) {
        char geom[16] = "dflt";
        if (job.params.cols > 0) {
            std::snprintf(geom, sizeof geom, "%dx%d", job.params.cols, job.params.rows);
        }
        char sigma[16] = "dflt";
        if (job.params.sigma_noise_mhz >= 0.0) {
            std::snprintf(sigma, sizeof sigma, "%.3g", job.params.sigma_noise_mhz);
        }
        char ecc[16] = "dflt";
        if (job.params.ecc_m > 0) {
            std::snprintf(ecc, sizeof ecc, "%d,%d", job.params.ecc_m, job.params.ecc_t);
        }
        char budget[24] = "inf"; // fits any int64 (20 chars + NUL)
        if (job.params.query_budget > 0) {
            std::snprintf(budget, sizeof budget, "%lld",
                          static_cast<long long>(job.params.query_budget));
        }
        std::printf("%-22s %-32s %6s %6s %8.3g %8s %7s %-18s %6d %12llu\n", job.id.c_str(),
                    job.scenario.c_str(), geom, sigma, job.params.ambient_c, ecc, budget,
                    job.params.defense.empty() ? "none" : job.params.defense.c_str(),
                    job.trials, static_cast<unsigned long long>(job.campaign_seed));
    }
    return 0;
}

std::string default_output(const xp::SweepSpec& spec) { return spec.name + ".jsonl"; }

/// Observability scaffolding shared by every run-style command (xp run /
/// resume and the fleet verbs): metrics registry, optional Chrome trace,
/// optional live progress line. The registry goes in when any obs surface
/// is wanted; progress auto-enables on a TTY stderr. The destructor is the
/// teardown guard — it uninstalls the process-wide pointers on every exit
/// path (including a thrown fatal store error) before the sink/registry
/// objects die.
struct ObsSession {
    std::unique_ptr<obs::Registry> metrics;
    std::unique_ptr<obs::TraceSink> trace_sink;
    std::unique_ptr<obs::ProgressReporter> reporter;

    explicit ObsSession(const CliOptions& opts) {
        const bool progress_live =
            !opts.no_progress && (opts.progress || isatty(fileno(stderr)) != 0);
        const bool obs_on = opts.obs || progress_live || !opts.trace_out.empty();
        if (obs_on) {
            metrics = std::make_unique<obs::Registry>();
            obs::install(metrics.get());
        }
        if (!opts.trace_out.empty()) {
            trace_sink = std::make_unique<obs::TraceSink>(opts.trace_out);
            obs::install_trace(trace_sink.get());
        }
        if (progress_live) {
            reporter = std::make_unique<obs::ProgressReporter>(*metrics);
            reporter->start();
        }
    }
    ~ObsSession() {
        if (reporter != nullptr) reporter->stop();
        obs::install_trace(nullptr);
        obs::install(nullptr);
    }
    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /// Emits the final progress line and flushes the trace — call before
    /// printing the run summary (stop() is idempotent, so the destructor
    /// re-running teardown is harmless).
    void finish() {
        if (reporter != nullptr) reporter->stop();
        obs::install_trace(nullptr);
        if (trace_sink != nullptr) {
            if (trace_sink->close()) {
                std::printf("trace: %s (%zu events%s)\n", trace_sink->path().c_str(),
                            trace_sink->events(),
                            trace_sink->dropped() > 0 ? ", capped" : "");
            } else {
                std::fprintf(stderr, "ropuf: warning: failed to write trace file %s\n",
                             trace_sink->path().c_str());
            }
        }
    }
};

bool file_exists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
}

/// Fault plan resolution: --fi wins (even --fi none, to silence the env),
/// else $ROPUF_FI, else none.
fi::FaultPlan resolve_fault_plan(const CliOptions& opts) {
    std::string fi_text;
    if (opts.fi_given) {
        fi_text = opts.fi_plan;
    } else if (const char* env = std::getenv("ROPUF_FI"); env != nullptr) {
        fi_text = env;
    }
    return fi::parse_fault_plan(fi_text);
}

xp::RetryPolicy retry_policy(const CliOptions& opts) {
    xp::RetryPolicy policy;
    policy.max_attempts = opts.max_attempts;
    policy.job_timeout_ms = static_cast<double>(opts.job_timeout_ms);
    return policy;
}

int run_or_resume(const xp::SweepSpec& spec, const std::string& spec_path,
                  const CliOptions& opts, bool resume, const std::string& results_path) {
    const xp::Plan plan = xp::plan_spec(spec, attack::default_registry());

    std::set<std::string> skip;
    if (resume) {
        skip = xp::completed_job_ids(results_path, plan.hash);
    } else if (file_exists(results_path)) {
        std::fprintf(stderr,
                     "ropuf: %s already exists — use 'ropuf resume %s %s' to complete it, or "
                     "a fresh -o path\n",
                     results_path.c_str(), spec_path.c_str(), results_path.c_str());
        return 1;
    }

    // Parsed before the writer opens so a bad plan fails fast without
    // touching the results file.
    const fi::FaultPlan fault_plan = resolve_fault_plan(opts);
    fi::Injector injector(fault_plan);

    xp::ResultWriter writer(results_path, /*truncate=*/false);
    xp::RunOptions run_opts;
    run_opts.workers = opts.workers;
    run_opts.max_jobs = opts.max_jobs;
    run_opts.progress = opts.quiet ? nullptr : stdout;
    run_opts.retry = retry_policy(opts);
    if (!fault_plan.empty()) {
        run_opts.injector = &injector;
        writer.set_fault_injector(&injector);
    }
    xp::install_sigint_handler();
    run_opts.stop = &xp::sigint_stop_flag();

    ObsSession obs_session(opts);

    std::printf("spec %s  hash %s  %zu jobs -> %s%s\n", plan.spec_name.c_str(),
                plan.hash.c_str(), plan.jobs.size(), results_path.c_str(),
                resume ? " (resume)" : "");
    if (!fault_plan.empty()) {
        std::printf("fault plan %s  %s\n", fi::fault_plan_hash(fault_plan).c_str(),
                    fi::canonical_fault_plan(fault_plan).c_str());
    }
    if (resume && !skip.empty()) {
        std::printf("resume: %zu job(s) already complete, skipping\n", skip.size());
    }
    const xp::RunStats stats = xp::execute_plan(plan, attack::default_registry(), skip, writer,
                                                run_opts);
    obs_session.finish(); // final progress line + trace before the summary
    std::printf("done: %d executed, %d skipped, %d quarantined, %d total\n", stats.executed,
                stats.skipped, stats.failed, stats.total);
    if (stats.retries > 0 || stats.store_retries > 0) {
        std::printf("fault tolerance: %d job retr%s, %d store append retr%s\n", stats.retries,
                    stats.retries == 1 ? "y" : "ies", stats.store_retries,
                    stats.store_retries == 1 ? "y" : "ies");
    }
    if (stats.stopped) std::printf("interrupted: stopped on SIGINT, results flushed\n");
    if (stats.aborted) std::printf("aborted: injected worker_abort, results flushed\n");
    const int remaining = stats.total - stats.executed - stats.skipped;
    if (remaining > 0) {
        std::printf("note: %d job(s) remain — rerun 'ropuf resume %s %s'\n", remaining,
                    spec_path.c_str(), results_path.c_str());
    }
    // A --max-jobs-limited run that hit its quota cleanly still exits 0
    // (scripted interruption tests depend on it); only interrupt, abort,
    // or quarantine signal "incomplete but resumable".
    return (stats.stopped || stats.aborted || stats.failed > 0) ? 3 : 0;
}

int cmd_report(const std::string& results_path, bool matrix, bool timings) {
    xp::ReadStats read_stats;
    const auto records = xp::read_results(results_path, &read_stats);
    const std::string warning = xp::salvage_warning(read_stats);
    if (!warning.empty()) std::fprintf(stderr, "%s\n", warning.c_str());
    if (records.empty()) {
        std::fprintf(stderr, "ropuf: no records in %s\n", results_path.c_str());
        return 1;
    }
    std::string rendered;
    if (matrix) {
        rendered = xp::render_matrix(records);
    } else if (timings) {
        rendered = xp::render_timings(records);
    } else {
        rendered = xp::render_report(records);
    }
    std::printf("%s", rendered.c_str());
    return 0;
}

// --------------------------------------------------------------- fleet

std::string default_store(const fleet::FleetSpec& spec) { return spec.name + ".fleet"; }

int cmd_fleet_info(const std::string& spec_path) {
    const fleet::FleetSpec spec = fleet::load_fleet_spec_file(spec_path);
    const fleet::Population population(spec);
    std::printf("fleet %s  hash %s\n", spec.name.c_str(),
                fleet::fleet_spec_hash(spec).c_str());
    std::printf("%llu devices on %u wafer(s) of %u (%u x %u dies), %dx%d ROs, key %d bits\n",
                static_cast<unsigned long long>(spec.devices), spec.wafers(), spec.wafer_size,
                spec.wafer_cols, spec.wafer_size / spec.wafer_cols, spec.cols, spec.rows,
                spec.key_bits);
    std::printf("%llu campaign shard(s) of %zu devices; %d trial(s) x %d scan(s) per device\n",
                static_cast<unsigned long long>(shard_count(population)),
                fleet::kShardDevices, spec.trials, spec.majority_wins);
    const double store_mib =
        static_cast<double>(fleet::kStoreHeaderBytes +
                            fleet::record_bytes_for(spec.key_bits) * spec.devices) /
        (1024.0 * 1024.0);
    std::printf("store: %zu bytes/record, %.1f MiB fully enrolled\n\n%s",
                fleet::record_bytes_for(spec.key_bits), store_mib,
                fleet::canonical_text(spec).c_str());
    return 0;
}

int cmd_fleet_stats(const std::string& store_path) {
    const fleet::EnrollmentMap store(store_path);
    std::printf("store %s  spec hash %016llx\n", store_path.c_str(),
                static_cast<unsigned long long>(store.header().spec_hash));
    if (store.torn_tail_bytes() > 0) {
        std::fprintf(stderr,
                     "ropuf: warning: ignoring %llu torn tail byte(s) — rerun fleet enroll\n",
                     static_cast<unsigned long long>(store.torn_tail_bytes()));
    }
    if (store.valid_records() < store.header().devices) {
        std::printf("note: partial store — %llu of %llu devices enrolled\n",
                    static_cast<unsigned long long>(store.valid_records()),
                    static_cast<unsigned long long>(store.header().devices));
    }
    std::printf("%s", fleet::render_population_stats(fleet::population_stats(store)).c_str());
    return 0;
}

int cmd_fleet_enroll(const std::string& spec_path, const CliOptions& opts) {
    const fleet::FleetSpec spec = fleet::load_fleet_spec_file(spec_path);
    const fleet::Population population(spec);
    const std::string store_path = opts.store.empty() ? default_store(spec) : opts.store;

    const fi::FaultPlan fault_plan = resolve_fault_plan(opts);
    fi::Injector injector(fault_plan);

    // truncate=false: reopening an existing store resumes at the first
    // missing (or torn) record — enroll is naturally idempotent.
    fleet::EnrollmentWriter writer(store_path, fleet::make_store_header(spec));
    if (!fault_plan.empty()) writer.set_fault_injector(&injector);
    xp::install_sigint_handler();
    const std::atomic<bool>& stop = xp::sigint_stop_flag();

    ObsSession obs_session(opts);
    const std::uint64_t start = writer.next_device();
    std::printf("fleet %s  hash %s  %llu devices -> %s%s\n", spec.name.c_str(),
                fleet::fleet_spec_hash(spec).c_str(),
                static_cast<unsigned long long>(spec.devices), store_path.c_str(),
                start > 0 ? " (resume)" : "");
    if (!fault_plan.empty()) {
        std::printf("fault plan %s  %s\n", fi::fault_plan_hash(fault_plan).c_str(),
                    fi::canonical_fault_plan(fault_plan).c_str());
    }
    if (start > 0) {
        std::printf("resume: %llu device(s) already enrolled, skipping\n",
                    static_cast<unsigned long long>(start));
    }

    int store_retries = 0;
    try {
        store_retries = fleet::enroll_with_retry(population, writer, opts.max_attempts,
                                                 &stop, opts.workers)
                            .store_retries;
    } catch (const fi::InjectedFault& e) {
        obs_session.finish();
        std::fprintf(stderr, "ropuf: store fault persisted across %d attempts: %s\n",
                     opts.max_attempts, e.what());
        return 1;
    }
    obs_session.finish();
    const std::uint64_t done = writer.next_device();
    std::printf("done: %llu enrolled, %llu skipped, %llu total\n",
                static_cast<unsigned long long>(done - start),
                static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(spec.devices));
    if (store_retries > 0) {
        std::printf("fault tolerance: %d store append retr%s\n", store_retries,
                    store_retries == 1 ? "y" : "ies");
    }
    if (done < spec.devices) {
        std::printf("interrupted: %llu device(s) remain — rerun 'ropuf fleet enroll %s'\n",
                    static_cast<unsigned long long>(spec.devices - done), spec_path.c_str());
        return 3;
    }
    return 0;
}

int fleet_run_or_resume(const std::string& spec_path, const CliOptions& opts, bool resume,
                        const std::string& results_arg) {
    const fleet::FleetSpec spec = fleet::load_fleet_spec_file(spec_path);
    const fleet::Population population(spec);
    const std::string store_path = opts.store.empty() ? default_store(spec) : opts.store;
    const std::string results_path =
        resume ? results_arg : (opts.output.empty() ? spec.name + ".jsonl" : opts.output);

    if (!resume && file_exists(results_path)) {
        std::fprintf(stderr,
                     "ropuf: %s already exists — use 'ropuf fleet resume %s %s' to complete "
                     "it, or a fresh -o path\n",
                     results_path.c_str(), spec_path.c_str(), results_path.c_str());
        return 1;
    }

    const fi::FaultPlan fault_plan = resolve_fault_plan(opts);
    fi::Injector injector(fault_plan);

    const fleet::EnrollmentMap enrollment(store_path);
    xp::ResultWriter writer(results_path, /*truncate=*/false);
    fleet::FleetCampaignOptions run_opts;
    run_opts.workers = opts.workers;
    run_opts.max_shards = opts.max_shards;
    run_opts.retry = retry_policy(opts);
    if (!fault_plan.empty()) {
        run_opts.injector = &injector;
        writer.set_fault_injector(&injector);
    }
    xp::install_sigint_handler();
    run_opts.stop = &xp::sigint_stop_flag();

    ObsSession obs_session(opts);
    std::printf("fleet %s  hash %s  %llu shard(s) x %zu devices -> %s%s\n", spec.name.c_str(),
                fleet::fleet_spec_hash(spec).c_str(),
                static_cast<unsigned long long>(shard_count(population)),
                fleet::kShardDevices, results_path.c_str(), resume ? " (resume)" : "");
    if (!fault_plan.empty()) {
        std::printf("fault plan %s  %s\n", fi::fault_plan_hash(fault_plan).c_str(),
                    fi::canonical_fault_plan(fault_plan).c_str());
    }
    const fleet::FleetRunStats stats =
        fleet::run_fleet_campaign(population, enrollment, writer, run_opts);
    obs_session.finish();
    std::printf("done: %llu executed, %llu skipped, %llu quarantined, %llu total shards\n",
                static_cast<unsigned long long>(stats.executed),
                static_cast<unsigned long long>(stats.skipped),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.total_shards));
    if (stats.devices > 0) {
        std::printf("population: %llu/%llu devices all-trials-ok, %llu/%llu trials ok, "
                    "%llu bit error(s)\n",
                    static_cast<unsigned long long>(stats.devices_ok),
                    static_cast<unsigned long long>(stats.devices),
                    static_cast<unsigned long long>(stats.trials_ok),
                    static_cast<unsigned long long>(stats.trials),
                    static_cast<unsigned long long>(stats.bit_errors));
    }
    if (stats.retries > 0 || stats.store_retries > 0) {
        std::printf("fault tolerance: %llu shard retr%s, %llu store append retr%s\n",
                    static_cast<unsigned long long>(stats.retries),
                    stats.retries == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(stats.store_retries),
                    stats.store_retries == 1 ? "y" : "ies");
    }
    if (stats.stopped) std::printf("interrupted: stopped on SIGINT, results flushed\n");
    const std::uint64_t remaining =
        stats.total_shards - stats.skipped - stats.executed;
    if (remaining > 0) {
        std::printf("note: %llu shard(s) remain — rerun 'ropuf fleet resume %s %s'\n",
                    static_cast<unsigned long long>(remaining), spec_path.c_str(),
                    results_path.c_str());
    }
    // Same contract as xp run: a --max-shards quota hit cleanly still exits
    // 0; only interrupt or quarantine signals "incomplete but resumable".
    return (stats.stopped || stats.failed > 0) ? 3 : 0;
}

int cmd_fleet(const std::vector<std::string>& args) {
    if (args.size() < 2) return usage(stderr);
    const std::string& verb = args[1];
    if (verb == "info") {
        if (args.size() != 3) return usage(stderr);
        return cmd_fleet_info(args[2]);
    }
    if (verb == "stats") {
        if (args.size() != 3) return usage(stderr);
        return cmd_fleet_stats(args[2]);
    }
    if (verb == "enroll") {
        if (args.size() < 3) return usage(stderr);
        CliOptions opts;
        if (!parse_options(args, 3, opts, "fleet enroll",
                           {"--store", "--workers", "--max-attempts"})) {
            return 2;
        }
        return cmd_fleet_enroll(args[2], opts);
    }
    if (verb == "campaign" || verb == "resume") {
        const bool resume = verb == "resume";
        if (args.size() < (resume ? 4u : 3u)) return usage(stderr);
        CliOptions opts;
        // resume writes to its positional results file: no -o.
        const bool parsed =
            resume ? parse_options(args, 4, opts, "fleet resume",
                                   {"--store", "--workers", "--max-shards", "--max-attempts",
                                    "--job-timeout-ms"})
                   : parse_options(args, 3, opts, "fleet campaign",
                                   {"-o", "--store", "--workers", "--max-shards",
                                    "--max-attempts", "--job-timeout-ms"});
        if (!parsed) return 2;
        return fleet_run_or_resume(args[2], opts, resume, resume ? args[3] : "");
    }
    std::fprintf(stderr, "ropuf: %s\n",
                 core::unknown_name_message(
                     "fleet verb", verb, {"info", "enroll", "campaign", "resume", "stats"})
                     .c_str());
    return usage(stderr);
}

} // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage(stderr);
    const std::string& command = args[0];
    try {
        if (command == "help" || command == "--help" || command == "-h") return usage(stdout);
        if (command == "list") return cmd_list();
        if (command == "plan") {
            if (args.size() != 2) return usage(stderr);
            return cmd_plan(args[1]);
        }
        if (command == "run") {
            if (args.size() < 2) return usage(stderr);
            CliOptions opts;
            if (!parse_options(args, 2, opts, "run",
                               {"-o", "--workers", "--max-jobs", "--max-attempts",
                                "--job-timeout-ms"})) {
                return 2;
            }
            const xp::SweepSpec spec = xp::load_spec_file(args[1]);
            const std::string out = opts.output.empty() ? default_output(spec) : opts.output;
            return run_or_resume(spec, args[1], opts, /*resume=*/false, out);
        }
        if (command == "resume") {
            if (args.size() < 3) return usage(stderr);
            CliOptions opts;
            // resume writes to its positional results file: no -o.
            if (!parse_options(args, 3, opts, "resume",
                               {"--workers", "--max-jobs", "--max-attempts",
                                "--job-timeout-ms"})) {
                return 2;
            }
            return run_or_resume(xp::load_spec_file(args[1]), args[1], opts, /*resume=*/true,
                                 args[2]);
        }
        if (command == "fleet") return cmd_fleet(args);
        if (command == "report") {
            bool matrix = false;
            bool timings = false;
            std::string path;
            for (std::size_t i = 1; i < args.size(); ++i) {
                if (args[i] == "--matrix") {
                    matrix = true;
                } else if (args[i] == "--timings") {
                    timings = true;
                } else if (path.empty()) {
                    path = args[i];
                } else {
                    return usage(stderr);
                }
            }
            if (path.empty() || (matrix && timings)) return usage(stderr);
            return cmd_report(path, matrix, timings);
        }
        std::fprintf(stderr, "ropuf: %s\n",
                     ropuf::core::unknown_name_message(
                         "command", command,
                         {"list", "plan", "run", "resume", "report", "fleet", "help"})
                         .c_str());
        return usage(stderr);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ropuf: %s\n", e.what());
        return 1;
    }
}

// e2ebench — the repository's end-to-end benchmark binary.
//
//   e2ebench --workload <paper_attacks|defense_matrix|fleet_population>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//            [--pin <digest>] [--smoke]
//
// Prints a human-readable report, one `detail` JSON line (host stamp,
// digests, trace path) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1.
// e2ebench/run.py builds this binary and is the command to use.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "bench_util.hpp"

#include "ropuf/obs/trace.hpp"
#include "ropuf/simd/simd.hpp"

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

// The metric sets, with the units BENCHMARK.json declares for them.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"cpu_s", "s"},           {"parallel_eff", "ratio"},
    {"queries_per_s", "1/s"}, {"cpu_us_per_query", "us"},
    {"meas_per_s", "1/s"},    {"enroll_devices_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"attack.step_s", "s"},         {"attack.batches", "count"},
    {"attack.probes", "count"},     {"ecc.regen_s", "s"},
    {"ecc.regen_calls", "count"},   {"ecc.regen_us_p50", "us"},
    {"ecc.regen_us_p99", "us"},     {"helperdata.parse_s", "s"},
    {"helperdata.check_s", "s"},    {"helperdata.encode_s", "s"},
    {"helperdata.blob_bytes", "B"}, {"sim.measure_s", "s"},
    {"sim.measurements", "count"},  {"sim.meas_per_s", "1/s"},
    {"defense.self_s", "s"},        {"defense.refused_frac", "ratio"},
    {"core.oracle_other_s", "s"},   {"xp.busy_frac", "ratio"},
    {"xp.gap_s", "s"},              {"xp.append_us", "us"},
    {"xp.read_s", "s"},             {"fleet.enroll_s", "s"},
    {"fleet.store_mb_per_s", "MiB/s"}, {"fleet.map_open_s", "s"},
    {"fleet.campaign_s", "s"},      {"fleet.steals", "count"},
    {"fleet.measure_s", "s"},       {"fleet.shard_ms_p50", "ms"},
    {"fleet.shard_ms_p95", "ms"},   {"traced.other_s", "s"},
    {"traced.overhead_frac", "ratio"},
};

int usage(const char* why) {
    std::fprintf(stderr, "e2ebench: %s\n", why);
    std::fprintf(stderr,
                 "usage: e2ebench --workload <paper_attacks|defense_matrix|fleet_population> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--pin <digest>] "
                 "[--smoke]\n");
    return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
    if (text.empty() || text[0] == '-') return false;
    char* end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

std::string json_escape(const std::string& text) {
    std::string out;
    ropuf::obs::append_trace_escaped(out, text);
    return out;
}

} // namespace

int main(int argc, char** argv) {
    e2e::Options opts;
    opts.workers = std::min(4, e2e::nproc());
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opts.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed" && parse_u64(value, &n)) {
            opts.seed = n;
        } else if (arg == "--seconds" && parse_u64(value, &n) && n >= 1 && n <= 600) {
            opts.seconds = static_cast<double>(n);
        } else if (arg == "--trace" && (value == "0" || value == "1")) {
            opts.trace = value == "1";
            have_trace = true;
        } else if (arg == "--work-dir") {
            opts.work_dir = value;
        } else if (arg == "--pin") {
            opts.pin = value;
        } else {
            return usage(("bad argument " + arg + " " + value).c_str());
        }
    }
    if (opts.workload != "paper_attacks" && opts.workload != "defense_matrix" &&
        opts.workload != "fleet_population") {
        return usage("unknown or missing --workload");
    }
    if (!have_trace || opts.work_dir.empty()) return usage("--trace and --work-dir are required");

    // Timings of unoptimized or instrumented code describe the build, not
    // the program: refuse them.
    if (!benchutil::optimized_build() || ropuf::core::sanitized_build()) {
        std::fprintf(stderr, "e2ebench: refusing a %s build with sanitizer '%s'; build Release "
                     "without sanitizers\n",
                     benchutil::ropuf_build_type(), ropuf::core::sanitizer_name());
        return 1;
    }

    const e2e::HostCpu host0 = e2e::read_host_cpu();
    e2e::Outcome out;
    try {
        out = opts.workload == "fleet_population" ? e2e::run_fleet_workload(opts)
                                                  : e2e::run_xp_workload(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s failed: %s\n", opts.workload.c_str(), e.what());
        return 1;
    }
    const e2e::HostCpu host1 = e2e::read_host_cpu();
    const double steal = host0.ok && host1.ok && host1.total > host0.total
                             ? (host1.steal - host0.steal) / (host1.total - host0.total)
                             : -1.0;

    // Exactly the declared metric set, each finite.
    const std::vector<MetricSpec>& specs = opts.trace ? kPerLayer : kEndToEnd;
    std::map<std::string, double> values(out.metrics.begin(), out.metrics.end());
    if (values.size() != out.metrics.size() || values.size() != specs.size()) {
        std::fprintf(stderr, "e2ebench: emitted %zu metrics, expected %zu\n", out.metrics.size(),
                     specs.size());
        return 1;
    }
    for (const MetricSpec& m : specs) {
        const auto it = values.find(m.name);
        if (it == values.end()) {
            std::fprintf(stderr, "e2ebench: metric %s was not emitted\n", m.name);
            return 1;
        }
        if (!std::isfinite(it->second)) {
            out.fail(std::string("metric ") + m.name + " is not finite");
            it->second = 0.0;
        }
    }

    const double eff = out.median_parallel_eff;
    const bool starved = opts.workers > 1 && eff >= 0.0 && eff < 1.25 / opts.workers;

    std::printf("e2ebench %s  seed %llu  %s run  %d worker(s)\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.trace ? "traced" : "untraced",
                opts.workers);
    std::printf("host: nproc %d, hardware_concurrency %u, simd %s, build %s, sanitizer %s, "
                "steal %.4f\n",
                e2e::nproc(), std::thread::hardware_concurrency(),
                ropuf::simd::path_name(ropuf::simd::active_path()), benchutil::ropuf_build_type(),
                ropuf::core::sanitizer_name(), steal);
    if (starved) {
        std::printf("STARVED: median parallel_eff %.3f is about 1/workers — the host gave this "
                    "run one core's worth of CPU; read wall-clock figures as host starvation, "
                    "not code\n",
                    eff);
    }
    for (const MetricSpec& m : specs) {
        std::printf("  %-24s %16.6g %s\n", m.name, values[m.name], m.unit);
    }
    std::printf("  %-24s %16.6g %s\n", "failed_frac",
                out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 1.0,
                "ratio");
    std::printf("  attempted %lld, failed %lld, %s\n", out.attempted, out.failed,
                out.correct ? "outputs verified" : "OUTPUTS NOT VERIFIED");

    std::string detail = "{\"workload\":\"" + json_escape(opts.workload) + "\"";
    detail += ",\"seed\":" + std::to_string(opts.seed);
    detail += ",\"workers\":" + std::to_string(opts.workers);
    detail += ",\"nproc\":" + std::to_string(e2e::nproc());
    detail += ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency());
    detail += ",\"simd\":\"" + std::string(ropuf::simd::path_name(ropuf::simd::active_path())) +
              "\"," + benchutil::json_build_context();
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"host_steal_frac\":%.6f", steal);
    detail += buf;
    detail += std::string(",\"starved\":") + (starved ? "true" : "false");
    for (const auto& [key, value] : out.detail) {
        detail += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    }
    std::printf("detail %s}\n", detail.c_str());

    std::string result = std::string("{\"correct\": ") + (out.correct ? "true" : "false");
    result += ", \"attempted\": " + std::to_string(std::max(1LL, out.attempted));
    result += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& m : specs) {
        std::snprintf(buf, sizeof buf, "%.17g", values[m.name]);
        result += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + buf +
                  ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    result += "}}";
    std::printf("%s\n", result.c_str());
    return 0;
}

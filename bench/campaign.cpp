// E15 — Monte-Carlo campaign scaling: the paper's attack costs as
// population statistics, and the runner's throughput as workers scale.
//
// Runs one registered scenario over N independently manufactured chips at a
// sweep of worker counts, prints the per-worker-count summaries, verifies
// that every worker count produced bitwise-identical campaign results (the
// split-stream seed schedule makes this a hard guarantee, not a hope), and
// emits BENCH_campaign.json with the scaling table.
//
//   usage: bench_campaign [scenario] [trials] [master_seed] [out.json]
//   defaults:             seqpair/swap 100     1            BENCH_campaign.json
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"

namespace {

using ropuf::core::CampaignConfig;
using ropuf::core::CampaignRunner;
using ropuf::core::CampaignSummary;

/// The experiment-defining fields must not depend on the worker count.
bool same_results(const CampaignSummary& a, const CampaignSummary& b) {
    return a.key_recovered_count == b.key_recovered_count &&
           a.success_rate == b.success_rate && a.mean_accuracy == b.mean_accuracy &&
           a.total_measurements == b.total_measurements &&
           a.queries.mean == b.queries.mean && a.queries.stddev == b.queries.stddev &&
           a.queries.p95 == b.queries.p95 && a.measurements.mean == b.measurements.mean;
}

std::vector<int> worker_sweep() {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    std::vector<int> sweep = {1, 2, 4};
    sweep.push_back(static_cast<int>(hw));
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
    return sweep;
}

/// Whole-token unsigned parse within [min, max]: garbage, a sign, trailing
/// junk or overflow is an error, never a silent 0.
bool parse_arg(const char* text, unsigned long long min, unsigned long long max,
               unsigned long long* out) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE || v < min || v > max) {
        return false;
    }
    *out = v;
    return true;
}

} // namespace

int main(int argc, char** argv) {
    const std::string scenario = argc > 1 ? argv[1] : "seqpair/swap";
    unsigned long long trials_arg = 100;
    unsigned long long seed_arg = 1;
    if (argc > 5 || (argc > 2 && !parse_arg(argv[2], 1, 1 << 20, &trials_arg)) ||
        (argc > 3 && !parse_arg(argv[3], 0, ~0ULL, &seed_arg))) {
        std::fputs("usage: bench_campaign [scenario] [trials >= 1] [master_seed] [out.json]\n",
                   stderr);
        return 2;
    }
    const int trials = static_cast<int>(trials_arg);
    const std::uint64_t master_seed = seed_arg;
    const std::string out_path = argc > 4 ? argv[4] : "BENCH_campaign.json";

    benchutil::header("E15 campaign scaling", "Sec. VI attack costs as distributions",
                      "attack cost claims hold over chip populations; the runner "
                      "scales near-linearly with workers");
    benchutil::warn_if_debug_build("bench_campaign");

    const CampaignRunner runner(ropuf::attack::default_registry());
    const auto sweep = worker_sweep();

    std::printf("\nscenario=%s trials=%d master_seed=%llu hardware_concurrency=%u\n\n",
                scenario.c_str(), trials, static_cast<unsigned long long>(master_seed),
                std::thread::hardware_concurrency());
    std::printf("%s\n", ropuf::core::campaign_table_header().c_str());

    std::vector<CampaignSummary> summaries;
    for (int workers : sweep) {
        CampaignConfig config;
        config.trials = trials;
        config.workers = workers;
        config.master_seed = master_seed;
        config.keep_reports = false;
        summaries.push_back(runner.run(scenario, config));
        std::printf("%s\n", ropuf::core::campaign_table_row(summaries.back()).c_str());
    }

    bool deterministic = true;
    for (std::size_t i = 1; i < summaries.size(); ++i) {
        deterministic = deterministic && same_results(summaries[0], summaries[i]);
    }
    const double base_wall = summaries.front().wall_ms;
    std::printf("\nresults identical across worker counts: %s\n",
                deterministic ? "YES" : "NO (BUG)");
    benchutil::section("scaling vs 1 worker");
    for (const auto& s : summaries) {
        std::printf("  %2d workers: %8.1f ms  speedup %.2fx\n", s.workers, s.wall_ms,
                    s.wall_ms > 0.0 ? base_wall / s.wall_ms : 0.0);
    }

    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
        return 1;
    }
    std::string json = "{\"context\":{";
    json += benchutil::json_build_context();
    char buf[160];
    std::snprintf(buf, sizeof buf, ",\"hardware_concurrency\":%u,\"deterministic\":%s},",
                  std::thread::hardware_concurrency(), deterministic ? "true" : "false");
    json += buf;
    json += "\"campaigns\":[";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        if (i > 0) json += ',';
        json += ropuf::core::to_json(summaries[i]);
    }
    json += "],\"speedup_vs_1_worker\":[";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        if (i > 0) json += ',';
        std::snprintf(buf, sizeof buf, "{\"workers\":%d,\"speedup\":%.3f}",
                      summaries[i].workers,
                      summaries[i].wall_ms > 0.0 ? base_wall / summaries[i].wall_ms : 0.0);
        json += buf;
    }
    json += "]}\n";
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", out_path.c_str());
    return deterministic ? 0 : 2;
}

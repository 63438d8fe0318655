// campaign_demo: attack costs as population statistics.
//
// A single AttackReport answers "did this chip fall, and at what cost?"; the
// paper's claims are about *distributions* — success probability and query
// cost over many independently manufactured chips. This demo runs a
// Monte-Carlo campaign per scenario on the worker pool and prints the
// aggregate view: success rate, query mean/spread/p95, and the runner's
// measurement throughput.
//
// Usage:
//   campaign_demo                          30-trial campaign per scenario
//   campaign_demo <scenario> [trials] [workers] [master_seed]
#include <cstdio>
#include <string>
#include <thread>

#include "cli_args.hpp"
#include "ropuf/attack/scenarios.hpp"
#include "ropuf/core/campaign.hpp"

int main(int argc, char** argv) {
    using namespace ropuf;
    using examples::parse_arg;

    auto& registry = attack::default_registry();
    const core::CampaignRunner runner(registry);

    unsigned long long trials = 30;
    unsigned long long workers = 0;
    unsigned long long master_seed = 1;
    if (argc > 5 || (argc > 2 && !parse_arg(argv[2], 1, 1 << 20, &trials)) ||
        (argc > 3 && !parse_arg(argv[3], 0, 1 << 10, &workers)) ||
        (argc > 4 && !parse_arg(argv[4], 0, ~0ULL, &master_seed))) {
        std::fputs("usage: campaign_demo [<scenario> [trials >= 1] [workers, 0 = all cores] "
                   "[master_seed]]\n",
                   stderr);
        return 2;
    }
    core::CampaignConfig config;
    config.trials = static_cast<int>(trials);
    config.workers = static_cast<int>(workers);
    config.master_seed = master_seed;
    config.keep_reports = false;

    std::puts("=== Monte-Carlo attack campaigns (population statistics) ===\n");
    std::printf("trials per scenario: %d, workers: %d (0 = hardware_concurrency = %u)\n\n",
                config.trials, config.workers, std::thread::hardware_concurrency());
    std::printf("%s\n", core::campaign_table_header().c_str());

    const auto run_one = [&](const std::string& name) {
        const auto summary = runner.run(name, config);
        std::printf("%s\n", core::campaign_table_row(summary).c_str());
        return summary;
    };

    if (argc > 1) {
        const std::string name = argv[1];
        if (registry.find(name) == nullptr) {
            std::fprintf(stderr, "unknown scenario: %s\n", name.c_str());
            return 1;
        }
        const auto summary = run_one(name);
        std::puts("\nJSON:");
        std::printf("%s\n", core::to_json(summary).c_str());
        return 0;
    }

    for (const auto& scenario : registry.scenarios()) run_one(scenario.name);

    std::puts("\nSeed derivation: trial t of master seed S runs with the first output");
    std::puts("of the t-th split() stream of Xoshiro256pp(S), computed before any");
    std::puts("worker starts — results are bitwise identical for a fixed master seed");
    std::puts("regardless of worker count.");
    return 0;
}

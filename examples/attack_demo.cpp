// attack_demo: every key-recovery attack of the paper, end to end, driven
// from the scenario registry. The attacker only ever (a) reads public helper
// NVM, (b) writes public helper NVM, (c) observes whether key regeneration
// failed — one failure bit per query, uniformly across all five
// constructions.
//
// Usage:
//   attack_demo                 run every registered scenario
//   attack_demo <name> [seed]   run one scenario (e.g. "group/sortmerge")
#include <cstdio>
#include <string>

#include "cli_args.hpp"
#include "ropuf/attack/scenarios.hpp"

int main(int argc, char** argv) {
    using namespace ropuf;

    auto& registry = attack::default_registry();
    const core::AttackEngine engine(registry);

    core::ScenarioParams params;
    unsigned long long seed = params.seed;
    if (argc > 3 || (argc > 2 && !examples::parse_arg(argv[2], 0, ~0ULL, &seed))) {
        std::fputs("usage: attack_demo [<scenario> [seed]]\n", stderr);
        return 2;
    }
    params.seed = seed;

    std::puts("=== RO PUF helper-data manipulation attacks (registry-driven) ===\n");
    std::printf("%zu registered scenarios:\n", registry.size());
    for (const auto& s : registry.scenarios()) {
        std::printf("  %-24s %-12s %s\n", s.name.c_str(), s.paper_ref.c_str(),
                    s.description.c_str());
    }
    std::puts("");

    std::vector<core::AttackReport> reports;
    if (argc > 1) {
        const std::string name = argv[1];
        if (registry.find(name) == nullptr) {
            std::fprintf(stderr, "%s\n",
                         ropuf::core::unknown_name_message("scenario", name, registry.names())
                             .c_str());
            return 1;
        }
        reports.push_back(engine.run(name, params));
    } else {
        reports = engine.run_all(params);
    }

    std::puts(core::report_table_header().c_str());
    for (const auto& report : reports) {
        std::puts(core::report_table_row(report).c_str());
        if (!report.notes.empty()) std::printf("%26s%s\n", "", report.notes.c_str());
    }

    int recovered = 0;
    for (const auto& report : reports) recovered += report.key_recovered;
    std::printf("\n=> %d/%zu scenarios end in full key recovery "
                "(maskedchain/probe is key-free by design)\n",
                recovered, reports.size());
    return 0;
}

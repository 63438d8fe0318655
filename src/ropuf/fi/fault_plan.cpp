#include "ropuf/fi/fault_plan.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace ropuf::fi {

namespace {

constexpr struct {
    FaultPoint point;
    const char* name;
} kPoints[] = {
    {FaultPoint::store_write_fail, "store_write_fail"},
    {FaultPoint::torn_write, "torn_write"},
    {FaultPoint::job_throw, "job_throw"},
    {FaultPoint::job_hang, "job_hang"},
    {FaultPoint::trial_throw, "trial_throw"},
    {FaultPoint::worker_abort, "worker_abort"},
};

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
    return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
    std::vector<std::string_view> parts;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = std::min(s.find(sep, start), s.size());
        parts.push_back(trim(s.substr(start, end - start)));
        start = end + 1;
    }
    return parts;
}

double parse_double(std::string_view token, std::string_view value) {
    const std::string text(value);
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0') {
        throw FaultPlanError("fault token " + std::string(token) +
                             ": expected a number, got '" + text + "'");
    }
    return v;
}

/// Whole-token integer that fits an int: an out-of-range value is an
/// error, never a silent wrap onto some other job index or count.
int parse_int(std::string_view token, std::string_view value) {
    const std::string text(value);
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0') {
        throw FaultPlanError("fault token " + std::string(token) +
                             ": expected an integer, got '" + text + "'");
    }
    if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
        throw FaultPlanError("fault token " + std::string(token) + ": integer '" + text +
                             "' is out of range");
    }
    return static_cast<int>(v);
}

std::vector<int> parse_ids(std::string_view token, std::string_view value) {
    std::vector<int> ids;
    for (const std::string_view part : split(value, '|')) {
        const int id = parse_int(token, part);
        if (id < 0) {
            throw FaultPlanError("fault token " + std::string(token) +
                                 ": ids must be non-negative job indices");
        }
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

/// Shortest decimal form that round-trips through strtod: `0.2` stays
/// `0.2` in the canonical text instead of `0.20000000000000001`, and the
/// content-address hash is still exact.
void append_number(std::string& out, double value) {
    char buf[48];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value) break;
    }
    out += buf;
}

std::uint64_t fnv1a64(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::string_view fault_point_name(FaultPoint point) {
    for (const auto& entry : kPoints) {
        if (entry.point == point) return entry.name;
    }
    return "?";
}

FaultPlan parse_fault_plan(std::string_view text) {
    FaultPlan plan;
    text = trim(text);
    if (text.empty() || text == "none") return plan;

    for (const std::string_view token : split(text, ';')) {
        if (token.empty()) continue;

        // Split `name` / `name(args)`.
        std::string_view name = token;
        std::string_view args;
        if (const std::size_t open = token.find('('); open != std::string_view::npos) {
            if (token.back() != ')') {
                throw FaultPlanError("fault token " + std::string(token) +
                                     ": unbalanced parentheses");
            }
            name = trim(token.substr(0, open));
            args = trim(token.substr(open + 1, token.size() - open - 2));
        }

        if (name == "seed") {
            if (args.empty()) {
                throw FaultPlanError("fault token seed: expects seed(<u64>)");
            }
            // strtoull negates a leading '-' and saturates on overflow;
            // both must be errors, not a wrapped seed.
            const std::string value(args);
            char* end = nullptr;
            errno = 0;
            plan.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == nullptr || *end != '\0' || value.find('-') != std::string::npos ||
                errno == ERANGE) {
                throw FaultPlanError("fault token seed: expected an unsigned 64-bit integer, "
                                     "got '" + value + "'");
            }
            continue;
        }

        FaultRule rule;
        bool known = false;
        for (const auto& entry : kPoints) {
            if (name == entry.name) {
                rule.point = entry.point;
                known = true;
                break;
            }
        }
        if (!known) {
            std::string allowed = "seed";
            for (const auto& entry : kPoints) {
                allowed += ", ";
                allowed += entry.name;
            }
            throw FaultPlanError("unknown fault token '" + std::string(name) +
                                 "' (expected one of: " + allowed + ")");
        }

        // Point-independent argument parse; validity is checked per point
        // below so `torn_write(p=0.5)` is an error, not silently ignored.
        bool saw_p = false, saw_every = false, saw_ids = false, saw_ms = false,
             saw_times = false, saw_after = false;
        for (const std::string_view arg : split(args, ',')) {
            if (arg.empty()) continue;
            const std::size_t eq = arg.find('=');
            if (eq == std::string_view::npos) {
                throw FaultPlanError("fault token " + std::string(name) +
                                     ": arguments are key=value, got '" + std::string(arg) +
                                     "'");
            }
            const std::string_view key = trim(arg.substr(0, eq));
            const std::string_view value = trim(arg.substr(eq + 1));
            if (key == "p") {
                rule.p = parse_double(name, value);
                saw_p = true;
            } else if (key == "every") {
                rule.every = parse_int(name, value);
                saw_every = true;
            } else if (key == "ids") {
                rule.ids = parse_ids(name, value);
                saw_ids = true;
            } else if (key == "ms") {
                rule.ms = parse_int(name, value);
                saw_ms = true;
            } else if (key == "times") {
                rule.times = parse_int(name, value);
                saw_times = true;
            } else if (key == "after") {
                rule.after = parse_int(name, value);
                saw_after = true;
            } else {
                throw FaultPlanError("fault token " + std::string(name) + ": unknown key '" +
                                     std::string(key) +
                                     "' (known: p, every, ids, ms, times, after)");
            }
        }

        const auto reject = [&](bool saw, const char* key) {
            if (saw) {
                throw FaultPlanError("fault token " + std::string(name) + ": key '" + key +
                                     "' does not apply to this point");
            }
        };
        switch (rule.point) {
            case FaultPoint::store_write_fail:
                reject(saw_every, "every");
                reject(saw_ids, "ids");
                reject(saw_ms, "ms");
                reject(saw_times, "times");
                reject(saw_after, "after");
                if (!saw_p || !(rule.p >= 0.0 && rule.p <= 1.0)) {
                    throw FaultPlanError("store_write_fail requires p in [0, 1]");
                }
                break;
            case FaultPoint::torn_write:
                reject(saw_p, "p");
                reject(saw_ids, "ids");
                reject(saw_ms, "ms");
                reject(saw_times, "times");
                reject(saw_after, "after");
                if (!saw_every || rule.every < 1) {
                    throw FaultPlanError("torn_write requires every >= 1");
                }
                break;
            case FaultPoint::job_throw:
            case FaultPoint::trial_throw:
                reject(saw_every, "every");
                reject(saw_ms, "ms");
                reject(saw_after, "after");
                if (!(rule.p >= 0.0 && rule.p <= 1.0)) { // NaN included
                    throw FaultPlanError(std::string(name) + " requires p in [0, 1]");
                }
                if (rule.times < 0) {
                    throw FaultPlanError(std::string(name) + " requires times >= 0");
                }
                break;
            case FaultPoint::job_hang:
                reject(saw_p, "p");
                reject(saw_every, "every");
                reject(saw_after, "after");
                if (!saw_ms || rule.ms < 0) {
                    throw FaultPlanError("job_hang requires ms >= 0");
                }
                if (rule.times < 0) {
                    throw FaultPlanError("job_hang requires times >= 0");
                }
                break;
            case FaultPoint::worker_abort:
                reject(saw_p, "p");
                reject(saw_every, "every");
                reject(saw_ids, "ids");
                reject(saw_ms, "ms");
                reject(saw_times, "times");
                if (!saw_after || rule.after < 1) {
                    throw FaultPlanError("worker_abort requires after >= 1");
                }
                break;
        }
        plan.rules.push_back(std::move(rule));
    }
    return plan;
}

std::string canonical_fault_plan(const FaultPlan& plan) {
    // Stable sort by injection point; parse order breaks ties so two
    // job_throw rules with different id sets keep their relative order.
    std::vector<const FaultRule*> rules;
    rules.reserve(plan.rules.size());
    for (const FaultRule& rule : plan.rules) rules.push_back(&rule);
    std::stable_sort(rules.begin(), rules.end(), [](const FaultRule* a, const FaultRule* b) {
        return static_cast<int>(a->point) < static_cast<int>(b->point);
    });

    std::string out = "seed(" + std::to_string(plan.seed) + ")";
    const auto append_ids = [&](const FaultRule& rule) {
        if (rule.ids.empty()) return;
        out += ",ids=";
        for (std::size_t i = 0; i < rule.ids.size(); ++i) {
            if (i > 0) out += '|';
            out += std::to_string(rule.ids[i]);
        }
    };
    for (const FaultRule* rule : rules) {
        out += ';';
        out += fault_point_name(rule->point);
        switch (rule->point) {
            case FaultPoint::store_write_fail:
                out += "(p=";
                append_number(out, rule->p);
                out += ')';
                break;
            case FaultPoint::torn_write:
                out += "(every=" + std::to_string(rule->every) + ')';
                break;
            case FaultPoint::job_throw:
            case FaultPoint::trial_throw:
                out += "(p=";
                append_number(out, rule->p);
                append_ids(*rule);
                out += ",times=" + std::to_string(rule->times) + ')';
                break;
            case FaultPoint::job_hang:
                out += "(ms=" + std::to_string(rule->ms);
                append_ids(*rule);
                out += ",times=" + std::to_string(rule->times) + ')';
                break;
            case FaultPoint::worker_abort:
                out += "(after=" + std::to_string(rule->after) + ')';
                break;
        }
    }
    return out;
}

std::string fault_plan_hash(const FaultPlan& plan) {
    const std::uint64_t h = fnv1a64(canonical_fault_plan(plan));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

} // namespace ropuf::fi

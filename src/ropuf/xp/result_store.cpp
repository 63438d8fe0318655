#include "ropuf/xp/result_store.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "ropuf/fi/injector.hpp"
#include "ropuf/obs/metrics.hpp"
#include "ropuf/simd/simd.hpp"
#include "ropuf/xp/json.hpp"

namespace ropuf::xp {

namespace {

constexpr std::string_view kTimingKey = ",\"timing\":";

void write_metric(obs::JsonWriter& w, std::string_view name, const core::MetricSummary& m) {
    w.key(name).begin_object().key("mean").number(m.mean).key("stddev").number(m.stddev);
    w.key("min").number(m.min).key("max").number(m.max).key("p95").number(m.p95);
    w.end_object();
}

core::MetricSummary metric_from(const JsonValue& parent, std::string_view key) {
    core::MetricSummary m;
    const JsonValue* obj = parent.find(key);
    if (obj == nullptr || !obj->is_object()) return m;
    m.mean = obj->number_or("mean", 0.0);
    m.stddev = obj->number_or("stddev", 0.0);
    m.min = obj->number_or("min", 0.0);
    m.max = obj->number_or("max", 0.0);
    m.p95 = obj->number_or("p95", 0.0);
    return m;
}

} // namespace

JobRecord make_record(const Plan& plan, const Job& job, const core::CampaignSummary& summary) {
    JobRecord record;
    record.spec_name = plan.spec_name;
    record.spec_hash = plan.hash;
    record.job_id = job.id;
    record.index = job.index;
    record.scenario = job.scenario;
    record.params = job.params;
    record.trials = job.trials;
    record.root_seed = job.root_seed;
    record.campaign_seed = job.campaign_seed;
    record.key_recovered_count = summary.key_recovered_count;
    record.success_rate = summary.success_rate;
    record.mean_accuracy = summary.mean_accuracy;
    record.outcomes = summary.outcomes;
    record.total_measurements = summary.total_measurements;
    record.queries = summary.queries;
    record.measurements = summary.measurements;
    record.workers = summary.workers;
    record.wall_ms = summary.wall_ms;
    record.trial_wall_ms_sum = summary.trial_wall_ms_sum;
    record.measurements_per_s = summary.measurements_per_s;
    record.simd = simd::path_name(simd::active_path());
    record.hardware_concurrency = static_cast<int>(std::thread::hardware_concurrency());
    return record;
}

JobRecord make_failed_record(const Plan& plan, const Job& job, const core::JobError& error,
                             int attempts) {
    JobRecord record;
    record.spec_name = plan.spec_name;
    record.spec_hash = plan.hash;
    record.job_id = job.id;
    record.index = job.index;
    record.scenario = job.scenario;
    record.params = job.params;
    record.trials = job.trials;
    record.root_seed = job.root_seed;
    record.campaign_seed = job.campaign_seed;
    record.simd = simd::path_name(simd::active_path());
    record.hardware_concurrency = static_cast<int>(std::thread::hardware_concurrency());
    record.outcome = "job_failed";
    record.attempts = attempts;
    record.error_class = std::string(core::job_error_class_name(error.cls));
    record.error_message = error.message;
    return record;
}

void write_fault_key(obs::JsonWriter& w, int attempts, bool failed,
                     std::string_view error_class, std::string_view message) {
    if (attempts <= 1 && !failed) return;
    w.key("fault").begin_object().key("attempts").integer(attempts);
    if (failed) w.key("class").str(error_class).key("message").str(message);
    w.end_object();
}

std::string to_jsonl(const JobRecord& r) {
    obs::JsonWriter w;
    w.begin_object().key("v").integer(1).key("spec").str(r.spec_name);
    w.key("spec_hash").str(r.spec_hash).key("job").str(r.job_id).key("index").integer(r.index);
    w.key("scenario").str(r.scenario);
    // Quarantined jobs carry their verdict up front (identity-adjacent, part
    // of the deterministic prefix) so readers can drop them without looking
    // at the side-fields; successful records spell nothing extra.
    if (r.failed()) w.key("outcome").str("job_failed");
    w.key("point").begin_object().key("cols").integer(r.params.cols);
    w.key("rows").integer(r.params.rows);
    w.key("sigma_noise_mhz").number(r.params.sigma_noise_mhz);
    w.key("ambient_c").number(r.params.ambient_c);
    w.key("majority_wins").integer(r.params.majority_wins);
    w.key("ecc_m").integer(r.params.ecc_m).key("ecc_t").integer(r.params.ecc_t);
    w.key("query_budget").integer(r.params.query_budget);
    w.key("defense").str(r.params.defense.empty() ? "none" : r.params.defense);
    w.key("trials").integer(r.trials).key("root_seed").integer(r.root_seed);
    w.key("campaign_seed").integer(r.campaign_seed).end_object();
    if (!r.failed()) {
        w.key("result").begin_object().key("key_recovered_count").integer(r.key_recovered_count);
        w.key("success_rate").number(r.success_rate);
        w.key("mean_accuracy").number(r.mean_accuracy);
        w.key("outcomes").begin_object().key("recovered").integer(r.outcomes.recovered);
        w.key("gave_up").integer(r.outcomes.gave_up);
        w.key("budget_exhausted").integer(r.outcomes.budget_exhausted);
        w.key("refused_by_defense").integer(r.outcomes.refused_by_defense);
        w.key("locked_out").integer(r.outcomes.locked_out).end_object();
        w.key("total_measurements").integer(r.total_measurements);
        write_metric(w, "queries", r.queries);
        write_metric(w, "measurements", r.measurements);
        w.end_object();
    }
    // Host-bound fields last, in one key (kTimingKey), so
    // deterministic_prefix() can split records without parsing.
    w.key("timing").begin_object().key("workers").integer(r.workers);
    w.key("wall_ms").number(r.wall_ms).key("trial_wall_ms_sum").number(r.trial_wall_ms_sum);
    w.key("measurements_per_s").number(r.measurements_per_s).key("simd").str(r.simd);
    w.key("hardware_concurrency").integer(r.hardware_concurrency).end_object();
    // Fault-tolerance side-fields ride after timing, outside the
    // deterministic prefix.
    write_fault_key(w, r.attempts, r.failed(), r.error_class, r.error_message);
    // The job's obs metrics are the last side-key: only present when a
    // registry was installed for the run, so obs-off output is byte-for-byte
    // what pre-obs builds wrote.
    if (r.obs.present) {
        w.key("obs").begin_object().key("counters").begin_object();
        for (const auto& [name, value] : r.obs.counters) w.key(name).number(value);
        w.end_object().key("hist").begin_object();
        for (const auto& [name, h] : r.obs.hists) obs::write_hist_summary(w.key(name), h);
        w.end_object().end_object();
    }
    w.end_object();
    return w.release();
}

std::string_view deterministic_prefix(std::string_view line) {
    const std::size_t pos = line.rfind(kTimingKey);
    return pos == std::string_view::npos ? line : line.substr(0, pos);
}

JobRecord parse_record(std::string_view line) {
    const JsonValue doc = parse_json(line);
    if (!doc.is_object()) throw std::logic_error("record line is not a JSON object");
    JobRecord r;
    r.spec_name = doc.string_or("spec", "");
    r.spec_hash = doc.string_or("spec_hash", "");
    r.job_id = doc.string_or("job", "");
    r.index = static_cast<int>(doc.number_or("index", 0));
    r.scenario = doc.string_or("scenario", "");
    if (r.job_id.empty() || r.scenario.empty()) {
        throw std::logic_error("record line is missing its identity fields");
    }
    r.outcome = doc.string_or("outcome", "ok");
    if (const JsonValue* point = doc.find("point"); point != nullptr && point->is_object()) {
        r.params.cols = static_cast<int>(point->number_or("cols", 0));
        r.params.rows = static_cast<int>(point->number_or("rows", 0));
        r.params.sigma_noise_mhz = point->number_or("sigma_noise_mhz", -1.0);
        r.params.ambient_c = point->number_or("ambient_c", 25.0);
        r.params.majority_wins = static_cast<int>(point->number_or("majority_wins", 0));
        r.params.ecc_m = static_cast<int>(point->number_or("ecc_m", 0));
        r.params.ecc_t = static_cast<int>(point->number_or("ecc_t", 0));
        r.params.query_budget =
            static_cast<std::int64_t>(point->number_or("query_budget", 0));
        r.params.defense = point->string_or("defense", "none");
        r.trials = static_cast<int>(point->number_or("trials", 0));
        // Seeds are full 64-bit values: the double path would corrupt them
        // above 2^53, so read them through the exact-literal accessors.
        r.root_seed = point->u64_or("root_seed", 0);
        r.campaign_seed = point->u64_or("campaign_seed", 0);
    }
    if (const JsonValue* result = doc.find("result"); result != nullptr && result->is_object()) {
        r.key_recovered_count = static_cast<int>(result->number_or("key_recovered_count", 0));
        r.success_rate = result->number_or("success_rate", 0.0);
        r.mean_accuracy = result->number_or("mean_accuracy", 0.0);
        if (const JsonValue* outcomes = result->find("outcomes");
            outcomes != nullptr && outcomes->is_object()) {
            r.outcomes.recovered = static_cast<int>(outcomes->number_or("recovered", 0));
            r.outcomes.gave_up = static_cast<int>(outcomes->number_or("gave_up", 0));
            r.outcomes.budget_exhausted =
                static_cast<int>(outcomes->number_or("budget_exhausted", 0));
            r.outcomes.refused_by_defense =
                static_cast<int>(outcomes->number_or("refused_by_defense", 0));
            r.outcomes.locked_out = static_cast<int>(outcomes->number_or("locked_out", 0));
        }
        r.total_measurements = result->i64_or("total_measurements", 0);
        r.queries = metric_from(*result, "queries");
        r.measurements = metric_from(*result, "measurements");
    }
    if (const JsonValue* timing = doc.find("timing"); timing != nullptr && timing->is_object()) {
        r.workers = static_cast<int>(timing->number_or("workers", 0));
        r.wall_ms = timing->number_or("wall_ms", 0.0);
        r.trial_wall_ms_sum = timing->number_or("trial_wall_ms_sum", 0.0);
        r.measurements_per_s = timing->number_or("measurements_per_s", 0.0);
        r.simd = timing->string_or("simd", "");
        r.hardware_concurrency =
            static_cast<int>(timing->number_or("hardware_concurrency", 0));
    }
    if (const JsonValue* fault = doc.find("fault"); fault != nullptr && fault->is_object()) {
        r.attempts = static_cast<int>(fault->number_or("attempts", 1));
        r.error_class = fault->string_or("class", "");
        r.error_message = fault->string_or("message", "");
    }
    if (const JsonValue* obs = doc.find("obs"); obs != nullptr && obs->is_object()) {
        r.obs.present = true;
        if (const JsonValue* counters = obs->find("counters");
            counters != nullptr && counters->is_object()) {
            for (const auto& [name, value] : counters->as_object()) {
                if (value.type() == JsonValue::Type::Number) {
                    r.obs.counters[name] = value.as_number();
                }
            }
        }
        if (const JsonValue* hists = obs->find("hist");
            hists != nullptr && hists->is_object()) {
            for (const auto& [name, value] : hists->as_object()) {
                if (!value.is_object()) continue;
                obs::HistSummary h;
                h.count = value.u64_or("count", 0);
                h.mean = value.number_or("mean", 0.0);
                h.p50 = value.number_or("p50", 0.0);
                h.p95 = value.number_or("p95", 0.0);
                h.p99 = value.number_or("p99", 0.0);
                h.max = value.number_or("max", 0.0);
                r.obs.hists[name] = h;
            }
        }
    }
    return r;
}

std::vector<JobRecord> read_results(const std::string& path, ReadStats* stats) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw SpecError("cannot read results file: " + path);
    std::vector<JobRecord> records;
    ReadStats local;
    long long consumed = 0;
    std::string line;
    while (std::getline(in, line)) {
        // getline consumed the line plus its newline — unless it stopped at
        // EOF on an unterminated final line.
        consumed += static_cast<long long>(line.size()) + (in.eof() ? 0 : 1);
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        try {
            records.push_back(parse_record(line));
            local.last_good_offset = consumed;
        } catch (const std::exception&) {
            ++local.skipped_lines; // a crash's torn tail (or garbage): skip, count
        }
    }
    if (stats != nullptr) *stats = local;
    return records;
}

std::set<std::string> completed_job_ids(const std::string& path, std::string_view spec_hash) {
    std::set<std::string> ids;
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return ids; // fresh run: nothing to skip
    probe.close();
    // Quarantined records never enter the skip set — resume retries them.
    for (const auto& record : read_results(path)) {
        if (record.spec_hash == spec_hash && !record.failed()) ids.insert(record.job_id);
    }
    return ids;
}

ResultWriter::ResultWriter(const std::string& path, bool truncate) : path_(path) {
    // A crash can leave an unterminated torn line at EOF; appending straight
    // onto it would merge the next record into the fragment and silently
    // destroy it. Terminate the tail first so the fragment stays its own
    // (skipped, re-run) torn line.
    bool needs_newline = false;
    if (!truncate) {
        if (std::FILE* probe = std::fopen(path.c_str(), "rb"); probe != nullptr) {
            if (std::fseek(probe, -1, SEEK_END) == 0) {
                needs_newline = std::fgetc(probe) != '\n';
            }
            std::fclose(probe);
        }
    }
    file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (file_ == nullptr) throw SpecError("cannot open results file for writing: " + path);
    if (needs_newline && (std::fputc('\n', file_) == EOF || std::fflush(file_) != 0)) {
        std::fclose(file_);
        file_ = nullptr;
        throw SpecError("write failed for results file: " + path);
    }
}

ResultWriter::~ResultWriter() {
    if (file_ != nullptr) std::fclose(file_);
}

void ResultWriter::append(const JobRecord& record) { append_line(to_jsonl(record)); }

void ResultWriter::append_line(const std::string& json_line) {
    // A previous append may have left an unterminated torn line (injected
    // fault or real short write). Terminate it first so the retried record
    // starts on its own line and the fragment stays a skipped torn line —
    // the in-process twin of the constructor's reopen recovery.
    if (dirty_) {
        if (std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
            throw SpecError("write failed for results file: " + path_);
        }
        dirty_ = false;
    }
    const std::string line = json_line + "\n";
    if (injector_ != nullptr) {
        switch (injector_->next_store_fault()) {
            case fi::Injector::StoreFault::none:
                break;
            case fi::Injector::StoreFault::fail:
                throw fi::InjectedFault(fi::FaultPoint::store_write_fail,
                                        "injected store write failure");
            case fi::Injector::StoreFault::torn:
                // Half a line, no newline, then "crash": exactly the torn
                // tail a killed process leaves behind.
                (void)std::fwrite(line.data(), 1, line.size() / 2, file_);
                (void)std::fflush(file_);
                dirty_ = true;
                throw fi::InjectedFault(fi::FaultPoint::torn_write, "injected torn write");
        }
    }
    // One durable line per job is the crash-safety unit — a short write or
    // failed flush (ENOSPC, I/O error) must surface, not count as done.
    obs::Registry* reg = obs::registry();
    const auto t0 = reg != nullptr ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
        dirty_ = true; // unknown how much landed: treat the tail as torn
        throw SpecError("write failed for results file: " + path_);
    }
    if (reg != nullptr) {
        const auto t1 = std::chrono::steady_clock::now();
        const double flush_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        ROPUF_OBS_COUNT("store.bytes_written", line.size());
        ROPUF_OBS_OBSERVE("store.flush_ms", flush_ms);
    }
}

std::string salvage_warning(const ReadStats& stats) {
    if (stats.skipped_lines == 0) return {};
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "warning: skipped %d unparseable line(s) — torn crash tail or "
                  "foreign data; last good record ends at byte %lld (truncate "
                  "there to salvage)",
                  stats.skipped_lines, stats.last_good_offset);
    return buf;
}

std::string render_report(const std::vector<JobRecord>& all_records) {
    // Quarantined records carry no result: keep them (and their superseded
    // duplicates) out of every aggregate, and account for them in the
    // fault-tolerance footer instead.
    std::vector<JobRecord> records;
    std::vector<const JobRecord*> quarantined;
    std::set<std::string> completed_ids;
    int retried_jobs = 0;
    long long retry_attempts = 0;
    for (const auto& r : all_records) {
        if (r.failed()) {
            quarantined.push_back(&r);
            continue;
        }
        records.push_back(r);
        completed_ids.insert(r.job_id);
        if (r.attempts > 1) {
            ++retried_jobs;
            retry_attempts += r.attempts - 1;
        }
    }

    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-24s %-28s %7s %8s %10s %10s %10s %15s\n", "scenario",
                  "point", "trials", "success", "queries", "q-p95", "accuracy",
                  "rec/gu/bx/rd/lo");
    out += buf;
    for (const auto& r : records) {
        std::string point;
        if (r.params.cols > 0 && r.params.rows > 0) {
            point += std::to_string(r.params.cols) + "x" + std::to_string(r.params.rows) + " ";
        }
        if (r.params.sigma_noise_mhz >= 0.0) {
            std::snprintf(buf, sizeof buf, "s=%.3g ", r.params.sigma_noise_mhz);
            point += buf;
        }
        if (r.params.ambient_c != 25.0) {
            std::snprintf(buf, sizeof buf, "T=%.3g ", r.params.ambient_c);
            point += buf;
        }
        if (r.params.majority_wins > 0) point += "mw=" + std::to_string(r.params.majority_wins) + " ";
        if (r.params.ecc_m > 0) {
            point += "bch(" + std::to_string(r.params.ecc_m) + "," +
                     std::to_string(r.params.ecc_t) + ") ";
        }
        if (r.params.query_budget > 0) {
            point += "b=" + std::to_string(r.params.query_budget) + " ";
        }
        if (!r.params.defense.empty() && r.params.defense != "none") {
            point += "d=" + r.params.defense + " ";
        }
        point += "seed=" + std::to_string(r.root_seed);
        char outcomes[64];
        std::snprintf(outcomes, sizeof outcomes, "%d/%d/%d/%d/%d", r.outcomes.recovered,
                      r.outcomes.gave_up, r.outcomes.budget_exhausted,
                      r.outcomes.refused_by_defense, r.outcomes.locked_out);
        std::snprintf(buf, sizeof buf, "%-24s %-28s %7d %8.3f %10.1f %10.0f %10.3f %15s\n",
                      r.scenario.c_str(), point.c_str(), r.trials, r.success_rate,
                      r.queries.mean, r.queries.p95, r.mean_accuracy, outcomes);
        out += buf;
    }

    // Per-scenario rollup: trial-weighted success and mean queries across
    // every point of the scenario.
    struct Rollup {
        int points = 0;
        long long trials = 0;
        double recovered = 0.0;
        double query_sum = 0.0;
    };
    std::map<std::string, Rollup> rollups;
    for (const auto& r : records) {
        Rollup& roll = rollups[r.scenario];
        ++roll.points;
        roll.trials += r.trials;
        roll.recovered += static_cast<double>(r.key_recovered_count);
        roll.query_sum += r.queries.mean * static_cast<double>(r.trials);
    }
    out += '\n';
    std::snprintf(buf, sizeof buf, "%-24s %7s %8s %10s %12s\n", "scenario (rollup)", "points",
                  "trials", "success", "mean q");
    out += buf;
    for (const auto& [name, roll] : rollups) {
        const double trials = std::max(1.0, static_cast<double>(roll.trials));
        std::snprintf(buf, sizeof buf, "%-24s %7d %8lld %10.3f %12.1f\n", name.c_str(),
                      roll.points, roll.trials, roll.recovered / trials,
                      roll.query_sum / trials);
        out += buf;
    }

    // Host line from the records' timing blocks: which kernel dispatch path
    // produced the figures and on how many CPUs. Distinct values (a results
    // file merged across hosts or forced paths) are all listed. Records
    // written before these fields existed carry neither — stay silent then.
    std::vector<std::string> simd_paths;
    std::vector<int> hw_counts;
    for (const auto& r : records) {
        if (!r.simd.empty() &&
            std::find(simd_paths.begin(), simd_paths.end(), r.simd) == simd_paths.end()) {
            simd_paths.push_back(r.simd);
        }
        if (r.hardware_concurrency > 0 &&
            std::find(hw_counts.begin(), hw_counts.end(), r.hardware_concurrency) ==
                hw_counts.end()) {
            hw_counts.push_back(r.hardware_concurrency);
        }
    }
    if (!simd_paths.empty() || !hw_counts.empty()) {
        out += "\nrecorded on: simd=";
        if (simd_paths.empty()) out += "?";
        for (std::size_t i = 0; i < simd_paths.size(); ++i) {
            if (i > 0) out += '|';
            out += simd_paths[i];
        }
        out += " hardware_concurrency=";
        if (hw_counts.empty()) out += "?";
        for (std::size_t i = 0; i < hw_counts.size(); ++i) {
            if (i > 0) out += '|';
            out += std::to_string(hw_counts[i]);
        }
        out += '\n';
    }

    // Fault-tolerance footer: what the run survived. Quarantined jobs that
    // a later record completed (a resume retried them) are distinguished
    // from ones still missing a result.
    if (!quarantined.empty() || retry_attempts > 0) {
        int open = 0;
        for (const JobRecord* q : quarantined) {
            if (completed_ids.count(q->job_id) == 0) ++open;
        }
        std::snprintf(buf, sizeof buf,
                      "\nfault tolerance: %zu quarantined record(s) (%d unresolved), "
                      "%lld retried attempt(s) across %d job(s)\n",
                      quarantined.size(), open, retry_attempts, retried_jobs);
        out += buf;
        for (const JobRecord* q : quarantined) {
            const bool recovered = completed_ids.count(q->job_id) != 0;
            std::snprintf(buf, sizeof buf, "  %-22s %-24s %s after %d attempt(s): %s%s\n",
                          q->job_id.c_str(), q->scenario.c_str(),
                          q->error_class.empty() ? "failed" : q->error_class.c_str(),
                          q->attempts, q->error_message.c_str(),
                          recovered ? " [completed by a later run]"
                                    : " [unresolved — rerun 'ropuf resume']");
            out += buf;
        }
    }
    return out;
}

namespace {

// Nearest-rank percentile over an already-sorted sample vector.
double sorted_percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = std::min<std::size_t>(
        sorted.size(),
        std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(sorted.size())))));
    return sorted[rank - 1];
}

} // namespace

std::string render_timings(const std::vector<JobRecord>& all_records) {
    struct Group {
        std::vector<double> wall_ms;
        // Count-weighted aggregate of the records' obs trial-wall summaries.
        std::uint64_t trials = 0;
        double mean_w = 0.0;
        double p50_w = 0.0;
        double p95_w = 0.0;
        double p99_w = 0.0;
        double trial_max = 0.0;
    };
    std::map<std::string, Group> groups;
    std::map<int, int> attempts_hist; // attempts spent -> jobs
    long long retried_attempts = 0;
    int quarantined = 0;
    int missing_obs = 0;

    for (const auto& r : all_records) {
        attempts_hist[r.attempts] += 1;
        if (r.attempts > 1) retried_attempts += r.attempts - 1;
        if (r.failed()) {
            ++quarantined; // no result, no meaningful wall time
            continue;
        }
        Group& g = groups[r.scenario];
        g.wall_ms.push_back(r.wall_ms);
        const auto it = r.obs.hists.find("campaign.trial_wall_ms");
        if (!r.obs.present || it == r.obs.hists.end()) {
            ++missing_obs; // pre-obs or obs-off record: skip the trial section
            continue;
        }
        const obs::HistSummary& h = it->second;
        const auto n = static_cast<double>(h.count);
        g.trials += h.count;
        g.mean_w += h.mean * n;
        g.p50_w += h.p50 * n;
        g.p95_w += h.p95 * n;
        g.p99_w += h.p99 * n;
        g.trial_max = std::max(g.trial_max, h.max);
    }

    std::string out;
    char buf[256];
    out += "per-job wall time (timing side-key)\n";
    std::snprintf(buf, sizeof buf, "%-28s %6s %11s %11s %11s %11s\n", "scenario", "jobs",
                  "p50 ms", "p95 ms", "p99 ms", "max ms");
    out += buf;
    for (auto& [scenario, g] : groups) {
        std::sort(g.wall_ms.begin(), g.wall_ms.end());
        std::snprintf(buf, sizeof buf, "%-28s %6zu %11.2f %11.2f %11.2f %11.2f\n",
                      scenario.c_str(), g.wall_ms.size(),
                      sorted_percentile(g.wall_ms, 0.50),
                      sorted_percentile(g.wall_ms, 0.95),
                      sorted_percentile(g.wall_ms, 0.99),
                      g.wall_ms.empty() ? 0.0 : g.wall_ms.back());
        out += buf;
    }

    out += "\nattempts per job (fault side-key):";
    for (const auto& [attempts, jobs] : attempts_hist) {
        std::snprintf(buf, sizeof buf, "  %dx%d", attempts, jobs);
        out += buf;
    }
    std::snprintf(buf, sizeof buf, "   (retried attempts: %lld, quarantined: %d)\n",
                  retried_attempts, quarantined);
    out += buf;

    out += "\nper-trial wall time (obs side-key; bucketed quantiles, ~12.5%)\n";
    std::snprintf(buf, sizeof buf, "%-28s %10s %10s %10s %10s %10s %10s\n", "scenario",
                  "trials", "mean ms", "~p50 ms", "~p95 ms", "~p99 ms", "max ms");
    out += buf;
    for (const auto& [scenario, g] : groups) {
        if (g.trials == 0) continue;
        const auto n = static_cast<double>(g.trials);
        std::snprintf(buf, sizeof buf,
                      "%-28s %10llu %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                      scenario.c_str(), static_cast<unsigned long long>(g.trials),
                      g.mean_w / n, g.p50_w / n, g.p95_w / n, g.p99_w / n,
                      g.trial_max);
        out += buf;
    }
    if (missing_obs > 0) {
        std::snprintf(buf, sizeof buf,
                      "%d record(s) carry no obs side-key (obs-off or pre-obs "
                      "run) — skipped from the trial section\n",
                      missing_obs);
        out += buf;
    }
    return out;
}

std::string render_matrix(const std::vector<JobRecord>& records) {
    // Row/column orders follow first appearance, which for a planned spec is
    // exactly the spec's own scenario and defense axis order.
    std::vector<std::string> scenarios;
    std::vector<std::string> defenses;
    struct Cell {
        core::OutcomeCounts outcomes;
        long long trials = 0;
        long long recovered = 0;
    };
    std::map<std::pair<std::string, std::string>, Cell> cells;
    const auto remember = [](std::vector<std::string>& order, const std::string& name) {
        if (std::find(order.begin(), order.end(), name) == order.end()) order.push_back(name);
    };
    for (const auto& r : records) {
        if (r.failed()) continue; // quarantined: no outcome histogram to add
        const std::string defense = r.params.defense.empty() ? "none" : r.params.defense;
        remember(scenarios, r.scenario);
        remember(defenses, defense);
        Cell& cell = cells[{r.scenario, defense}];
        cell.outcomes.recovered += r.outcomes.recovered;
        cell.outcomes.gave_up += r.outcomes.gave_up;
        cell.outcomes.budget_exhausted += r.outcomes.budget_exhausted;
        cell.outcomes.refused_by_defense += r.outcomes.refused_by_defense;
        cell.outcomes.locked_out += r.outcomes.locked_out;
        cell.trials += r.trials;
        cell.recovered += r.key_recovered_count;
    }

    const auto render_cell = [](const Cell& cell) {
        const std::pair<const char*, int> tallies[] = {
            {"recovered", cell.outcomes.recovered},
            {"gave_up", cell.outcomes.gave_up},
            {"budget_exh", cell.outcomes.budget_exhausted},
            {"refused", cell.outcomes.refused_by_defense},
            {"locked_out", cell.outcomes.locked_out},
        };
        const char* dominant = "-";
        int best = 0;
        for (const auto& [name, count] : tallies) {
            if (count > best) {
                best = count;
                dominant = name;
            }
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s %.2f", dominant,
                      cell.trials > 0
                          ? static_cast<double>(cell.recovered) /
                                static_cast<double>(cell.trials)
                          : 0.0);
        return std::string(buf);
    };

    std::string out;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%-32s", "scenario \\ defense");
    out += buf;
    for (const auto& defense : defenses) {
        std::snprintf(buf, sizeof buf, " %-18s", defense.c_str());
        out += buf;
    }
    out += '\n';
    for (const auto& scenario : scenarios) {
        std::snprintf(buf, sizeof buf, "%-32s", scenario.c_str());
        out += buf;
        for (const auto& defense : defenses) {
            const auto it = cells.find({scenario, defense});
            std::snprintf(buf, sizeof buf, " %-18s",
                          it == cells.end() ? "-" : render_cell(it->second).c_str());
            out += buf;
        }
        out += '\n';
    }
    out += "\ncell = dominant outcome + key-recovery rate over the cell's trials\n";
    return out;
}

} // namespace ropuf::xp

#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace e2e {

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

int nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

HostCpu read_host_cpu() {
    HostCpu out;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal (guest time is already
    // inside user/nice, so it is not added again).
    double v[8] = {};
    for (double& x : v) {
        if (!(fields >> x)) return out;
    }
    out.ok = true;
    out.steal = v[7];
    for (const double x : v) out.total += x;
    return out;
}

namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// The reference computation of one thread: xoshiro256++ draws scattered
/// into a 64 KiB table and sorted in blocks of 256 floats.
std::uint64_t host_ref_kernel(std::uint64_t seed) {
    constexpr int kRounds = 4000;
    std::uint64_t s0 = seed | 1, s1 = 0x9e3779b97f4a7c15ull, s2 = seed * 7 + 3, s3 = 12345;
    std::vector<std::uint32_t> table(16384);
    std::vector<float> block(256);
    std::uint64_t acc = 0;
    for (int r = 0; r < kRounds; ++r) {
        for (float& f : block) {
            const std::uint64_t draw = rotl(s0 + s3, 23) + s0;
            const std::uint64_t t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = rotl(s3, 45);
            f = static_cast<float>(draw >> 40) * 1e-3f;
            table[draw & 16383] += static_cast<std::uint32_t>(draw >> 32);
        }
        std::sort(block.begin(), block.end());
        float sum = 0.0f;
        for (const float f : block) sum = sum * 0.5f + f;
        acc += static_cast<std::uint64_t>(sum) + table[acc & 16383];
    }
    return acc;
}

} // namespace

double host_ref_s(int threads) {
    std::vector<std::uint64_t> results(static_cast<std::size_t>(threads));
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&results, t] {
            results[static_cast<std::size_t>(t)] = host_ref_kernel(static_cast<std::uint64_t>(t) + 1);
        });
    }
    for (std::thread& th : pool) th.join();
    const double s = seconds_between(t0, Clock::now());
    // Consume the results so the computation cannot be optimized away.
    volatile std::uint64_t sink = 0;
    for (const std::uint64_t r : results) sink = sink + r;
    return s;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::clamp(q * n, 1.0, n));
    return values[rank - 1];
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) >> 16; // 48 bits: readable in specs and records
}

void Outcome::fail(const std::string& why) {
    correct = false;
    ++failed;
    std::fprintf(stderr, "e2ebench: FAILED: %s\n", why.c_str());
}

namespace {

constexpr int kSetupReps = 5;
constexpr int kSetupRepsPerPass = 5;


} // namespace

void check_pass(Outcome& out, const PassResult& pass, const std::string& what) {
    out.attempted += pass.attempted;
    for (long long i = 0; i < pass.quarantined; ++i) out.fail(what + ": quarantined");
}

Measured measure_passes(const Options& opts, const Workload& workload, Outcome& out) {
    // The host's speed drifts with other tenants' load over tens of seconds,
    // the program's and the reference's alike, so every timing is scaled by
    // kHostRefNominalS / host_ref_s and runs at different moments compare.
    // A pass is scaled by the reference on the workload's threads around it.
    // Serial timings (set-up, enrollment) are bimodal on a shared host — a
    // thread whose core's SMT sibling is busy runs about 1.5x slower — so
    // their fast mode is compared with the one-thread reference's: the
    // fastest reference of the run against the set-ups' fast decile and the
    // fastest pass's enrollment.
    struct HostRef {
        double parallel;
        double serial;
    };
    std::vector<HostRef> refs;
    const auto measure_host = [&] {
        refs.push_back({host_ref_s(opts.workers), host_ref_s(1)});
        return refs.back();
    };
    HostRef ref = measure_host();

    // Set-up, timed the way a user pays it: a few times up front and again
    // after every measured pass, so its fast decile spans the whole run
    // rather than its first moments.
    std::vector<double> setup_s;
    const auto timed_set_up = [&] {
        const auto t0 = Clock::now();
        const std::shared_ptr<const void> made = workload.set_up();
        setup_s.push_back(seconds_between(t0, Clock::now()));
    };
    for (int rep = 0; rep < kSetupReps; ++rep) timed_set_up();

    const PassResult pin = workload.canonical();
    check_pass(out, pin, "canonical pass");
    out.detail["pin_digest"] = pin.digest;
    if (!opts.pin.empty() && pin.digest != opts.pin) {
        out.fail("canonical pass digest " + pin.digest + " != pinned " + opts.pin);
    }

    Measured measured;
    measured.start = Clock::now();
    ref = measure_host();
    const double seconds = opts.trace ? opts.seconds / 3.0 : opts.seconds;
    std::vector<PassResult>& passes = measured.passes;
    std::vector<double> scale; ///< per pass: kHostRefNominalS / the mean reference around it
    for (int k = 0; k < 3 || seconds_between(measured.start, Clock::now()) < seconds; ++k) {
        PassResult pass = workload.pass();
        const HostRef after = measure_host();
        scale.push_back(2.0 * kHostRefNominalS / (ref.parallel + after.parallel));
        ref = after;
        check_pass(out, pass, "pass " + std::to_string(k));
        if (!passes.empty() && pass.digest != passes.front().digest) {
            out.fail("pass " + std::to_string(k) + " digest " + pass.digest +
                     " differs from the first pass's (" + passes.front().digest + ")");
        }
        passes.push_back(std::move(pass));
        for (int rep = 0; rep < kSetupRepsPerPass; ++rep) timed_set_up();
    }
    const auto joined = [](const std::vector<double>& values) {
        std::string text;
        for (const double v : values) {
            if (!text.empty()) text += ' ';
            text += std::to_string(v);
        }
        return text;
    };
    std::vector<double> walls, enrolls, parallel_refs, serial_refs;
    for (const PassResult& p : passes) {
        walls.push_back(p.wall_s);
        enrolls.push_back(p.enroll_s);
    }
    for (const HostRef& r : refs) {
        parallel_refs.push_back(r.parallel);
        serial_refs.push_back(r.serial);
    }
    out.detail["digest"] = passes.front().digest;
    out.detail["passes"] = std::to_string(passes.size());
    out.detail["pass_wall_s"] = joined(walls);
    out.detail["pass_enroll_s"] = joined(enrolls);
    out.detail["host_ref_s"] = joined(parallel_refs);
    out.detail["host_ref_serial_s"] = joined(serial_refs);
    out.detail["setup_s_unscaled"] = std::to_string(quantile(setup_s, 0.1));

    std::vector<double> eff;
    for (const PassResult& p : passes) eff.push_back(p.cpu_s / (p.wall_s * opts.workers));
    out.median_parallel_eff = median(eff);
    if (opts.trace) return measured;

    // Times are multiplied by the pass's scale, rates divided by it.
    const auto scaled = [&](double (*f)(const PassResult&), bool rate) {
        std::vector<double> v;
        for (std::size_t i = 0; i < passes.size(); ++i) {
            v.push_back(rate ? f(passes[i]) / scale[i] : f(passes[i]) * scale[i]);
        }
        return median(std::move(v));
    };
    const double serial_scale =
        kHostRefNominalS / *std::min_element(serial_refs.begin(), serial_refs.end());
    double enroll_rate = 0.0;
    for (const PassResult& p : passes) {
        enroll_rate = std::max(enroll_rate, static_cast<double>(p.enrolled) / p.enroll_s);
    }
    out.set("setup_s", quantile(setup_s, 0.1) * serial_scale);
    out.set("wall_s", scaled([](const PassResult& p) { return p.wall_s; }, false));
    out.set("cpu_s", scaled([](const PassResult& p) { return p.cpu_s; }, false));
    out.set("parallel_eff", median(eff));
    out.set("queries_per_s", scaled([](const PassResult& p) {
                return static_cast<double>(p.queries) / p.wall_s;
            }, true));
    out.set("cpu_us_per_query", scaled(cpu_us_per_query, false));
    out.set("meas_per_s", scaled([](const PassResult& p) {
                return static_cast<double>(p.measurements) / p.wall_s;
            }, true));
    out.set("enroll_devices_per_s", enroll_rate / serial_scale);
    out.set("peak_rss_mb", peak_rss_mib());
    return measured;
}

double cpu_us_per_query(const PassResult& pass) {
    return pass.cpu_s * 1e6 / static_cast<double>(std::max(1LL, pass.queries));
}

void set_absent(Outcome& out, const std::vector<std::string>& names) {
    for (const std::string& name : names) out.set(name, 0.0);
}

void LayerTotals::merge(const LayerTotals& o) {
    trial_wall += o.trial_wall;
    other += o.other;
    step += o.step;
    stack += o.stack;
    victim += o.victim;
    parse += o.parse;
    check += o.check;
    measure += o.measure;
    regen += o.regen;
    encode += o.encode;
    trials += o.trials;
    batches += o.batches;
    probes += o.probes;
    queries += o.queries;
    refused += o.refused;
    regen_calls += o.regen_calls;
    sim_measurements += o.sim_measurements;
    blob_bytes += o.blob_bytes;
    encoded_bytes += o.encoded_bytes;
    regen_us.insert(regen_us.end(), o.regen_us.begin(), o.regen_us.end());
    parity_errors.insert(parity_errors.end(), o.parity_errors.begin(), o.parity_errors.end());
}

} // namespace e2e

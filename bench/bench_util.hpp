// Shared pretty-printing helpers for the experiment benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ropuf/core/sanitizer.hpp"
#include "ropuf/obs/json_writer.hpp"

namespace benchutil {

/// True when the library and bench were compiled with NDEBUG (assertions
/// off, the only configuration whose timings mean anything).
inline constexpr bool optimized_build() {
#ifdef NDEBUG
    return true;
#else
    return false;
#endif
}

/// Build type of OUR code (this TU's NDEBUG). Deliberately named
/// ropuf_build_type in JSON contexts: google-benchmark already emits a
/// "library_build_type" key describing how libbenchmark itself was
/// compiled, which is not the figure-of-merit here.
inline const char* ropuf_build_type() { return optimized_build() ? "release" : "debug"; }

/// Loud stderr warning for timing runs of unoptimized binaries. Returns
/// true when the warning fired, so callers can also mark their output.
inline bool warn_if_debug_build(const char* bench_name) {
    if (optimized_build()) return false;
    std::fprintf(stderr,
                 "*** WARNING [%s]: benchmark binary built WITHOUT NDEBUG "
                 "(debug build). Timings are unreliable; rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release before recording figures. ***\n",
                 bench_name);
    return true;
}

/// JSON context fields every BENCH_*.json emitter should include: the build
/// type, the sanitizer the binary was compiled under ("none" for a real
/// timing build — tools/check_bench_regression.py refuses anything else,
/// since TSan/ASan slowdowns make throughput figures fiction), and an
/// explicit machine-readable warning when it is a debug build.
inline void write_build_context(ropuf::obs::JsonWriter& w) {
    w.key("ropuf_build_type").str(ropuf_build_type());
    w.key("ropuf_sanitizer").str(ropuf::core::sanitizer_name());
    if (!optimized_build()) {
        w.key("warning").str("DEBUG BUILD - timings unreliable, rebuild with "
                             "CMAKE_BUILD_TYPE=Release");
    }
    if (ropuf::core::sanitized_build()) {
        w.key("warning_sanitizer").str("SANITIZED BUILD - timings distorted, "
                                       "do not record as baselines");
    }
}

/// The same fields as a bare `"key":value,...` member list, for emitters
/// that splice them into an object they build by hand.
inline std::string json_build_context() {
    ropuf::obs::JsonWriter w;
    write_build_context(w);
    return w.release();
}

inline void header(const std::string& experiment, const std::string& paper_ref,
                   const std::string& claim) {
    std::printf("==================================================================\n");
    std::printf("%s  —  %s\n", experiment.c_str(), paper_ref.c_str());
    std::printf("paper claim: %s\n", claim.c_str());
    std::printf("==================================================================\n");
}

inline void section(const std::string& title) {
    std::printf("\n--- %s ---\n", title.c_str());
}

/// Renders a row-major scalar field as a small ASCII heat map (digits 0-9).
inline void heatmap(const std::vector<double>& values, int cols, int rows) {
    double lo = values[0];
    double hi = values[0];
    for (double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi > lo ? hi - lo : 1.0;
    for (int y = 0; y < rows; ++y) {
        std::printf("  ");
        for (int x = 0; x < cols; ++x) {
            const double v = values[static_cast<std::size_t>(y * cols + x)];
            const int bucket = static_cast<int>((v - lo) / span * 9.0001);
            std::printf("%d", bucket);
        }
        std::printf("\n");
    }
    std::printf("  (0 = %.3f, 9 = %.3f)\n", lo, hi);
}

/// Renders per-RO integer labels (e.g. group ids) as a grid, Fig. 6a style.
inline void label_grid(const std::vector<int>& labels, int cols, int rows) {
    for (int y = 0; y < rows; ++y) {
        std::printf("  ");
        for (int x = 0; x < cols; ++x) {
            std::printf("%3d", labels[static_cast<std::size_t>(y * cols + x)]);
        }
        std::printf("\n");
    }
}

} // namespace benchutil

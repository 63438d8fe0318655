// Strict numeric command-line arguments for the example programs.
#pragma once

#include <cerrno>
#include <cstdlib>

namespace ropuf::examples {

/// Whole-token unsigned parse within [min, max]: garbage, a sign, trailing
/// junk or overflow is an error, never a silent 0. `base` is strtoull's
/// (0 also accepts 0x-prefixed hex and 0-prefixed octal).
inline bool parse_arg(const char* text, unsigned long long min, unsigned long long max,
                      unsigned long long* out, int base = 10) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, base);
    if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE || v < min || v > max) {
        return false;
    }
    *out = v;
    return true;
}

} // namespace ropuf::examples

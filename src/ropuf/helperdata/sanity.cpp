#include "ropuf/helperdata/sanity.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace ropuf::helperdata {

namespace {

/// A zeroed bitmap over [0, n). Up to 1024 bits it lives on the stack, so a
/// Verdict-mode check on a realistic array never touches the heap. `n` is a
/// device dimension or bounded by one, never a count read from the blob.
class FlatBitmap {
public:
    explicit FlatBitmap(int n) {
        const auto words = (static_cast<std::size_t>(std::max(n, 0)) + 63) / 64;
        if (words > inline_.size()) {
            heap_.assign(words, 0);
            words_ = heap_.data();
        }
    }
    FlatBitmap(const FlatBitmap&) = delete;
    FlatBitmap& operator=(const FlatBitmap&) = delete;

    bool test(int i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
    void set(int i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

private:
    std::array<std::uint64_t, 16> inline_{};
    std::vector<std::uint64_t> heap_;
    std::uint64_t* words_ = inline_.data();
};

} // namespace

SanityReport check_pair_list(const std::vector<IndexPair>& pairs, int ro_count,
                             bool forbid_reuse, SanityMode mode) {
    SanityReport report(mode);
    FlatBitmap used(forbid_reuse ? ro_count : 0);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto [a, b] = pairs[p];
        if (a < 0 || a >= ro_count || b < 0 || b >= ro_count) {
            if (report.fail([p] {
                    return "pair " + std::to_string(p) + ": RO index out of range";
                })) {
                return report;
            }
            continue;
        }
        if (a == b) {
            if (report.fail([p] { return "pair " + std::to_string(p) + ": self-pair"; })) {
                return report;
            }
            continue;
        }
        if (forbid_reuse) {
            if (used.test(a) || used.test(b)) {
                if (report.fail([p] {
                        return "pair " + std::to_string(p) + ": RO re-used across pairs";
                    })) {
                    return report;
                }
            }
            used.set(a);
            used.set(b);
        }
    }
    return report;
}

SanityReport check_group_assignment(const std::vector<int>& group_of, int ro_count,
                                    SanityMode mode) {
    SanityReport report(mode);
    if (static_cast<int>(group_of.size()) != ro_count) {
        report.fail("group assignment length != RO count");
        return report;
    }
    int max_group = 0;
    for (std::size_t i = 0; i < group_of.size(); ++i) {
        const int g = group_of[i];
        if (g < 1) {
            if (report.fail([i] { return "RO " + std::to_string(i) + ": group id below 1"; })) {
                return report;
            }
        } else if (g > ro_count) {
            // ro_count ROs fill at most ro_count groups: such an id leaves a
            // gap whatever the rest says, and must not size anything below.
            if (report.fail([i, g, ro_count] {
                    return "RO " + std::to_string(i) + ": group id " + std::to_string(g) +
                           " exceeds RO count " + std::to_string(ro_count);
                })) {
                return report;
            }
        }
        max_group = std::max(max_group, g);
    }
    if (!report.ok) return report;
    FlatBitmap seen(max_group + 1);
    for (int g : group_of) seen.set(g);
    for (int g = 1; g <= max_group; ++g) {
        if (!seen.test(g)) {
            if (report.fail([g] {
                    return "group ids not dense: group " + std::to_string(g) + " empty";
                })) {
                return report;
            }
        }
    }
    return report;
}

SanityReport check_coefficients(const std::vector<double>& beta, double magnitude_bound,
                                SanityMode mode) {
    SanityReport report(mode);
    for (std::size_t i = 0; i < beta.size(); ++i) {
        if (!std::isfinite(beta[i])) {
            if (report.fail([i] {
                    return "coefficient " + std::to_string(i) + ": not finite";
                })) {
                return report;
            }
        } else if (std::abs(beta[i]) > magnitude_bound) {
            if (report.fail([&, i] {
                    return "coefficient " + std::to_string(i) + ": magnitude " +
                           std::to_string(std::abs(beta[i])) + " exceeds bound " +
                           std::to_string(magnitude_bound);
                })) {
                return report;
            }
        }
    }
    return report;
}

std::vector<std::uint8_t> HelperAuthenticator::seal(std::span<const std::uint8_t> blob) const {
    const auto tag = hash::hmac_sha256(key_, blob);
    std::vector<std::uint8_t> out(blob.begin(), blob.end());
    out.insert(out.end(), tag.begin(), tag.end());
    return out;
}

std::optional<std::vector<std::uint8_t>> HelperAuthenticator::open(
    std::span<const std::uint8_t> sealed) const {
    if (sealed.size() < 32) return std::nullopt;
    const auto body = sealed.first(sealed.size() - 32);
    const auto tag = hash::hmac_sha256(key_, body);
    // Constant-time comparison (good hygiene even in a simulator).
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < 32; ++i) {
        diff |= static_cast<std::uint8_t>(tag[i] ^ sealed[sealed.size() - 32 + i]);
    }
    if (diff != 0) return std::nullopt;
    return std::vector<std::uint8_t>(body.begin(), body.end());
}

} // namespace ropuf::helperdata

// Helper-data sanity checks and authentication — the "best practices" of
// paper Section VII.
//
// The attacked constructions perform no validation of their helper data; the
// paper argues a precise parsing/sanity specification is a minimum
// requirement, and cites Boyen et al. [1] for a cryptographic fix. This
// module provides both levels:
//
//  * structural checks a careful device could run (index ranges, RO re-use
//    across pairs, strict group partitions, helper length consistency);
//  * HelperAuthenticator — an HMAC-SHA-256 tag over the helper blob keyed
//    with a device secret. With an authenticated blob every manipulation
//    attack in Section VI degrades to denial-of-service. (A pure-PUF device
//    has a bootstrapping caveat — discussed in EXPERIMENTS.md E11.)
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ropuf/hash/sha256.hpp"
#include "ropuf/helperdata/formats.hpp"

namespace ropuf::helperdata {

/// How much a structural check reports. Both modes agree on `ok`.
///  * Explain — every violation in words, in check order (diagnostics,
///    audits, tests);
///  * Verdict — the device's yes/no: the check stops at its first violation
///    and neither allocates nor formats anything.
enum class SanityMode { Verdict, Explain };

/// Result of a structural validation pass.
struct SanityReport {
    bool ok = true;
    std::vector<std::string> violations;
    SanityMode mode = SanityMode::Explain;

    SanityReport() = default;
    explicit SanityReport(SanityMode m) : mode(m) {}

    /// True once a Verdict-mode check has seen a violation: nothing found
    /// later can change the answer.
    bool settled() const { return !ok && mode == SanityMode::Verdict; }

    /// Records a violation. `message` is a string or a callable producing
    /// one; a callable runs only in Explain mode. Returns settled(), so a
    /// check reads `if (report.fail(...)) return report;`.
    template <typename Message>
    bool fail(Message&& message) {
        ok = false;
        if (mode == SanityMode::Verdict) return true;
        if constexpr (std::is_invocable_v<Message&>) {
            violations.emplace_back(message());
        } else {
            violations.emplace_back(std::forward<Message>(message));
        }
        return false;
    }

    /// Folds a later check's report into this one (its violations appended).
    void merge(SanityReport other) {
        ok = ok && other.ok;
        violations.insert(violations.end(), std::make_move_iterator(other.violations.begin()),
                          std::make_move_iterator(other.violations.end()));
    }
};

/// Checks a pair list: indices within [0, ro_count), no self-pairs, and —
/// when `forbid_reuse` — no RO shared across pairs ("the re-use of ROs across
/// pairs should also be prohibited somehow", Section VII-C).
SanityReport check_pair_list(const std::vector<IndexPair>& pairs, int ro_count,
                             bool forbid_reuse, SanityMode mode = SanityMode::Explain);

/// Checks a group assignment: every RO in exactly one group, group ids dense
/// starting at 1 (Algorithm 2's convention), and group sizes >= 1. An id
/// above the RO count can never be dense and is refused before anything is
/// sized from it.
SanityReport check_group_assignment(const std::vector<int>& group_of, int ro_count,
                                    SanityMode mode = SanityMode::Explain);

/// Checks distiller coefficients against a plausibility bound: an honest fit
/// of a frequency map can never have |beta| above a few times the systematic
/// magnitude. Flagging absurd coefficients blocks the steep-surface
/// injections of Section VI-C/D (at the price of a device-specific bound).
SanityReport check_coefficients(const std::vector<double>& beta, double magnitude_bound,
                                SanityMode mode = SanityMode::Explain);

/// HMAC-SHA-256 authentication of a helper blob with a device-local key.
class HelperAuthenticator {
public:
    explicit HelperAuthenticator(std::span<const std::uint8_t> device_key)
        : key_(device_key.begin(), device_key.end()) {}

    /// Appends a 32-byte tag to the blob.
    std::vector<std::uint8_t> seal(std::span<const std::uint8_t> blob) const;

    /// Verifies and strips the tag; nullopt when the tag does not match.
    std::optional<std::vector<std::uint8_t>> open(std::span<const std::uint8_t> sealed) const;

private:
    std::vector<std::uint8_t> key_;
};

} // namespace ropuf::helperdata

#include "ropuf/core/oracle.hpp"

#include <algorithm>

#include "ropuf/obs/metrics.hpp"

namespace ropuf::core {

void ProbeNvm::build() const {
    ROPUF_OBS_COUNT("helperdata.blob_stores", 1);
    nvm_ = typed_->store();
    built_ = true;
}

bool ProbeNvm::same_image(const ProbeNvm& other) const {
    if (typed_ != nullptr && other.typed_ != nullptr && typed_->type == other.typed_->type) {
        return typed_ == other.typed_ || typed_->same(*other.typed_);
    }
    return bytes() == other.bytes();
}

BudgetedOracle::BudgetedOracle(AnyOracle inner, std::int64_t budget)
    : inner_(std::move(inner)), budget_(budget) {
    if (!inner_) throw std::invalid_argument("BudgetedOracle: null inner oracle");
    if (budget_ < 0) throw std::invalid_argument("BudgetedOracle: negative budget");
}

void BudgetedOracle::evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) {
    verdicts.clear();
    if (probes.empty()) return;
    if (exhausted_) throw BudgetExhausted(budget_, 0);
    const std::int64_t remaining = budget_ - spent_;
    const std::size_t affordable =
        std::min<std::size_t>(probes.size(),
                              remaining > 0 ? static_cast<std::size_t>(remaining) : 0u);
    if (affordable > 0) {
        // The affordable prefix is evaluated and charged like any batch; the
        // attacker keeps those verdicts (they are in the inner ledger) even
        // though the exception below abandons the rest of the batch.
        inner_.impl()->evaluate(probes.first(affordable), verdicts);
        spent_ += static_cast<std::int64_t>(affordable);
    }
    if (affordable < probes.size()) {
        exhausted_ = true;
        throw BudgetExhausted(budget_, affordable);
    }
}

void forward_accepted(AnyOracle& inner, std::span<const Probe> probes,
                      std::span<const char> accepted, std::vector<bool>& verdicts) {
    std::vector<bool> sub;
    std::size_t i = 0;
    while (i < probes.size()) {
        if (!accepted[i]) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < probes.size() && accepted[j]) ++j;
        inner.impl()->evaluate(probes.subspan(i, j - i), sub);
        for (std::size_t k = 0; k < sub.size(); ++k) verdicts[i + k] = sub[k];
        i = j;
    }
}

SanityCheckingOracle::SanityCheckingOracle(AnyOracle inner, HelperValidator validator)
    : inner_(std::move(inner)), validator_(std::move(validator)) {
    if (!inner_) throw std::invalid_argument("SanityCheckingOracle: null inner oracle");
    if (!validator_) throw std::invalid_argument("SanityCheckingOracle: null validator");
}

void SanityCheckingOracle::evaluate(std::span<const Probe> probes,
                                    std::vector<bool>& verdicts) {
    verdicts.assign(probes.size(), true); // a refused probe's verdict stays true
    accepted_.assign(probes.size(), 0);
    std::optional<std::size_t> last_refused;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (validator_(probes[i].helper, helperdata::SanityMode::Verdict).ok) {
            accepted_[i] = 1;
        } else {
            ++refused_;
            last_refused = i;
        }
    }
    if (last_refused) {
        last_refused_ = probes[*last_refused].helper;
        explained_ = false;
    }
    forward_accepted(inner_, probes, accepted_, verdicts);
}

const std::vector<std::string>& SanityCheckingOracle::last_violations() const {
    if (!explained_) {
        last_violations_ = validator_(last_refused_, helperdata::SanityMode::Explain).violations;
        explained_ = true;
    }
    return last_violations_;
}

OracleStats SanityCheckingOracle::stats() const {
    OracleStats s = inner_.stats();
    // A refused probe still spent one of the attacker's queries, but the
    // device never measured an oscillator for it.
    s.queries += refused_;
    s.refused += refused_;
    return s;
}

void TracingOracle::evaluate(std::span<const Probe> probes, std::vector<bool>& verdicts) {
    inner_.impl()->evaluate(probes, verdicts);
    TraceSample sample;
    sample.after = inner_.stats();
    sample.probes = probes.size();
    sample.failures = static_cast<std::size_t>(
        std::count(verdicts.begin(), verdicts.end(), true));
    trace_.push_back(sample);
}

} // namespace ropuf::core

#include "ropuf/ecc/gf2m.hpp"

#include <cassert>
#include <stdexcept>

namespace ropuf::ecc {

namespace {

/// Primitive polynomials over GF(2), indexed by degree m (bit i = coeff of x^i).
/// Standard table (Lin & Costello, Appendix B).
std::uint32_t primitive_poly_for(int m) {
    switch (m) {
        case 3: return 0b1011;            // x^3 + x + 1
        case 4: return 0b10011;           // x^4 + x + 1
        case 5: return 0b100101;          // x^5 + x^2 + 1
        case 6: return 0b1000011;         // x^6 + x + 1
        case 7: return 0b10001001;        // x^7 + x^3 + 1
        case 8: return 0b100011101;       // x^8 + x^4 + x^3 + x^2 + 1
        case 9: return 0b1000010001;      // x^9 + x^4 + 1
        case 10: return 0b10000001001;    // x^10 + x^3 + 1
        case 11: return 0b100000000101;   // x^11 + x^2 + 1
        case 12: return 0b1000001010011;  // x^12 + x^6 + x^4 + x + 1
        case 13: return 0b10000000011011; // x^13 + x^4 + x^3 + x + 1
        case 14: return 0b100010001000011;// x^14 + x^10 + x^6 + x + 1
        default:
            throw std::invalid_argument("Gf2m supports 3 <= m <= 14");
    }
}

} // namespace

Gf2m::Gf2m(int m) : m_(m), size_(1 << m), prim_poly_(primitive_poly_for(m)) {
    exp_.resize(2 * static_cast<std::size_t>(n()));
    log_.assign(static_cast<std::size_t>(size_), -1);
    int x = 1;
    for (int e = 0; e < n(); ++e) {
        exp_[static_cast<std::size_t>(e)] = x;
        exp_[static_cast<std::size_t>(e + n())] = x;
        log_[static_cast<std::size_t>(x)] = e;
        x <<= 1;
        if (x & size_) x ^= static_cast<int>(prim_poly_);
    }
    assert(x == 1 && "alpha must have full multiplicative order");
}

int Gf2m::log(int x) const {
    assert(x > 0 && x < size_);
    return log_[static_cast<std::size_t>(x)];
}

int Gf2m::inv(int a) const {
    assert(a != 0);
    return exp_[static_cast<std::size_t>((n() - log(a)) % n())];
}

int Gf2m::pow(int a, int e) const {
    assert(e >= 0);
    if (e == 0) return 1;
    if (a == 0) return 0;
    const long long le = static_cast<long long>(log(a)) * e % n();
    return exp_[static_cast<std::size_t>(le)];
}

int Gf2m::eval_poly(const std::vector<int>& coeffs, int x) const {
    // Horner's rule from the highest coefficient down.
    int acc = 0;
    for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) {
        acc = add(mul(acc, x), *it);
    }
    return acc;
}

} // namespace ropuf::ecc

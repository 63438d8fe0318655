// Galois field GF(2^m) arithmetic backing the BCH error-correcting code.
//
// Elements are represented in the power basis as integers in [0, 2^m).
// Multiplication/inversion run through exp/log tables built once per field
// from a fixed primitive polynomial, so all operations are O(1). The exp
// table holds two periods, so a product indexes it by the plain sum of two
// logs, with no reduction modulo n.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace ropuf::ecc {

/// GF(2^m) with 3 <= m <= 14. The zero element is 0; the multiplicative
/// group is generated by alpha = 2 (the polynomial "x").
class Gf2m {
public:
    explicit Gf2m(int m);

    int m() const { return m_; }

    /// Field size 2^m.
    int size() const { return size_; }

    /// Multiplicative group order n = 2^m - 1 (also the BCH code length).
    int n() const { return size_ - 1; }

    /// The primitive polynomial used for this field, as a bit mask
    /// (bit i = coefficient of x^i).
    std::uint32_t primitive_poly() const { return prim_poly_; }

    /// alpha^e with e taken modulo n. e may be any non-negative integer.
    int alpha_pow(int e) const {
        return exp_[static_cast<std::size_t>(e % n())];
    }

    /// Discrete log of a nonzero element (log of alpha^e is e).
    int log(int x) const;

    int add(int a, int b) const { return a ^ b; }

    int mul(int a, int b) const {
        if (a == 0 || b == 0) return 0;
        return exp_[static_cast<std::size_t>(log_[static_cast<std::size_t>(a)] +
                                             log_[static_cast<std::size_t>(b)])];
    }

    /// Multiplicative inverse of a nonzero element.
    int inv(int a) const;

    /// a / b with b nonzero.
    int div(int a, int b) const {
        assert(b != 0);
        if (a == 0) return 0;
        return exp_[static_cast<std::size_t>(log_[static_cast<std::size_t>(a)] + n() -
                                             log_[static_cast<std::size_t>(b)])];
    }

    /// a^e for any integer exponent e >= 0 (0^0 defined as 1).
    int pow(int a, int e) const;

    /// Evaluates a polynomial with coefficients coeffs[i] of x^i at point x.
    int eval_poly(const std::vector<int>& coeffs, int x) const;

    /// Raw exp table (exp_table()[e] = alpha^e for e in [0, 2n)); consumed
    /// by the table-driven syndrome kernel.
    const std::vector<int>& exp_table() const { return exp_; }

    /// Raw log table (log_table()[x] = log of x for x in [1, 2^m)).
    const std::vector<int>& log_table() const { return log_; }

private:
    int m_;
    int size_;
    std::uint32_t prim_poly_;
    std::vector<int> exp_; // exp_[e] = alpha^e, e in [0, 2n)
    std::vector<int> log_; // log_[x] = e with alpha^e = x, x in [1, 2^m)
};

} // namespace ropuf::ecc

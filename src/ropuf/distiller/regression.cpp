#include "ropuf/distiller/regression.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ropuf::distiller {

namespace {

/// Solves the dense symmetric positive-definite system A x = b in place via
/// Gaussian elimination with partial pivoting. The normal systems here are
/// tiny (degree 3 -> 10 unknowns), so numerics are not a concern beyond
/// pivoting.
std::vector<double> solve_dense(std::vector<std::vector<double>> a, std::vector<double> b) {
    const std::size_t n = b.size();
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
        }
        if (std::abs(a[pivot][col]) < 1e-12) {
            throw std::runtime_error("distiller fit: singular normal system (degree too high "
                                     "for the array size)");
        }
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r][col] / a[col][col];
            if (factor == 0.0) continue;
            for (std::size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
            b[r] -= factor * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t row = n; row-- > 0;) {
        double acc = b[row];
        for (std::size_t c = row + 1; c < n; ++c) acc -= a[row][c] * x[c];
        x[row] = acc / a[row][row];
    }
    return x;
}

/// Design-matrix row: the monomial values [x^{i-j} y^j] at grid cell (x, y).
void monomials(const PowerTable& pw, int degree, int x, int y, std::vector<double>& row) {
    std::size_t k = 0;
    for (int i = 0; i <= degree; ++i) {
        for (int j = 0; j <= i; ++j, ++k) row[k] = pw.x_pow(i - j)[x] * pw.y_pow(j)[y];
    }
}

} // namespace

PolySurface fit(const sim::ArrayGeometry& g, std::span<const double> freqs, int degree) {
    assert(static_cast<int>(freqs.size()) == g.count());
    const int nc = coefficient_count(degree);
    if (g.count() < nc) {
        throw std::invalid_argument("distiller fit: fewer samples than coefficients");
    }
    // Normal equations: (M^T M) beta = M^T f.
    std::vector<std::vector<double>> mtm(static_cast<std::size_t>(nc),
                                         std::vector<double>(static_cast<std::size_t>(nc), 0.0));
    std::vector<double> mtf(static_cast<std::size_t>(nc), 0.0);
    const PowerTable& pw = PowerTable::for_geometry(g, degree);
    std::vector<double> row(static_cast<std::size_t>(nc));
    for (int idx = 0; idx < g.count(); ++idx) {
        monomials(pw, degree, g.x_of(idx), g.y_of(idx), row);
        const double f = freqs[static_cast<std::size_t>(idx)];
        for (int a = 0; a < nc; ++a) {
            mtf[static_cast<std::size_t>(a)] += row[static_cast<std::size_t>(a)] * f;
            for (int b = a; b < nc; ++b) {
                mtm[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] +=
                    row[static_cast<std::size_t>(a)] * row[static_cast<std::size_t>(b)];
            }
        }
    }
    for (int a = 0; a < nc; ++a) {
        for (int b = 0; b < a; ++b) {
            mtm[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
                mtm[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)];
        }
    }
    return PolySurface(degree, solve_dense(std::move(mtm), std::move(mtf)));
}

std::vector<double> residuals(const sim::ArrayGeometry& g, std::span<const double> freqs,
                              const PolySurface& surface) {
    assert(static_cast<int>(freqs.size()) == g.count());
    std::vector<double> out = surface.evaluate_grid(g);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = freqs[i] - out[i];
    return out;
}

void residuals(const sim::ArrayGeometry& g, std::span<const double> freqs, int degree,
               std::span<const double> beta, std::span<double> out) {
    assert(static_cast<int>(freqs.size()) == g.count());
    evaluate_grid(degree, beta, g, out);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = freqs[i] - out[i];
}

double rms(std::span<const double> values) {
    if (values.empty()) return 0.0;
    double acc = 0.0;
    for (double v : values) acc += v * v;
    return std::sqrt(acc / static_cast<double>(values.size()));
}

} // namespace ropuf::distiller

#include "ropuf/distiller/poly_surface.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ropuf::distiller {

int coefficient_count(int degree) {
    assert(degree >= 0);
    return (degree + 1) * (degree + 2) / 2;
}

int coefficient_index(int i, int j) {
    assert(i >= 0 && j >= 0 && j <= i);
    // Terms of total degree < i occupy i(i+1)/2 slots; j indexes within.
    return i * (i + 1) / 2 + j;
}

PowerTable::PowerTable(const sim::ArrayGeometry& g, int degree)
    : cols_(static_cast<std::size_t>(g.cols)), rows_(static_cast<std::size_t>(g.rows)),
      degree_(degree), x_(static_cast<std::size_t>(degree + 1) * cols_),
      y_(static_cast<std::size_t>(degree + 1) * rows_) {
    assert(degree >= 0);
    for (std::size_t e = 0; e <= static_cast<std::size_t>(degree); ++e) {
        for (std::size_t c = 0; c < cols_; ++c) {
            x_[e * cols_ + c] = std::pow(static_cast<double>(c), static_cast<int>(e));
        }
        for (std::size_t r = 0; r < rows_; ++r) {
            y_[e * rows_ + r] = std::pow(static_cast<double>(r), static_cast<int>(e));
        }
    }
}

const PowerTable& PowerTable::for_geometry(const sim::ArrayGeometry& g, int degree) {
    thread_local PowerTable cached;
    if (cached.cols_ != static_cast<std::size_t>(g.cols) ||
        cached.rows_ != static_cast<std::size_t>(g.rows) || cached.degree_ < degree) {
        cached = PowerTable(g, degree);
    }
    return cached;
}

PolySurface::PolySurface(int degree)
    : degree_(degree), beta_(static_cast<std::size_t>(coefficient_count(degree)), 0.0) {}

PolySurface::PolySurface(int degree, std::vector<double> beta)
    : degree_(degree), beta_(std::move(beta)) {
    if (static_cast<int>(beta_.size()) != coefficient_count(degree)) {
        throw std::invalid_argument("PolySurface: coefficient count does not match degree");
    }
}

double PolySurface::operator()(double x, double y) const {
    double acc = 0.0;
    for (int i = 0; i <= degree_; ++i) {
        for (int j = 0; j <= i; ++j) {
            acc += beta_[static_cast<std::size_t>(coefficient_index(i, j))] *
                   std::pow(x, i - j) * std::pow(y, j);
        }
    }
    return acc;
}

void evaluate_grid(int degree, std::span<const double> beta, const sim::ArrayGeometry& g,
                   std::span<double> out) {
    assert(static_cast<int>(beta.size()) == coefficient_count(degree));
    assert(static_cast<int>(out.size()) == g.count());
    // Term-outer order: every cell still accumulates its terms in operator()'s
    // (i, j) order, each as (beta * x^(i-j)) * y^j from the same pow values,
    // so the sums are bitwise equal while the inner loop runs along a row.
    const PowerTable& pw = PowerTable::for_geometry(g, degree);
    const auto cols = static_cast<std::size_t>(g.cols);
    std::fill(out.begin(), out.end(), 0.0);
    std::size_t k = 0;
    for (int i = 0; i <= degree; ++i) {
        for (int j = 0; j <= i; ++j, ++k) {
            const double b = beta[k];
            const double* xa = pw.x_pow(i - j);
            const double* yb = pw.y_pow(j);
            for (int y = 0; y < g.rows; ++y) {
                double* row = out.data() + static_cast<std::size_t>(y) * cols;
                const double yv = yb[y];
                for (std::size_t x = 0; x < cols; ++x) row[x] += b * xa[x] * yv;
            }
        }
    }
}

std::vector<double> PolySurface::evaluate_grid(const sim::ArrayGeometry& g) const {
    std::vector<double> out(static_cast<std::size_t>(g.count()));
    distiller::evaluate_grid(degree_, beta_, g, out);
    return out;
}

PolySurface PolySurface::operator+(const PolySurface& other) const {
    const int deg = std::max(degree_, other.degree_);
    PolySurface out(deg);
    for (std::size_t i = 0; i < beta_.size(); ++i) out.beta_[i] += beta_[i];
    for (std::size_t i = 0; i < other.beta_.size(); ++i) out.beta_[i] += other.beta_[i];
    return out;
}

PolySurface PolySurface::operator-(const PolySurface& other) const {
    return *this + (-other);
}

PolySurface PolySurface::operator-() const {
    PolySurface out(degree_);
    for (std::size_t i = 0; i < beta_.size(); ++i) out.beta_[i] = -beta_[i];
    return out;
}

PolySurface PolySurface::plane(double a, double b, double c) {
    PolySurface s(1);
    s.beta_[static_cast<std::size_t>(coefficient_index(0, 0))] = a;
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 0))] = b; // x term
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 1))] = c; // y term
    return s;
}

PolySurface PolySurface::quadratic_x(double amp, double x0) {
    // amp (x - x0)^2 = amp x^2 - 2 amp x0 x + amp x0^2
    PolySurface s(2);
    s.beta_[static_cast<std::size_t>(coefficient_index(0, 0))] = amp * x0 * x0;
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 0))] = -2.0 * amp * x0;
    s.beta_[static_cast<std::size_t>(coefficient_index(2, 0))] = amp;
    return s;
}

PolySurface PolySurface::quadratic_y(double amp, double y0) {
    PolySurface s(2);
    s.beta_[static_cast<std::size_t>(coefficient_index(0, 0))] = amp * y0 * y0;
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 1))] = -2.0 * amp * y0;
    s.beta_[static_cast<std::size_t>(coefficient_index(2, 2))] = amp;
    return s;
}

} // namespace ropuf::distiller

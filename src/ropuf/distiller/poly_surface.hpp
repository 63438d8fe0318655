// Bivariate polynomial surfaces in the paper's parameterization:
//
//   f(x, y) = sum_{i=0..p} sum_{j=0..i} beta_{i,j} x^{i-j} y^j
//
// (paper Section V-A). The coefficient vector is stored flat in the same
// (i, j) double-loop order. These surfaces serve double duty: the entropy
// distiller *fits* them to remove systematic variation, and the attacker
// *injects* them to overshadow random variation (Section VI-C/D, Fig. 6).
#pragma once

#include <span>
#include <vector>

#include "ropuf/sim/geometry.hpp"

namespace ropuf::distiller {

/// Number of coefficients of a degree-p surface: (p+1)(p+2)/2.
int coefficient_count(int degree);

/// Flat index of beta_{i,j} within the coefficient vector.
int coefficient_index(int i, int j);

/// std::pow(c, e) for every column c and row r of an array geometry, e from
/// 0 to a maximum degree: every power a grid evaluation or a fit's design
/// row needs. Holding the exact std::pow values keeps table-driven results
/// bitwise equal to per-point PolySurface::operator() evaluation.
class PowerTable {
public:
    PowerTable() = default;
    PowerTable(const sim::ArrayGeometry& g, int degree);

    /// The calling thread's table covering (g, degree); rebuilt only when the
    /// geometry changes or a larger degree is asked for. The reference stays
    /// valid until the next for_geometry call on the same thread.
    static const PowerTable& for_geometry(const sim::ArrayGeometry& g, int degree);

    /// c^e for c = 0 .. cols-1.
    const double* x_pow(int e) const { return x_.data() + static_cast<std::size_t>(e) * cols_; }
    /// r^e for r = 0 .. rows-1.
    const double* y_pow(int e) const { return y_.data() + static_cast<std::size_t>(e) * rows_; }

private:
    std::size_t cols_ = 0;
    std::size_t rows_ = 0;
    int degree_ = -1;
    std::vector<double> x_; // [degree+1][cols]
    std::vector<double> y_; // [degree+1][rows]
};

/// PolySurface::evaluate_grid for coefficients held elsewhere, into `out`
/// (g.count() values): the allocation-free form per-probe regeneration uses.
void evaluate_grid(int degree, std::span<const double> beta, const sim::ArrayGeometry& g,
                   std::span<double> out);

/// A polynomial surface of fixed degree with dense coefficients.
class PolySurface {
public:
    /// Zero surface of the given degree.
    explicit PolySurface(int degree);

    /// Surface from an existing coefficient vector (size must match degree).
    PolySurface(int degree, std::vector<double> beta);

    int degree() const { return degree_; }
    const std::vector<double>& beta() const { return beta_; }
    std::vector<double>& beta() { return beta_; }

    double operator()(double x, double y) const;

    /// Evaluates the surface at every cell of an array, row-major. Bitwise
    /// equal to operator() at each (x_of(i), y_of(i)).
    std::vector<double> evaluate_grid(const sim::ArrayGeometry& g) const;

    /// Pointwise sum / difference (degrees are promoted to the larger one).
    PolySurface operator+(const PolySurface& other) const;
    PolySurface operator-(const PolySurface& other) const;
    PolySurface operator-() const;

    /// Convenience factories for attack patterns (Fig. 6):
    /// plane a + bx + cy.
    static PolySurface plane(double a, double b, double c);
    /// Horizontal quadratic "valley" amp * (x - x0)^2 — the Fig. 6 pattern
    /// whose extremum column (marked with a triangle in the paper) is where
    /// the attacker leaves response bits undetermined.
    static PolySurface quadratic_x(double amp, double x0);
    /// Vertical quadratic valley amp * (y - y0)^2.
    static PolySurface quadratic_y(double amp, double y0);

private:
    int degree_;
    std::vector<double> beta_;
};

} // namespace ropuf::distiller

// Entropy distiller tests: surface algebra and regression exactness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "ropuf/distiller/regression.hpp"
#include "ropuf/rng/xoshiro.hpp"
#include "ropuf/sim/ro_array.hpp"
#include "ropuf/stats/estimators.hpp"

namespace {

using namespace ropuf::distiller;
using ropuf::sim::ArrayGeometry;

TEST(PolySurface, CoefficientCountAndIndex) {
    EXPECT_EQ(coefficient_count(0), 1);
    EXPECT_EQ(coefficient_count(1), 3);
    EXPECT_EQ(coefficient_count(2), 6);
    EXPECT_EQ(coefficient_count(3), 10);
    EXPECT_EQ(coefficient_index(0, 0), 0);
    EXPECT_EQ(coefficient_index(1, 0), 1);
    EXPECT_EQ(coefficient_index(1, 1), 2);
    EXPECT_EQ(coefficient_index(2, 0), 3);
    EXPECT_EQ(coefficient_index(2, 1), 4);
    EXPECT_EQ(coefficient_index(2, 2), 5);
    EXPECT_EQ(coefficient_index(3, 3), 9);
}

TEST(PolySurface, PlaneEvaluates) {
    const auto s = PolySurface::plane(1.0, 2.0, 3.0);
    EXPECT_DOUBLE_EQ(s(0.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(s(1.0, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(s(0.0, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(s(2.0, 3.0), 1.0 + 4.0 + 9.0);
}

TEST(PolySurface, QuadraticVertexVanishes) {
    const auto sx = PolySurface::quadratic_x(5.0, 2.5);
    EXPECT_NEAR(sx(2.5, 7.0), 0.0, 1e-12);
    EXPECT_NEAR(sx(2.0, 0.0), 5.0 * 0.25, 1e-12);
    EXPECT_NEAR(sx(3.0, 4.0), 5.0 * 0.25, 1e-12);
    // Symmetry around the vertex: the property the Fig. 6 attacks rely on.
    EXPECT_NEAR(sx(2.0, 0.0), sx(3.0, 0.0), 1e-12);

    const auto sy = PolySurface::quadratic_y(2.0, 1.5);
    EXPECT_NEAR(sy(9.0, 1.5), 0.0, 1e-12);
    EXPECT_NEAR(sy(0.0, 1.0), sy(0.0, 2.0), 1e-12);
}

TEST(PolySurface, AdditionAndNegation) {
    const auto a = PolySurface::plane(1.0, 2.0, 0.0);
    const auto b = PolySurface::quadratic_x(3.0, 0.0);
    const auto sum = a + b;
    EXPECT_DOUBLE_EQ(sum(2.0, 5.0), a(2.0, 5.0) + b(2.0, 5.0));
    const auto diff = a - b;
    EXPECT_DOUBLE_EQ(diff(2.0, 5.0), a(2.0, 5.0) - b(2.0, 5.0));
    EXPECT_DOUBLE_EQ((-a)(1.0, 1.0), -a(1.0, 1.0));
}

TEST(PolySurface, GridEvaluationRowMajor) {
    const ArrayGeometry g{3, 2};
    const auto s = PolySurface::plane(0.0, 1.0, 10.0);
    const auto grid = s.evaluate_grid(g);
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_DOUBLE_EQ(grid[0], 0.0);   // (0,0)
    EXPECT_DOUBLE_EQ(grid[2], 2.0);   // (2,0)
    EXPECT_DOUBLE_EQ(grid[3], 10.0);  // (0,1)
    EXPECT_DOUBLE_EQ(grid[5], 12.0);  // (2,1)
}

TEST(PolySurface, DegreeMismatchThrows) {
    EXPECT_THROW(PolySurface(2, std::vector<double>(3, 0.0)), std::invalid_argument);
}

class FitDegrees : public ::testing::TestWithParam<int> {};

TEST_P(FitDegrees, RecoversPlantedPolynomialExactly) {
    const int degree = GetParam();
    const ArrayGeometry g{16, 8};
    PolySurface planted(degree);
    // Deterministic non-trivial coefficients.
    for (std::size_t i = 0; i < planted.beta().size(); ++i) {
        planted.beta()[i] = 0.5 * static_cast<double>(i + 1) / static_cast<double>(i + 3);
    }
    const auto values = planted.evaluate_grid(g);
    const auto fitted = fit(g, values, degree);
    for (std::size_t i = 0; i < planted.beta().size(); ++i) {
        EXPECT_NEAR(fitted.beta()[i], planted.beta()[i], 1e-6) << "coefficient " << i;
    }
    const auto resid = residuals(g, values, fitted);
    EXPECT_LT(rms(resid), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Degrees, FitDegrees, ::testing::Values(0, 1, 2, 3));

TEST(Fit, RemovesSystematicKeepsRandom) {
    // The DAC'13 use case: fit on systematic + random, residual keeps the
    // random part (the "surface roughness" of Fig. 2).
    const ArrayGeometry g{16, 32};
    ropuf::sim::ProcessParams p{};
    p.sigma_random_mhz = 1.0;
    const ropuf::sim::RoArray arr(g, p, 71);
    std::vector<double> freqs(static_cast<std::size_t>(g.count()));
    for (int i = 0; i < g.count(); ++i) {
        freqs[static_cast<std::size_t>(i)] = arr.true_frequency(i);
    }
    const auto fitted = fit(g, freqs, 2);
    const auto resid = residuals(g, freqs, fitted);
    // Residual RMS ~ sigma_random (systematic removed).
    EXPECT_NEAR(rms(resid), 1.0, 0.15);
    // Residuals of the raw map (vs a constant) are much larger.
    const auto flat = fit(g, freqs, 0);
    EXPECT_GT(rms(residuals(g, freqs, flat)), 2.0 * rms(resid));
}

TEST(Fit, HigherDegreeNeverFitsWorse) {
    const ArrayGeometry g{16, 16};
    const ropuf::sim::RoArray arr(g, ropuf::sim::ProcessParams{}, 72);
    std::vector<double> freqs(static_cast<std::size_t>(g.count()));
    for (int i = 0; i < g.count(); ++i) {
        freqs[static_cast<std::size_t>(i)] = arr.true_frequency(i);
    }
    double prev = 1e30;
    for (int d = 0; d <= 3; ++d) {
        const double r = rms(residuals(g, freqs, fit(g, freqs, d)));
        EXPECT_LE(r, prev + 1e-9);
        prev = r;
    }
}

TEST(Fit, ResidualsOrthogonalToMonomials) {
    // Least-squares property: residuals sum to ~zero against fitted basis.
    const ArrayGeometry g{8, 8};
    const ropuf::sim::RoArray arr(g, ropuf::sim::ProcessParams{}, 73);
    std::vector<double> freqs(static_cast<std::size_t>(g.count()));
    for (int i = 0; i < g.count(); ++i) {
        freqs[static_cast<std::size_t>(i)] = arr.true_frequency(i);
    }
    const auto fitted = fit(g, freqs, 1);
    const auto resid = residuals(g, freqs, fitted);
    double sum = 0.0;
    double sum_x = 0.0;
    for (int i = 0; i < g.count(); ++i) {
        sum += resid[static_cast<std::size_t>(i)];
        sum_x += resid[static_cast<std::size_t>(i)] * g.x_of(i);
    }
    EXPECT_NEAR(sum, 0.0, 1e-6);
    EXPECT_NEAR(sum_x, 0.0, 1e-5);
}

TEST(Fit, RejectsUnderdeterminedSystems) {
    const ArrayGeometry g{2, 2}; // 4 samples
    const std::vector<double> freqs(4, 1.0);
    EXPECT_THROW(fit(g, freqs, 2), std::invalid_argument); // 6 coefficients
}

// ---------------------------------------------------------------------------
// Bit-exact references. The table-driven grid evaluation, residuals and fit
// rows must equal per-point evaluation with std::pow bit for bit: the
// regenerated responses (and every pinned attack result) depend on it.

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Dense Gaussian elimination with partial pivoting, as the fit solves.
std::vector<double> reference_solve(std::vector<std::vector<double>> a, std::vector<double> b) {
    const std::size_t n = b.size();
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
        }
        if (std::abs(a[pivot][col]) < 1e-12) throw std::runtime_error("singular");
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

/// Normal-equation fit with design rows built from std::pow per point.
std::vector<double> reference_fit(const ArrayGeometry& g, const std::vector<double>& freqs,
                                  int degree) {
    const auto nc = static_cast<std::size_t>(coefficient_count(degree));
    std::vector<std::vector<double>> mtm(nc, std::vector<double>(nc, 0.0));
    std::vector<double> mtf(nc, 0.0);
    for (int idx = 0; idx < g.count(); ++idx) {
        const double x = g.x_of(idx);
        const double y = g.y_of(idx);
        std::vector<double> row(nc);
        for (int i = 0; i <= degree; ++i) {
            for (int j = 0; j <= i; ++j) {
                row[static_cast<std::size_t>(coefficient_index(i, j))] =
                    std::pow(x, i - j) * std::pow(y, j);
            }
        }
        const double f = freqs[static_cast<std::size_t>(idx)];
        for (std::size_t a = 0; a < nc; ++a) {
            mtf[a] += row[a] * f;
            for (std::size_t b = a; b < nc; ++b) mtm[a][b] += row[a] * row[b];
        }
    }
    for (std::size_t a = 0; a < nc; ++a) {
        for (std::size_t b = 0; b < a; ++b) mtm[a][b] = mtm[b][a];
    }
    return reference_solve(std::move(mtm), std::move(mtf));
}

class DistillerBitExact : public ::testing::TestWithParam<ArrayGeometry> {};

TEST_P(DistillerBitExact, GridResidualsAndFitMatchPerPointPow) {
    const ArrayGeometry g = GetParam();
    ropuf::rng::Xoshiro256pp rng(static_cast<std::uint64_t>(g.cols * 131 + g.rows));
    std::vector<double> freqs(static_cast<std::size_t>(g.count()));
    for (double& f : freqs) f = rng.uniform(196.0, 204.0);
    // Degrees up and down again, so the cached power table is both reused
    // and asked for a larger degree.
    for (const int degree : {0, 1, 2, 3, 4, 2, 0, 4}) {
        PolySurface s(degree);
        for (double& b : s.beta()) b = rng.uniform(-3.0, 3.0) / (1.0 + rng.uniform());

        const auto grid = s.evaluate_grid(g);
        std::vector<double> point(freqs.size());
        std::vector<double> resid(freqs.size());
        for (int i = 0; i < g.count(); ++i) {
            const auto u = static_cast<std::size_t>(i);
            point[u] = s(g.x_of(i), g.y_of(i));
            resid[u] = freqs[u] - point[u];
        }
        EXPECT_TRUE(same_bits(grid, point)) << "evaluate_grid, degree " << degree;
        EXPECT_TRUE(same_bits(residuals(g, freqs, s), resid)) << "residuals, degree " << degree;

        std::vector<double> want;
        bool want_throws = g.count() < coefficient_count(degree);
        if (!want_throws) {
            try {
                want = reference_fit(g, freqs, degree);
            } catch (const std::runtime_error&) {
                want_throws = true;
            }
        }
        if (want_throws) {
            EXPECT_ANY_THROW(fit(g, freqs, degree)) << "degree " << degree;
        } else {
            EXPECT_TRUE(same_bits(fit(g, freqs, degree).beta(), want)) << "fit, degree " << degree;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, DistillerBitExact,
                         ::testing::Values(ArrayGeometry{8, 8}, ArrayGeometry{16, 32},
                                           ArrayGeometry{32, 16}, ArrayGeometry{5, 3},
                                           ArrayGeometry{12, 1}, ArrayGeometry{1, 12}));

TEST(Rms, Basics) {
    EXPECT_DOUBLE_EQ(rms(std::vector<double>{}), 0.0);
    EXPECT_DOUBLE_EQ(rms(std::vector<double>{3.0, 4.0}), std::sqrt(12.5));
}

} // namespace

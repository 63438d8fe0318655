// The entropy distiller: least-mean-squares polynomial regression on the RO
// frequency map (paper Section V-A, following Yin & Qu's DAC 2013 proposal).
//
// "Systematic manufacturing variations ... are modeled via polynomial
// regression on the two-dimensional RO frequency map f(x, y). The residuals
// represent the desired random variations. ... Coefficients beta_{i,j} may be
// determined in a least mean squares manner. They are stored as public helper
// data. A subtraction procedure removes systematic variations for every
// regeneration of the key."
//
// The fitted PolySurface *is* the public helper data; `residuals` is the
// on-chip subtraction procedure. An attacker who rewrites the coefficients
// adds an arbitrary surface to the residual map — the lever behind every
// Section VI-C/D attack.
#pragma once

#include <span>

#include "ropuf/distiller/poly_surface.hpp"
#include "ropuf/sim/geometry.hpp"

namespace ropuf::distiller {

/// Least-squares fit of a degree-p surface to a row-major frequency map.
/// Experiments in the original proposal indicate p = 2 and p = 3 as good
/// values for a 16x32 array; both are supported (any p with a well-posed
/// normal system is accepted).
PolySurface fit(const sim::ArrayGeometry& g, std::span<const double> freqs, int degree);

/// The on-chip subtraction procedure: residual_i = f_i - P(x_i, y_i).
std::vector<double> residuals(const sim::ArrayGeometry& g, std::span<const double> freqs,
                              const PolySurface& surface);

/// Same for the degree-`degree` surface with coefficients `beta`, written
/// to `out` (g.count() values) without allocating.
void residuals(const sim::ArrayGeometry& g, std::span<const double> freqs, int degree,
               std::span<const double> beta, std::span<double> out);

/// Root-mean-square of a residual vector (fit-quality metric for the
/// topology experiment E2).
double rms(std::span<const double> values);

} // namespace ropuf::distiller

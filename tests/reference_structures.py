"""Test inputs and defining routes that the package itself never calls.

* `FlatChart` is the flat structure i ddbar |z|^2, a test input with zero
  curvature.
* `PotentialKahler` takes any potential and reaches every derivative by
  Richardson-extrapolated central differences (`kahler.complex_hessian`):
  the finite-difference reference for the hand-coded structures.
* `lichnerowicz_apply` is the defining route of the scalar-curvature
  derivative, a difference quotient in the deformation parameter, that
  `bergman.scalar_curvature_variation` is compared with.
"""

import numpy as np

from projbalance.kahler import KahlerStructure, PerturbedKahler, complex_hessian


class FlatChart(KahlerStructure):
    """i ddbar |z|^2: the identity form matrix, zero curvature."""

    def __init__(self, m):
        self.m = m
        self.label = f"flat(m={m})"

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.sum(np.abs(pts) ** 2, axis=1)

    def matrix(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.broadcast_to(np.eye(self.m, dtype=complex),
                               (pts.shape[0], self.m, self.m)).copy()

    def ricci_matrix(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.zeros((pts.shape[0], self.m, self.m), dtype=complex)

    def scalar_curvature(self, pts):
        return np.zeros(np.asarray(pts).shape[0])


class PotentialKahler(KahlerStructure):
    """Structure from a user-supplied potential; the form matrix and, through
    the base class, the Ricci form by centered finite differences with
    Richardson extrapolation."""

    def __init__(self, m, potential_fn, label="potential"):
        self.m = m
        self._fn = potential_fn
        self.label = label

    def potential(self, pts):
        return np.asarray(self._fn(np.asarray(pts, dtype=complex)), dtype=float)

    def matrix(self, pts):
        return complex_hessian(self.potential, np.asarray(pts, dtype=complex))


def lichnerowicz_apply(kahler, eta_fn, z):
    """Derivative of the scalar curvature along the potential deformation
    phi -> phi - t eta, by Richardson-extrapolated central differences in
    t.  This is the defining route; `bergman.scalar_curvature_variation`
    realizes the same operator through its expanded terms."""
    z = np.asarray(z, dtype=complex)
    t = 1e-3

    def s_at(tv):
        return PerturbedKahler(kahler, eta_fn, tv).scalar_curvature(z)

    d1 = (s_at(t) - s_at(-t)) / (2.0 * t)
    d2 = (s_at(0.5 * t) - s_at(-0.5 * t)) / t
    return (4.0 * d2 - d1) / 3.0

"""Model spaces and their holomorphic section bases.

A model here is the projectivized dual of a split bundle E = O(a_1) + ... +
O(a_r) over a projective base, twisted by the k-th power of the hyperplane
bundle pulled back from the base.  Sections are spanned by monomials: a basis
element is a pair (summand alpha, base exponent beta) with |beta| <= a_alpha + k,
and its value at a chart point (z, xi) of the total space is

    v(z, xi) = lambda_alpha(xi) * z^beta,   lambda = (1, xi_1, ..., xi_{r-1}).

Everything downstream (Gram matrices, Bergman fields, moment maps) consumes
the tables produced here; evaluation and first derivatives are exact.

Quadrature rules follow the factor structure of the model: the base and the
fiber each get a joint radial rule for their own projective factor, and the
total space gets the tensor product of the two.
"""

import logging
import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .quadrature import chart_rule, product_rule

logger = logging.getLogger(__name__)

__all__ = [
    "ModelSpace",
    "SectionBasis",
    "ProjectivePoint",
    "LineBundleSumOverP1",
    "ProjectiveSpaceBase",
    "TrivialBundleOverPm",
    "build_section_basis",
    "riemann_roch_dimension",
    "base_rule",
    "fiber_rule",
    "total_rule",
]


@dataclass(frozen=True)
class ModelSpace:
    """Split model: rank-r sum of degree-degrees[alpha] line bundles over P^m,
    twisted by level k.  The chart of the total space is C^m x C^(r-1) with
    coordinates (z, xi)."""

    m: int
    degrees: tuple
    k: int
    label: str

    @property
    def r(self):
        return len(self.degrees)

    @property
    def n(self):
        """Complex dimension of the total space."""
        return self.m + self.r - 1

    @property
    def fiber_dim(self):
        return self.r - 1


def _validate(m, degrees, k):
    degrees = tuple(int(a) for a in degrees)
    if m < 0 or not degrees:
        raise ValueError("need a nonnegative base dimension and at least one summand")
    bad = [a for a in degrees if a + k < 0]
    if bad:
        raise ValueError(
            f"summand degrees {bad} with twist k={k} give an empty section space; "
            "need a + k >= 0 for every summand"
        )
    return degrees


def ProjectivePoint(r):
    """Fiber-only model: trivial rank-r sum over a point, so the total space
    is P^(r-1) itself and the section space is the standard C^r."""
    degrees = _validate(0, (0,) * r, 0)
    return ModelSpace(0, degrees, 0, f"point-rank{r}")


def ProjectiveSpaceBase(m, degrees, k):
    degrees = _validate(m, degrees, k)
    return ModelSpace(int(m), degrees, int(k), f"p{m}-sum{degrees}-k{k}")


def LineBundleSumOverP1(degrees, k):
    return ProjectiveSpaceBase(1, degrees, k)


def TrivialBundleOverPm(m, r, k):
    """Trivial rank-r sum over P^m: the total space is the product
    P^m x P^(r-1)."""
    return ProjectiveSpaceBase(m, (0,) * r, k)


def _monomial_exponents(m, max_degree):
    """All exponent tuples beta in N^m with |beta| <= max_degree, graded
    lexicographic, as an (N, m) integer array."""
    if m == 0:
        return np.zeros((1, 0), dtype=int)
    out = []
    for total in range(max_degree + 1):
        for beta in _iproduct(range(total + 1), repeat=m):
            if sum(beta) == total:
                out.append(beta)
    return np.array(out, dtype=int)


@dataclass(frozen=True)
class SectionBasis:
    """Monomial section table for a model space.

    summand[i] is the fiber component index of basis element i and
    exponents[i] its base exponent; see the module docstring for the value of
    the element at a chart point.
    """

    model: ModelSpace
    summand: np.ndarray
    exponents: np.ndarray

    @property
    def count(self):
        return self.summand.shape[0]

    def _split(self, pts):
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.model.n:
            raise ValueError(f"points must have shape (n, {self.model.n})")
        m = self.model.m
        return pts[:, :m], pts[:, m:]

    def _monomials(self, z):
        # z: (n, m) -> (n, N); empty exponent rows give the constant 1
        return np.prod(z[:, None, :] ** self.exponents[None, :, :], axis=2)

    def eval_components(self, z):
        """Component table s_i(z) in the split frame, shape (n, N, r)."""
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self.model.m:
            raise ValueError(f"base points must have shape (n, {self.model.m})")
        mono = self._monomials(z)
        comps = np.zeros((z.shape[0], self.count, self.model.r), dtype=complex)
        comps[:, np.arange(self.count), self.summand] = mono
        return comps

    def eval_embedding(self, pts):
        """Values v_i(z, xi) on the affine chart of the total space, (n, N)."""
        z, xi = self._split(pts)
        lam = np.concatenate([np.ones((z.shape[0], 1), dtype=complex), xi], axis=1)
        return lam[:, self.summand] * self._monomials(z)

    def eval_embedding_homogeneous(self, z, lam):
        """Values against an arbitrary fiber frame lam of shape (n, r);
        degree one in lam (frame rescaling rescales the whole row)."""
        z = np.asarray(z, dtype=complex)
        lam = np.asarray(lam, dtype=complex)
        return lam[:, self.summand] * self._monomials(z)

    def eval_embedding_jet(self, pts):
        """Exact holomorphic first derivatives, shape (n, N, m + r - 1) with
        the base directions first."""
        z, xi = self._split(pts)
        n = z.shape[0]
        m, r = self.model.m, self.model.r
        lam = np.concatenate([np.ones((n, 1), dtype=complex), xi], axis=1)
        coef = lam[:, self.summand]
        mono = self._monomials(z)
        jet = np.zeros((n, self.count, m + r - 1), dtype=complex)
        for a in range(m):
            e = self.exponents[:, a]
            lowered = self.exponents.copy()
            lowered[:, a] = np.maximum(e - 1, 0)
            dm = np.where(e[None, :] > 0,
                          e[None, :] * np.prod(z[:, None, :] ** lowered[None, :, :], axis=2),
                          0.0)
            jet[:, :, a] = coef * dm
        for c in range(r - 1):
            jet[:, :, m + c] = (self.summand == c + 1)[None, :] * mono
        return jet


def build_section_basis(model):
    summand = []
    exponents = []
    for alpha, a in enumerate(model.degrees):
        expo = _monomial_exponents(model.m, a + model.k)
        exponents.append(expo)
        summand.extend([alpha] * expo.shape[0])
    basis = SectionBasis(model, np.array(summand, dtype=int), np.concatenate(exponents, axis=0))
    logger.debug("section basis for %s: N=%d", model.label, basis.count)
    return basis


def riemann_roch_dimension(model):
    """Exact section count together with the leading polynomial data of
    k -> N(k): N(k) = n1 k^m + n2 k^(m-1) + O(k^(m-2)).

    n1 is r/m! exactly; n2 comes from exact interpolation of the count
    polynomial (degree m in k), so no asymptotic fitting is involved.
    """
    m, r = model.m, model.r

    def count(k):
        return sum(math.comb(a + k + m, m) for a in model.degrees)

    n1 = r / math.factorial(m)
    if m == 0:
        return {"N": r, "n1": float(r), "n2": 0.0, "degree": 0}
    # interpolate at m+1 twist levels where every summand count is a genuine
    # dimension (a + k >= 0)
    k0 = max(0, -min(model.degrees))
    kvals = np.arange(k0, k0 + m + 1, dtype=float)
    counts = np.array([count(int(k)) for k in kvals], dtype=float)
    coeffs = np.linalg.solve(np.vander(kvals, m + 1, increasing=True), counts)
    assert abs(coeffs[m] - n1) < 1e-9
    return {
        "N": count(model.k),
        "n1": n1,
        "n2": float(coeffs[m - 1]),
        "degree": m,
    }


# ---------------------------------------------------------------------------
# quadrature, following the factor structure
# ---------------------------------------------------------------------------

def base_rule(model, n_radial, n_angular=None):
    return chart_rule(model.m, n_radial=n_radial, n_angular=n_angular)


def fiber_rule(model, n_radial, n_angular=None):
    return chart_rule(model.fiber_dim, n_radial=n_radial, n_angular=n_angular)


def total_rule(model, n_radial, n_angular=None):
    """Rule on the chart of the total space: tensor product of the base and
    fiber rules (the decay is per-factor, not joint, so a single joint radial
    rule over all m + r - 1 coordinates would converge slowly)."""
    return product_rule(
        base_rule(model, n_radial, n_angular),
        fiber_rule(model, n_radial, n_angular),
    )

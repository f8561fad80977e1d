"""Model spaces and their holomorphic section bases.

A model here is the projectivized dual of a split bundle E = O(a_1) + ... +
O(a_r) over a projective base, twisted by the k-th power of the hyperplane
bundle pulled back from the base.  Sections are spanned by monomials: a basis
element is a pair (summand alpha, base exponent beta) with |beta| <= a_alpha + k,
and its value at a chart point (z, xi) of the total space is

    v(z, xi) = lambda_alpha(xi) * z^beta,   lambda = (1, xi_1, ..., xi_{r-1}).

Everything downstream (Gram matrices, Bergman fields, moment maps) consumes
the tables produced here.  A section is a monomial w^e in the chart
coordinates w = (z, xi) (`SectionBasis.chart_exponents`), so its Taylor
coefficients of every order are exact binomial shifts
C(e, J) w^(e - J); one kernel gathers them from one table of powers of the
points for every table: values, the 1-jet (values and first derivatives in
one table), Taylor coefficients and the split-frame components.

Quadrature rules follow the factor structure of the model: the base and the
fiber each get a joint radial rule for their own projective factor, and the
total space gets the tensor product of the two.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .kahler import graded_exponents
from .quadrature import chart_rule, product_rule

logger = logging.getLogger(__name__)

__all__ = [
    "ModelSpace",
    "SectionBasis",
    "ProjectivePoint",
    "LineBundleSumOverP1",
    "ProjectiveSpaceBase",
    "TrivialBundleOverPm",
    "affine_frame",
    "split_points",
    "build_section_basis",
    "riemann_roch_dimension",
    "automorphism_dimension",
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


def affine_frame(xi):
    """The fiber covector lambda = (1, xi_1, ..., xi_{r-1}) of chart fiber
    coordinates xi, shape (..., r-1) -> (..., r), for any leading axes."""
    xi = np.asarray(xi, dtype=complex)
    return np.concatenate(
        [np.ones(xi.shape[:-1] + (1,), dtype=complex), xi], axis=-1)


def split_points(model, pts):
    """Base coordinates z (n, m) and fiber coordinates xi (n, r-1) of chart
    points (z, xi) of the model's total space, validated as (n, model.n)."""
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != model.n:
        raise ValueError(f"total-space points must have shape (n, {model.n})")
    return pts[:, : model.m], pts[:, model.m:]


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

    @cached_property
    def chart_exponents(self):
        """Exponents (N, m + r - 1) of the sections as monomials w^e in the
        chart coordinates w = (z, xi): e = (beta, e_alpha) for
        lam_alpha z^beta, e_0 = 0.  They are the torus weights too."""
        fiber = np.eye(self.model.r, dtype=int)[self.summand, 1:]
        return np.concatenate([self.exponents, fiber], axis=1)

    def _shifts(self, coords, expo, orders):
        """Binomial shifts of the monomials w^e, e the rows of expo (N, c),
        at points coords (n, c) for the rows J of orders (J, c), as
        (n, J, N): entry (i, j, p) is the coefficient
        prod_a C(e_pa, J_ja) w_ia^(e_pa - J_ja) of h^J in (w_i + h)^(e_p),
        zero where some J_ja > e_pa.  Per coordinate, one gather takes the
        power of every entry from one `_power_table` of the points, and
        the orders above 0 scale it by its binomial; each entry is the
        product of its c factors, first to last."""
        n, c = coords.shape
        table = _power_table(coords, expo.max(axis=0, initial=0))
        top = table.shape[2] - 1
        # complex, so that scaling by it casts nothing
        binom = np.array([[math.comb(e, j) for e in range(top + 1)]
                          for j in range(int(orders.max(initial=0)) + 1)],
                         dtype=complex)
        out = np.empty((n, len(orders), len(expo)), dtype=complex)
        if c == 0:
            out.fill(1.0)
        for a in range(c):
            factor = np.empty_like(out) if a else out
            # an index below 0 (J_a > e_a) clips to w^0, and its binomial
            # is 0; "clip" lets take write into out without a buffer
            np.take(table[a], expo[:, a] - orders[:, a, None], axis=1,
                    out=factor, mode="clip")
            if orders[:, a].any():
                factor *= binom[orders[:, a, None], expo[:, a]]
            if a:
                out *= factor
        return out

    def eval_components(self, z):
        """Component table s_i(z) in the split frame, shape (n, N, r)."""
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self.model.m:
            raise ValueError(f"base points must have shape (n, {self.model.m})")
        comps = np.zeros((z.shape[0], self.count, self.model.r), dtype=complex)
        comps[:, np.arange(self.count), self.summand] = self._shifts(
            z, self.exponents, np.zeros((1, self.model.m), dtype=int))[:, 0]
        return comps

    def eval_embedding(self, pts):
        """Values v_i(z, xi) on the affine chart of the total space, (n, N)."""
        pts = np.concatenate(split_points(self.model, pts), axis=1)
        return self._shifts(pts, self.chart_exponents,
                            np.zeros((1, self.model.n), dtype=int))[:, 0]

    def eval_embedding_homogeneous(self, z, lam):
        """Values against an arbitrary fiber frame lam of shape (n, r);
        degree one in lam (frame rescaling rescales the whole row)."""
        mono = self._shifts(np.asarray(z, dtype=complex), self.exponents,
                            np.zeros((1, self.model.m), dtype=int))[:, 0]
        return mono * np.asarray(lam, dtype=complex)[:, self.summand]

    def eval_embedding_jet(self, pts):
        """Values and exact holomorphic first derivatives as one
        order-major table (1 + m + r - 1, n, N): row 0 the values, then
        one contiguous (n, N) row per direction, the base directions
        first; the binomial shifts of the zero and the unit orders, from
        one power table of the points."""
        pts = np.concatenate(split_points(self.model, pts), axis=1)
        orders = np.eye(self.model.n + 1, self.model.n, -1, dtype=int)
        return np.ascontiguousarray(np.moveaxis(self._shifts(
            pts, self.chart_exponents, orders), 1, 0))

    def eval_taylor(self, pts, orders):
        """Taylor coefficients of the sections at chart points, (n, J, N):
        entry (i, j, p) is the coefficient of h^orders[j] in v_p(pts_i + h),
        for the rows of `orders` (J, m + r - 1), the binomial shifts of
        `chart_exponents`."""
        pts = np.concatenate(split_points(self.model, pts), axis=1)
        return self._shifts(pts, self.chart_exponents,
                            np.asarray(orders, dtype=int))


def _power_table(coords, tops):
    """Powers w_a^j of the coordinates w (n, c) for j = 0..tops[a], as one
    (c, n, max(tops) + 1) table built by repeated products: entry j is
    entry j - 1 times w_a, the same multiplications an integer complex
    power makes, so each is within j roundings of the exact power.  A
    coordinate's entries past its own top are left unset: no exponent
    reads them (a fiber coordinate's top is 1)."""
    table = np.empty((coords.shape[1], coords.shape[0],
                      int(max(tops, default=0)) + 1), dtype=complex)
    table[..., 0] = 1.0
    for a, top in enumerate(tops):
        for j in range(1, top + 1):
            np.multiply(table[a, :, j - 1], coords[:, a], out=table[a, :, j])
    return table


def build_section_basis(model):
    summand = []
    exponents = []
    for alpha, a in enumerate(model.degrees):
        expo = graded_exponents(model.m, a + model.k)
        exponents.append(expo)
        summand.extend([alpha] * expo.shape[0])
    basis = SectionBasis(model, np.array(summand, dtype=int), np.concatenate(exponents, axis=0))
    logger.debug("section basis for %s: N=%d", model.label, basis.count)
    return basis


def riemann_roch_dimension(model):
    """Exact section count N, the leading coefficients of
    k -> N(k) = n1 k^m + n2 k^(m-1) + O(k^(m-2)), and the volume V of the
    level's polarization L, all in integer arithmetic with one rounding.

    N(k) sums C(k + a + m, m) = prod_{j=1..m} (k + a + j) / m! over the
    summands, so n1 = r / m! and n2 = (m sum(a) + r C(m+1, 2)) / m!.

    V is the degree of L over n!, n = m + r - 1 the dimension of the total
    space: the leading coefficient of p -> h^0(L^p), the sum over
    multisets gamma of p summands of C(sum_{i in gamma} (k + a_i) + m, m).
    Since every k + a_i >= 0 that count is a polynomial of degree at most
    n for every p >= 0, so V is its n-th difference at p = 0 over n!.  It
    is the reduced volume that the balancing layer integrates: k on
    P^1 x P^1 at level k, k + 1/2 on P(O + O(1)) over P^1.
    """
    m, r, n = model.m, model.r, model.n
    twists = [a + model.k for a in model.degrees]

    def power_count(p):
        return sum(math.comb(sum(twists[i] for i in gamma) + m, m)
                   for gamma in combinations_with_replacement(range(r), p))

    return {
        "N": power_count(1),
        "n1": r / math.factorial(m),
        "n2": ((m * sum(model.degrees) + r * math.comb(m + 1, 2))
               / math.factorial(m)),
        "degree": m,
        "volume": sum((-1) ** (n - j) * math.comb(n, j) * power_count(j)
                      for j in range(n + 1)) / math.factorial(n),
    }


def automorphism_dimension(model):
    """dim aut(P(E)) for the split E of the model over P^m:

        m(m+2) + sum over pairs (i, j) with a_j >= a_i of C(a_j - a_i + m, m)
        - 1,

    the base's sl(m+1), the endomorphisms of E (a map O(a_i) -> O(a_j) is
    a section of O(a_j - a_i)) less its scalars.  At a balanced level it is
    the kernel dimension of the normal-action operator: 3 for P^1 with
    O(k), 6 for P^1 x P^1 and F_1, 11 for P^2 x P^1 and P^1 x P^2, and
    r^2 - 1 over a point.
    """
    m, degrees = model.m, model.degrees
    return m * (m + 2) - 1 + sum(math.comb(b - a + m, m)
                                 for a in degrees for b in degrees if b >= a)


# ---------------------------------------------------------------------------
# quadrature, following the factor structure
# ---------------------------------------------------------------------------

def base_rule(model, n_radial, n_angular=None):
    return chart_rule(model.m, n_radial=n_radial, n_angular=n_angular)


def fiber_rule(model, n_radial, n_angular=None):
    return chart_rule(model.fiber_dim, n_radial=n_radial, n_angular=n_angular)


def total_rule(model, n_radial):
    """Rule on the chart of the total space: tensor product of the base and
    fiber rules (the decay is per-factor, not joint, so a single joint radial
    rule over all m + r - 1 coordinates would converge slowly)."""
    return product_rule(
        base_rule(model, n_radial),
        fiber_rule(model, n_radial),
    )

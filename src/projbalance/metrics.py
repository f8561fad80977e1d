"""Bundle metrics, their curvature, the induced hyperplane weight, Gram tools.

A bundle metric is an r x r positive Hermitian matrix field H(z) on the base
chart, with pairing <u, v>_h = v* H u.  Curvature follows the Chern
convention

    F_ab = H^{-1}(dbar_b H) H^{-1}(d_a H) - H^{-1}(d_a dbar_b H),

stored as the coefficient stack of the (1,1)-form iF in the package-wide
convention (see kahler module docstring), so the split metric
diag((1+|z|^2)^{-a}) contracts against the Fubini-Study form to the integer
slope a on the projective line.

Derivative tables are hand-coded for the built-in families and generic
central differences otherwise; the perturbed family propagates exact
derivatives through the sum rule.

`hat_weight` is the weight 1 / (lam H^{-1} lam*) that a bundle metric
induces on the relative hyperplane line.  The metric a Gram matrix induces
on a total space through its section basis, the pulled-back Fubini-Study
form, is computed in one place: `balancing.embedding_form_field`.

Gram tools: `l2_pairing` pairs a scalar node table with itself (the
direct-route Gram, an embedding state's full pairings), `bergman.l2_gram`
component tables through the level metric, and `GramMatrix` alone factors
a Gram: one eigendecomposition gives its guards, its whitener G^{-1/2},
its inverse, its condition number and the solver's traceless log, and
nothing stores a copy of them.  The whitener checks that it orthonormalizes
its Gram; `make_gram` passes a `GramMatrix` through, factorization and all.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalGuardError
from .kahler import complex_gradient, complex_hessian, lambda_contract
from .quadrature import integrate
from .sections import affine_frame

logger = logging.getLogger(__name__)

__all__ = [
    "GramMatrix",
    "make_gram",
    "whitening_transform",
    "l2_pairing",
    "MatrixField",
    "BundleMetricField",
    "ConstantBundleMetric",
    "SplitBundleMetric",
    "PerturbedBundleMetric",
    "curvature_matrix",
    "mean_curvature",
    "hermitian_einstein_residual",
    "hat_weight",
    "hat_weight_homogeneous",
]


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

# largest Gram condition number `GramMatrix.guard` accepts
_CONDITION_GUARD = 1e12


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian positive definite inner-product matrix on a section space,
    factored by one `np.linalg.eigh` on first use; every method reads it."""

    matrix: np.ndarray

    @property
    def n(self):
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self):
        w, v = np.linalg.eigh(self.matrix)
        w.flags.writeable = v.flags.writeable = False  # shared by callers
        return w, v

    def smallest_eigenvalue(self):
        return float(self._eigh[0][0])

    def condition(self):
        w = self._eigh[0]
        return float(w[-1] / w[0]) if w[0] > 0 else math.inf

    def guard(self):
        """Eigendecomposition (w, v) of a Gram that can be trusted at this
        node budget: positive spectrum, condition number at most
        `_CONDITION_GUARD`.  Otherwise `NumericalGuardError`; both tests
        fail closed on a NaN or infinite spectrum."""
        w, v = self._eigh
        if not w[0] > 0:
            raise NumericalGuardError(
                f"Gram not positive definite (smallest eigenvalue {w[0]:.3e})")
        cond = w[-1] / w[0]
        if not cond <= _CONDITION_GUARD:
            raise NumericalGuardError(
                f"Gram condition number {cond:.3e} exceeds "
                f"{_CONDITION_GUARD:.1e}; increase the quadrature budget or "
                "lower k")
        return w, v

    @cached_property
    def _whitener(self):
        w, v = self.guard()
        t = (v / np.sqrt(w)[None, :]) @ v.conj().T
        defect = np.max(np.abs(t.conj().T @ self.matrix @ t - np.eye(self.n)))
        if not defect <= 1e-9:  # fails closed on NaN
            raise NumericalGuardError(
                f"orthonormalizing transform defect {defect:.2e}; "
                "Gram matrix too ill-conditioned")
        t.flags.writeable = False  # shared by callers
        return t

    def whitener(self):
        """The Hermitian inverse root G^{-1/2}: T with T* G T = I and no
        arbitrary unitary freedom.  Formed once per Gram and read-only; a
        Gram that fails `guard`, or a T* G T off the identity by more than
        1e-9, raises on every call."""
        return self._whitener

    def inverse(self):
        w, v = self.guard()
        return (v / w[None, :]) @ v.conj().T


def make_gram(a):
    """The `GramMatrix` of a finite Hermitian matrix; a `GramMatrix` as
    it is."""
    if isinstance(a, GramMatrix):
        return a
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise NumericalGuardError(
            "Gram matrix has non-finite entries; increase the quadrature "
            "budget or lower k")
    scale = max(np.max(np.abs(a)), 1.0)
    defect = np.max(np.abs(a - a.conj().T))
    if defect > 1e-10 * scale:
        raise ValueError(f"Gram matrix not Hermitian (defect {defect:.2e})")
    return GramMatrix(0.5 * (a + a.conj().T))


def whitening_transform(gram):
    """`GramMatrix.whitener` of a Gram given as a matrix or a `GramMatrix`."""
    return make_gram(gram).whitener()


def l2_pairing(table, weights):
    """Weighted pairing sum_n weights_n conj(table_np) table_nq of the
    columns of a node table (n, N): one conjugate copy of the table,
    weighted in place, then one GEMM.  The package's only pairing of a
    scalar node table with itself."""
    a = np.conj(table)
    a *= weights[:, None]
    return a.T @ table


# ---------------------------------------------------------------------------
# matrix fields and bundle metrics
# ---------------------------------------------------------------------------

class MatrixField:
    """r x r matrix field on an m-dimensional base chart.

    Base-class derivatives are generic Richardson central differences of
    matrix(); subclasses with closed forms override d_matrix/dd_matrix.
    Index conventions: d_matrix (n, m, r, r) holds d_a K, dd_matrix
    (n, m, m, r, r) holds d_a dbar_b K.
    """

    def __init__(self, m, r, fn=None, label="field"):
        self.m = m
        self.r = r
        self._fn = fn
        self.label = label

    def matrix(self, z):
        if self._fn is None:
            raise NotImplementedError
        return np.asarray(self._fn(np.asarray(z, dtype=complex)), dtype=complex)

    def d_matrix(self, z):
        z = np.asarray(z, dtype=complex)
        if self.m == 0:
            return np.zeros((z.shape[0], 0, self.r, self.r), dtype=complex)
        return complex_gradient(self.matrix, z)

    def dd_matrix(self, z):
        z = np.asarray(z, dtype=complex)
        if self.m == 0:
            return np.zeros((z.shape[0], 0, 0, self.r, self.r), dtype=complex)
        return complex_hessian(self.matrix, z)


class BundleMetricField(MatrixField):
    """Positive Hermitian matrix field: a metric on a rank-r bundle."""

    def inverse(self, z):
        h = self.matrix(z)
        det = np.linalg.det(h)
        if np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)):
            raise ValueError(f"{self.label}: singular metric at a node")
        return np.linalg.inv(h)


class ConstantBundleMetric(BundleMetricField):
    def __init__(self, m, h, label="constant"):
        h = np.asarray(h, dtype=complex)
        super().__init__(m, h.shape[0], label=label)
        self.h = 0.5 * (h + h.conj().T)

    def matrix(self, z):
        n = np.asarray(z).shape[0]
        return np.broadcast_to(self.h, (n, self.r, self.r)).copy()

    def d_matrix(self, z):
        n = np.asarray(z).shape[0]
        return np.zeros((n, self.m, self.r, self.r), dtype=complex)

    def dd_matrix(self, z):
        n = np.asarray(z).shape[0]
        return np.zeros((n, self.m, self.m, self.r, self.r), dtype=complex)


class SplitBundleMetric(BundleMetricField):
    """diag((1+|z|^2)^{-a_alpha}): the standard homogeneous metric on a sum
    of degree-a_alpha line bundles over P^m.  All derivatives closed-form."""

    def __init__(self, m, degrees):
        degrees = tuple(int(a) for a in degrees)
        super().__init__(m, len(degrees), label=f"split{degrees}")
        self.degrees = degrees
        self._a = np.array(degrees, dtype=float)

    def _q(self, z):
        return 1.0 + np.sum(np.abs(z) ** 2, axis=1)

    def matrix(self, z):
        z = np.asarray(z, dtype=complex)
        q = self._q(z)
        diag = q[:, None] ** (-self._a[None, :])
        out = np.zeros((z.shape[0], self.r, self.r), dtype=complex)
        out[:, np.arange(self.r), np.arange(self.r)] = diag
        return out

    def d_matrix(self, z):
        # d_a (q^-p) = -p q^(-p-1) zbar_a
        z = np.asarray(z, dtype=complex)
        q = self._q(z)
        diag = (-self._a[None, None, :]
                * q[:, None, None] ** (-self._a[None, None, :] - 1.0)
                * np.conj(z)[:, :, None])
        out = np.zeros((z.shape[0], self.m, self.r, self.r), dtype=complex)
        idx = np.arange(self.r)
        out[:, :, idx, idx] = diag
        return out

    def dd_matrix(self, z):
        # d_a dbar_b (q^-p) = p(p+1) q^(-p-2) zbar_a z_b - p q^(-p-1) delta_ab
        z = np.asarray(z, dtype=complex)
        q = self._q(z)
        p = self._a[None, None, None, :]
        qq = q[:, None, None, None]
        zb_a = np.conj(z)[:, :, None, None]
        z_b = z[:, None, :, None]
        dia = np.eye(self.m)[None, :, :, None]
        diag = p * (p + 1.0) * qq ** (-p - 2.0) * zb_a * z_b - p * qq ** (-p - 1.0) * dia
        out = np.zeros((z.shape[0], self.m, self.m, self.r, self.r), dtype=complex)
        idx = np.arange(self.r)
        out[:, :, :, idx, idx] = diag
        return out


class PerturbedBundleMetric(BundleMetricField):
    """H_t = H_0 + t K for a Hermitian matrix field K; derivatives propagate
    exactly through the sum rule, so exact inputs stay exact."""

    def __init__(self, base, field, t):
        if base.r != field.r or base.m != field.m:
            raise ValueError("base metric and perturbation field shapes differ")
        super().__init__(base.m, base.r, label=f"{base.label}+{t:g}*{field.label}")
        self.base = base
        self.field = field
        self.t = float(t)

    def matrix(self, z):
        return self.base.matrix(z) + self.t * self.field.matrix(z)

    def d_matrix(self, z):
        return self.base.d_matrix(z) + self.t * self.field.d_matrix(z)

    def dd_matrix(self, z):
        return self.base.dd_matrix(z) + self.t * self.field.dd_matrix(z)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature_matrix(metric, z):
    """Coefficient stack (n, m, m, r, r) of the (1,1)-form iF in the
    package convention; entry [n, a, b] is the matrix attached to
    dz^a wedge dzbar^b."""
    z = np.asarray(z, dtype=complex)
    h = metric.matrix(z)
    hinv = np.linalg.inv(h)
    dh = metric.d_matrix(z)                              # (n, m, r, r)
    dbarh = np.conj(np.swapaxes(dh, -1, -2))             # (d_b H)^* = dbar_b H
    ddh = metric.dd_matrix(z)                            # (n, m, m, r, r)
    term1 = np.einsum("nip,nbpq,nqs,nasl->nabil", hinv, dbarh, hinv, dh)
    term2 = np.einsum("nip,nabpl->nabil", hinv, ddh)
    return term1 - term2


def mean_curvature(metric, kahler, z):
    """Contraction of iF against the Kahler form: (n, r, r), self-adjoint
    with respect to the metric."""
    z = np.asarray(z, dtype=complex)
    g = kahler.matrix(z)
    return lambda_contract(g, curvature_matrix(metric, z))


def hermitian_einstein_residual(metric, kahler, rule):
    """Worst-node operator norm of (mean curvature - slope * I), with the
    slope estimated from the data: the volume-average of tr(mean)/r.

    Zero exactly when the metric satisfies the constant-contraction equation
    for this Kahler form.
    """
    pts = rule.points
    mc = mean_curvature(metric, kahler, pts)
    if mc.shape[-1] == 0 or pts.shape[0] == 0:
        return 0.0
    dens = kahler.reduced_volume_density(pts)
    vol = integrate(rule, dens)
    trace = np.einsum("nii->n", mc).real
    slope = integrate(rule, trace * dens) / (metric.r * vol)
    h = metric.matrix(pts)
    # measure in the metric frame, where self-adjoint becomes Hermitian
    w, u = np.linalg.eigh(h)
    sq = (u * np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
    sqi = (u / np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
    sym = sq @ (mc - slope * np.eye(metric.r)[None]) @ sqi
    sym = 0.5 * (sym + np.conj(np.swapaxes(sym, 1, 2)))
    worst = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    logger.debug("constant-contraction residual for %s: slope %.6f, defect %.3e",
                 metric.label, slope, worst)
    return worst


# ---------------------------------------------------------------------------
# hat metric on the relative hyperplane line
# ---------------------------------------------------------------------------

def _base_runs(z):
    """Runs of equal consecutive rows of the base points z (n, m): the row
    where each run starts and the run lengths, found without a sort.  A
    total-space rule lists the fiber nodes over one base node in one
    block, so base-only data is evaluated once per block and broadcast
    with `np.repeat(x, sizes, axis=0)`; points without repeated neighbours
    (samples, a shuffle) are runs of length one."""
    z = np.asarray(z)
    starts = np.ones(z.shape[0], dtype=bool)
    starts[1:] = np.any(z[1:] != z[:-1], axis=1)
    first = np.flatnonzero(starts)
    return first, np.diff(first, append=z.shape[0])


def _dual_pairing(hinv, lam):
    """u = H^{-1} lam* and the dual pairing q = lam H^{-1} lam* of the
    covectors lam (..., r); hinv (..., r, r) broadcasts against lam's
    leading axes."""
    u = np.einsum("...ij,...j->...i", hinv, np.conj(lam))
    q = np.einsum("...i,...i->...", lam, u).real
    return u, q


def hat_weight_homogeneous(metric, z, lam):
    """Weight of the induced metric on the relative hyperplane line at the
    covector lam over base point z: 1 / (lam H^{-1} lam*).

    H^{-1} depends on the base point alone: it is evaluated once per run
    of equal consecutive rows of z (`_base_runs`), so once per base node
    on a total-space rule, and only the pairing runs at every row.
    Section values against the frame lam get squared norm |v|^2 * weight.
    """
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    if np.any(np.max(np.abs(lam), axis=1) == 0.0):
        raise ValueError("zero covector has no induced weight")
    first, sizes = _base_runs(z)
    hinv = np.repeat(metric.inverse(z[first]), sizes, axis=0)
    _, q = _dual_pairing(hinv, lam)
    return 1.0 / q


def hat_weight(metric, pts, model):
    """Chart version: pts are (z, xi) points of the projectivized dual and
    the covector is the affine frame (1, xi).  As in
    `hat_weight_homogeneous`, the metric is evaluated once per run of equal
    consecutive base rows, so once per base node on a total-space rule."""
    pts = np.asarray(pts, dtype=complex)
    return hat_weight_homogeneous(metric, pts[:, : model.m],
                                  affine_frame(pts[:, model.m:]))

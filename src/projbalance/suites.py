"""Verification suites behind the command-line runs.

Every function here computes rows of a pass/fail matrix or a plain-data
summary for one level of a sweep; the command layer only schedules these
and writes the results out.  Rows share one shape:

    {"name": str, "k": int | None, "value": float | None,
     "reference": float | None, "error": float | None,
     "tolerance": float | None, "passed": bool | None, "detail": str}

`passed` is None for informational rows (tables the run reports without
judging); those never affect the exit code.  Per-level functions
(`density_route_job`, `balance_job`, `expansion_job`, `spectrum_job`) are
module-level and take the configuration and the level, so a process pool
can run them in parallel; everything they return is picklable.

Neither density route's table depends on the level: the trace route's
push-forward table, and the direct route's adapted total rule, volume
coefficients and hat weight (`bg.direct_table`).  A run builds both once,
before any level, with `sweep_tables` and passes them to every level job
as `tables`, into worker processes too; `expansion` adds the
`variance_table`, the direct table of its variance's raised rule.  The
direct route keeps its density at its rule nodes for the mass and
`rho_max_dev`.

Every fiber integral in the metric-adapted frame runs on
`bergman.adapted_fiber_rule`, whose angles and radial nodes are sized by
the degree of its integrands; `[quadrature] n_radial` sizes the base rules,
the plain rules and the torus rule's radial grid only.  `sweep_tables`
checks both degrees once per sweep, and `verify`, `expansion` and `balance`
report the estimate as the informational `adapted-fiber-degree` row.

Both balancing suites (`balance_job`, `spectrum_job`) start at the
identity Gram, so their states stay torus-invariant, and balance torus
states, those built on `balancing.torus_orbit_rule`: one node per torus
orbit, on `n_radial` radial nodes per factor, with diagonal pairings.
Such a state holds its Gram as N weights (`metrics.DiagonalGram`), and a
matrix that enters one, the direct route's Gram at which `balance`
measures the reference moment, passes `balancing.torus_invariance_guard`
before its diagonal is kept.  Each level records the node count of the
rule it balanced on as `nodes` and the solved Gram's condition number,
max c / min c of its weights, as `gram_condition`; `balance` adds the
reference Gram's as `ref_gram_condition`.
`moment-spectrum` builds its normal-action operator at the solved state on
the same rule, one Hermitian block per torus charge in the matrix-unit
basis (`balancing.sigma_z_operator`); its `samples` count the valid orbit
nodes, `sectors` the blocks and `largest_sector` the size of the largest,
the level's largest `eigvalsh`, N or more (the charge-0 block).  The
self-check (`balancing.torus_rule_check`, on three orbits) is the
informational `torus-rule-degree` row, once per sweep at k_min, since the
orbit rule's exactness does not depend on k: on the moment in `balance`,
on `balancing.operator_entries` in `moment-spectrum`, so no run builds the
su(N) basis, an N^2 x N^2 array or a second operator at a level.

The seed drives every random input through a stdlib `random.Random`, one
per draw site, seeded with `seed` for the round trip's Hermitian inputs
and the joint-linearization directions, `cfg.seed + 1009 k` for the
density cross-route's sample points, `cfg.seed + 313 k` for `balance`'s
comparability points and `cfg.seed + 271828` for the expansion's
evaluation points.  Each array is one `randbytes` call read as 53-bit
doubles (`_draws`), normals by Box-Muller, so a run loads neither
`numpy.random` nor the OpenSSL bindings it brings in.
"""

import functools
import logging
import math
import random
from collections import namedtuple

import numpy as np

from . import balancing as bal
from . import bergman as bg
from .config import build_kahler, build_metric, build_model
from .kahler import FubiniStudy, PerturbedKahler
from .metrics import (
    ConstantBundleMetric,
    MatrixField,
    PerturbedBundleMetric,
    SplitBundleMetric,
    mean_curvature,
)
from .quadrature import certify_moments, chart_rule, integrate
from .sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    TrivialBundleOverPm,
    automorphism_dimension,
    base_rule,
    riemann_roch_dimension,
)

logger = logging.getLogger(__name__)

__all__ = [
    "volume_constant_rows",
    "quadrature_rows",
    "round_trip_rows",
    "fiber_average_rows",
    "SweepTables",
    "sweep_tables",
    "variance_table",
    "density_route_job",
    "joint_linearization_rows",
    "balance_job",
    "balance_rows",
    "almost_balanced_row",
    "expansion_eval_points",
    "expansion_job",
    "expansion_assemble",
    "degenerate_expansion_job",
    "degenerate_expansion_rows",
    "spectrum_job",
    "spectrum_assemble",
]


def _row(name, *, k=None, value=None, reference=None, error=None,
         tolerance=None, passed=None, detail=""):
    return {"name": name, "k": k, "value": value, "reference": reference,
            "error": error, "tolerance": tolerance, "passed": passed,
            "detail": detail}


def _check(name, value, reference, tolerance, *, k=None, detail=""):
    error = abs(value - reference)
    return _row(name, k=k, value=float(value), reference=float(reference),
                error=float(error), tolerance=float(tolerance),
                passed=bool(error <= tolerance), detail=detail)


def _draws(rng, shape, lo=0.0, hi=1.0, normal=False):
    """An array of seeded draws from one `rng.randbytes` call, `rng` a
    `random.Random`: doubles uniform on [lo, hi), each the top 53 bits of
    a little-endian 64-bit word, or with `normal` standard normals by
    Box-Muller, which pairs the first half of the uniforms (radii,
    sqrt(-2 log1p(-u)), finite at u = 0) with the second (angles)."""
    count = math.prod(shape)
    half = (count + 1) // 2
    words = rng.randbytes(8 * (2 * half if normal else count))
    u = (np.frombuffer(words, dtype="<u8") >> 11) * 2.0 ** -53
    if normal:
        radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
        angle = 2.0 * math.pi * u[half:]
        return np.concatenate((radius * np.cos(angle),
                               radius * np.sin(angle)))[:count].reshape(shape)
    return (lo + (hi - lo) * u).reshape(shape)


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------

def volume_constant_rows():
    """Fiber volume constants against their closed form, ranks 1 to 5."""
    return [_check("volume-constant", bg.c_r_constant(r),
                   (2.0 * math.pi) ** (r - 1) / math.factorial(r), 1e-8,
                   detail=f"rank {r}") for r in range(1, 6)]


def quadrature_rows(model, n_radial):
    """Moment certification of the chart rules the runs on `model` rely on.

    Dimension 1 must certify exactly: every run factor rule is built from
    it.  In higher dimension the radial part is a joint simplex map whose
    design class is joint rational decay; the certifier's tensor-product
    moments converge only algebraically there, so that error is reported
    without a verdict, and only when the model's base or plain fiber has
    dimension 2.  Fitness of the joint rules for actual run integrands is
    what the cross-route and mass rows measure."""
    res1 = certify_moments(chart_rule(1, n_radial=n_radial))
    rows = [_row(
        "quadrature-moments", value=float(res1["max_error"]),
        reference=0.0, error=float(res1["max_error"]),
        tolerance=res1["tolerance"],
        passed=bool(res1["passed"]),
        detail=f"chart dimension 1, {res1['checked']} moments")]
    if 2 in (model.m, model.fiber_dim):
        res2 = certify_moments(chart_rule(2, n_radial=n_radial))
        rows.append(_row(
            "quadrature-moments", value=float(res2["max_error"]),
            detail="chart dimension 2, tensor-type moments off the joint "
                   "grid's design class; reported, not judged"))
    return rows


def round_trip_rows(seed):
    """Fiber average of the induced pairing against the bundle metric it
    came from: exact for constant inputs, so this isolates quadrature and
    frame handling."""
    rng = random.Random(seed)
    rows = []
    for r in (2, 3):
        model = ProjectivePoint(r)
        rule = bg.adapted_fiber_rule(model)
        z = np.zeros((1, 0), dtype=complex)
        worst = 0.0
        for _ in range(10):
            a = 0.5 * (_draws(rng, (r, r), normal=True)
                       + 1j * _draws(rng, (r, r), normal=True))
            h = a @ a.conj().T + np.eye(r)
            metric = ConstantBundleMetric(0, h)
            out = bg.fiber_push_forward(metric, FubiniStudy(0), model, z,
                                        rule=rule)
            worst = max(worst,
                        float(np.max(np.abs(out.g_tilde[0] - h))),
                        float(np.max(np.abs(out.psi[0] - np.eye(r)))))
        rows.append(_check("metric-round-trip", worst, 0.0, 1e-9,
                           detail=f"rank {r}, 10 random Hermitian inputs"))
    return rows


def fiber_average_rows():
    """Weighted fiber averages: the top weight must give the identity, the
    subleading weight the curvature combination (tr(M) I + M)/(r+1)."""
    rows = []

    model = LineBundleSumOverP1((0, 1), 4)
    metric = SplitBundleMetric(1, (0, 1))
    z = np.array([[0.0], [0.4 + 0.3j], [-1.1j]], dtype=complex)
    out = bg.fiber_push_forward(metric, FubiniStudy(1), model, z,
                                weight=model.m,
                                rule=bg.adapted_fiber_rule(model))
    err = float(np.max(np.abs(out.psi - np.eye(2))))
    rows.append(_check("fiber-average-top", err, 0.0, 1e-9,
                       detail="twists (0, 1), top weight vs identity"))

    for degrees in ((2, 1), (0, 1)):
        model = LineBundleSumOverP1(degrees, 3)
        metric = SplitBundleMetric(1, degrees)
        z = np.array([[0.3 + 0.1j], [-0.8j], [1.4]], dtype=complex)
        out = bg.fiber_push_forward(metric, FubiniStudy(1), model, z,
                                    weight=model.m - 1,
                                    rule=bg.adapted_fiber_rule(model))
        mc = mean_curvature(metric, FubiniStudy(1), z)
        tr = np.einsum("naa->n", mc)[:, None, None]
        want = (tr * np.eye(2) + mc) / (model.r + 1.0)
        err = float(np.max(np.abs(out.psi - want)))
        rows.append(_check(
            "fiber-average-subleading", err, 0.0, 1e-7,
            detail=f"twists {degrees}, subleading weight vs curvature"))
    return rows


# `variance` is `variance_table`'s, which only `expansion` builds
SweepTables = namedtuple("SweepTables", "trace direct variance",
                         defaults=(None,))


def sweep_tables(cfg):
    """Both density routes' k-independent data for a sweep, and the one
    self-check of the sweep's adapted fiber rule.

    Returns the `SweepTables`, the push-forward table on the base rule
    nodes and `bg.direct_table` on the adapted total rule, which share no
    array; and an informational `adapted-fiber-degree` row holding
    `bg.adapted_fiber_check`'s estimate: the push-forward table's relative
    move under two more fiber angles and radial nodes.  A move beyond the
    check's tolerance raises `NumericalGuardError` before any level runs.
    On a point base no level reads the push-forward table."""
    model = build_model(cfg)
    metric = build_metric(cfg)
    kahler = build_kahler(cfg)
    table = bg.push_forward_table(
        metric, kahler, model,
        base_rule(model, n_radial=cfg.n_radial).points,
        rule=bg.adapted_fiber_rule(model))
    move = bg.adapted_fiber_check(metric, kahler, model, table)
    degree = bg.adapted_fiber_degree(model)
    row = _row("adapted-fiber-degree", value=move,
               detail=f"relative move of the push-forward table from "
                      f"{degree + 1} to {degree + 3} angles per fiber "
                      f"coordinate and under two more radial nodes, "
                      f"integrand degree {degree} per angle and "
                      f"{bg.adapted_fiber_radial_degree(model)} in t; "
                      f"reported, not judged")
    direct = bg.direct_table(
        metric, kahler, model,
        bg.adapted_total_rule(metric, model, n_radial=cfg.n_radial))
    return SweepTables(trace=table, direct=direct), row


def variance_table(cfg):
    """`bg.direct_table` on the adapted total rule raised by one degree,
    the rule of `expansion_job`'s density variance, which is quadratic in
    the density: built once per sweep, since no k enters it."""
    metric = build_metric(cfg)
    model = build_model(cfg)
    return bg.direct_table(
        metric, build_kahler(cfg), model,
        bg.adapted_total_rule(metric, model, cfg.n_radial, raise_degree=1))


def _density_routes(cfg, k, tables):
    """Both density routes at one level, each on its own table: the
    direct route, and the level endomorphism that the trace route
    contracts."""
    model = build_model(cfg, k)
    level = bg.bergman_endomorphism(
        build_metric(cfg), build_kahler(cfg), model,
        rule=base_rule(model, n_radial=cfg.n_radial), table=tables.trace)
    return bg.rho_direct(model, tables.direct), level


def _mass_row(k, mass, count):
    """`density-mass` row: the integral of the density against the
    section count it must equal."""
    return _check("density-mass", mass, float(count), 1e-8, k=k,
                  detail="integral of the density vs section count")


# relative tolerance of the cross-route density check
_RHO_TOL = 1e-5


def density_route_job(cfg, k, tables):
    """Cross-check of the two density routes at one level: the total-chart
    squared-norm sum against the trace of the base endomorphism, at random
    sample points, plus the exact-mass bookkeeping row.  `tables` is
    `sweep_tables(cfg)`."""
    model = build_model(cfg, k)
    if model.m == 0:
        logger.info("verify k=%d: point base, no density routes to cross", k)
        return [_row("density-route", k=k,
                     detail="point base: both routes coincide by "
                            "construction, nothing to cross")]
    direct, level = _density_routes(cfg, k, tables)
    rng = random.Random(cfg.seed + 1009 * k)
    shape = (cfg.n_points, model.n)
    pts = 0.9 * (_draws(rng, shape, normal=True)
                 + 1j * _draws(rng, shape, normal=True))
    da = direct.density(pts)
    db = bg.rho_via_trace(level, pts)
    rel = float(np.max(np.abs(da - db) / np.abs(db)))
    n_sections = riemann_roch_dimension(model)["N"]
    mass = direct.total_mass()
    logger.info("verify k=%d: density routes rel err %.3e over %d points, "
                "mass defect %.3e", k, rel, cfg.n_points,
                abs(mass - n_sections))
    return [
        _check("density-route", rel, 0.0, _RHO_TOL, k=k,
               detail=f"{cfg.n_points} sample points"),
        _mass_row(k, mass, n_sections),
    ]


def _eta_quadratic(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (z[:, 0] ** 2).real / q ** 2


def _zeta_quadratic(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (z[:, 0] ** 2).imag / q ** 2


def _eta_killing(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return z[:, 0].real / q


def _profile_axis(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (1.0 - np.abs(z[:, 0]) ** 2) / q


def joint_linearization_rows(seed):
    """Joint first-order response against a Richardson difference quotient
    of the first-correction formula, on random direction pairs.

    The directions keep the preconditions: mean-zero potentials and
    mean-zero trace for the endomorphism direction."""
    metric = ConstantBundleMetric(1, np.eye(2))
    model = TrivialBundleOverPm(1, 2, 3)
    rule = base_rule(model, n_radial=12)
    kahler = FubiniStudy(1)
    rng = random.Random(seed)
    z = np.array([[0.2 + 0.1j], [0.6 - 0.5j], [1.1]], dtype=complex)
    base = bg.a1_formula(metric, kahler, z)
    rows = []
    for trial in range(5):
        aa = 0.5 * (_draws(rng, (2, 2), normal=True)
                    + 1j * _draws(rng, (2, 2), normal=True))
        a = aa @ aa.conj().T - 1.4 * np.eye(2)
        bb = 0.5 * (_draws(rng, (2, 2), normal=True)
                    + 1j * _draws(rng, (2, 2), normal=True))
        b = bb @ bb.conj().T - 1.4 * np.eye(2)

        def phi_fn(q, a=a, b=b):
            return (a[None, :, :] * _eta_killing(q)[:, None, None]
                    + b[None, :, :] * _profile_axis(q)[:, None, None])

        c1, c2 = _draws(rng, (2,), -1.0, 1.0)

        def eta(q, c1=c1, c2=c2):
            return c1 * _eta_quadratic(q) + c2 * _zeta_quadratic(q)

        phi = MatrixField(1, 2, fn=phi_fn, label="phi")
        got = bg.a11_apply(metric, kahler, model, phi, eta, z, rule=rule)

        def a1_at(t):
            ht = PerturbedBundleMetric(metric, phi, t)
            wt = PerturbedKahler(kahler, eta, t)
            return bg.a1_formula(ht, wt, z)

        t = 1e-3
        d1 = (a1_at(t) - base) / t
        d2 = (a1_at(t / 2) - base) / (t / 2)
        fd = 2.0 * d2 - d1
        scale = float(np.max(np.abs(fd)))
        rel = float(np.max(np.abs(got - fd)) / scale)
        rows.append(_check("joint-linearization", rel, 0.0, 1e-3,
                           detail=f"random direction pair {trial}"))
    return rows


# ---------------------------------------------------------------------------
# balance suite
# ---------------------------------------------------------------------------

# what `bal.almost_balanced_check` reads of a moment
_MomentSummary = namedtuple("_MomentSummary", "norm_op d")

# Newton step budget of every balance and spectrum level
_MAX_ITER = 400

# two-sided C^4 bound of the balanced embedding form against the initial one
_R_BOUND = 1e7

# claimed decay order of the reference-Gram moments, and the tolerance on
# their pairing constant d against the exact V/N
_ORDER_Q = 0
_D_TOL = 1e-8


@functools.lru_cache(maxsize=1)
def _orbit_rule(cfg):
    """The sweep's `bal.torus_orbit_rule`, read-only and built once per
    process: it does not depend on k."""
    rule = bal.torus_orbit_rule(build_model(cfg), cfg.n_radial)
    rule.points.flags.writeable = rule.weights.flags.writeable = False
    return rule


def _balanced_level(cfg, k):
    """Level k balanced from the identity Gram on `_orbit_rule(cfg)`: the
    initial torus state, the `bal.balance_iterate` report, and the `nodes`
    of the rule with the solved `gram_condition`."""
    state = bal.embedding_state(build_model(cfg, k), rule=_orbit_rule(cfg))
    report = bal.balance_iterate(state, tol=cfg.balance_tol,
                                 max_iter=_MAX_ITER)
    return state, report, {
        "nodes": int(state.rule.points.shape[0]),
        "gram_condition": float(report.state.gram.condition())}


def _torus_row(state, name, quantity):
    """Informational `torus-rule-degree` row: `bal.torus_rule_check`'s
    move of `quantity` at a state on a torus rule; a move beyond the
    check's tolerance raises `NumericalGuardError`."""
    move = bal.torus_rule_check(state, quantity)
    return _row("torus-rule-degree", k=state.k, value=move,
                detail=f"largest move of the {name}, relative to the "
                       f"volume, {bal.torus_check_angles(state)}, D = "
                       f"{bal.torus_degree(state.model)}; reported, not "
                       f"judged")


def balance_job(cfg, k, tables):
    """Balance one level from the identity Gram on `bal.torus_orbit_rule`
    and measure the result: trajectory, flat-density statistics, exact
    bookkeeping (mass equals the section count, trace of the moment
    vanishes), two-sided comparability of the final embedding form against
    the initial one, and the moment of the reference-induced Gram.

    The reference Gram is the L2 pairing of the sections under the model
    geometry itself; its moments form the family whose decay order the
    cross-level check judges: the direct route's, on `sweep_tables(cfg)`.
    The iteration deliberately starts at the identity instead, so the
    trajectories demonstrate actual convergence."""
    state, report, fields = _balanced_level(cfg, k)
    model = state.model
    initial = bal.moment_map(state)
    stats = bal.balanced_density_stats(report.state)
    # the orbit rule's exactness does not depend on k: one check per sweep
    torus_row = None
    if k == cfg.k_min:
        torus_row = _torus_row(report.state, "moment matrix",
                               lambda s: bal.moment_map(s).matrix)

    ref_state = state.with_gram(bg.direct_gram(model, tables.direct))
    reference = bal.moment_map(ref_state)

    # uniform on the unit polydisc |z_i| <= 1: a bounded domain, so the
    # verdict does not hinge on how far out a seed's tail points land
    rng = random.Random(cfg.seed + 313 * k)
    radius = np.sqrt(_draws(rng, (16, model.n)))
    angle = _draws(rng, (16, model.n), 0.0, 2.0 * math.pi)
    pts = radius * np.exp(1j * angle)
    comparable = bal.r_bounded_check(report.state, state, pts,
                                     r_bound=_R_BOUND)
    logger.info("balance k=%d: %d iterations (fallback_steps=%d), "
                "converged=%s, final norm %.3e",
                k, report.iterations, report.fallback_steps,
                report.converged, report.trajectory[-1][1])
    return {
        "k": int(k),
        "count": int(state.count),
        **fields,
        "converged": bool(report.converged),
        "diverged": bool(report.diverged),
        "iterations": int(report.iterations),
        "fallback_steps": int(report.fallback_steps),
        "trajectory": [[int(i), float(a), float(b)]
                       for i, a, b in report.trajectory],
        "final_norm_op": float(report.moment.norm_op),
        "initial_norm_op": float(initial.norm_op),
        "d_value": float(report.moment.d),
        "volume": float(report.moment.volume),
        "ref_norm_op": float(reference.norm_op),
        "ref_d": float(reference.d),
        "ref_volume": float(reference.volume),
        "ref_gram_condition": float(ref_state.gram.condition()),
        "trace_abs": float(abs(np.trace(report.moment.matrix))),
        "rho_mass": float(stats["mass"]),
        "rho_variance": float(stats["variance"]),
        "rho_max_dev": float(stats["max_dev"]),
        "comparable": bool(comparable.passes),
        "comparable_c_a": float(comparable.c_a_norm),
        "comparable_min_ratio": float(comparable.min_ratio),
        "wall_time": float(report.wall_time),
        "torus_row": torus_row,
    }


def balance_rows(cfg, results):
    """Check rows for a balance sweep: per-level bookkeeping plus the
    comparability verdicts.  Convergence itself is a reported result, not
    a check."""
    rows = []
    for res in results:
        k = res["k"]
        rows.append(_check("moment-trace", res["trace_abs"], 0.0, 1e-10,
                           k=k, detail="trace of the final moment matrix"))
        rows.append(_mass_row(k, res["rho_mass"], res["count"]))
        rows.append(_row(
            "embedding-comparable", k=k, value=res["comparable_c_a"],
            reference=_R_BOUND, error=res["comparable_c_a"],
            tolerance=_R_BOUND, passed=bool(res["comparable"]),
            detail=f"two-sided bound {_R_BOUND} against the initial "
                   "embedding form"))
        if res["converged"]:
            rows.append(_check(
                "density-flat", res["rho_max_dev"], 0.0,
                100.0 * cfg.balance_tol, k=k,
                detail="max deviation of the balanced density from its mean"))
        if res["torus_row"] is not None:
            rows.append(res["torus_row"])
    return rows


def almost_balanced_row(cfg, results):
    """Decay-order verdict over the reference-Gram moments of the sweep at
    the claimed order `_ORDER_Q`.  Each level's pairing constant d is
    judged against the exact V/N, V the volume of the polarization from
    `riemann_roch_dimension`, so a reference state whose volume drifts
    from it fails the row."""
    entries = [(res["k"], _MomentSummary(norm_op=res["ref_norm_op"],
                                         d=res["ref_d"]))
               for res in results]
    if len(entries) < 3:
        return _row("almost-balanced-order",
                    detail=f"needs at least three levels, got {len(entries)}")
    expected_d = [
        riemann_roch_dimension(build_model(cfg, res["k"]))["volume"]
        / res["count"] for res in results]
    verdict = bal.almost_balanced_check(entries, q=_ORDER_Q,
                                        expected_d=expected_d, d_tol=_D_TOL)
    detail = (f"fitted decay order of the reference-Gram moments, claimed "
              f"q={_ORDER_Q}")
    if math.isinf(verdict.fitted_order):
        detail = ("reference exactly balanced (every ||mu_ref|| < 1e-12): "
                  "order not tested, d judged")
    if not verdict.d_defect <= _D_TOL:
        res, want = max(zip(results, expected_d),
                        key=lambda pair: abs(pair[0]["ref_d"] - pair[1]))
        detail += (f"; d = {res['ref_d']:.10g} at k={res['k']} against "
                   f"V/N = {want:.10g}: raise [quadrature] n_radial")
    return _row(
        "almost-balanced-order", value=float(verdict.fitted_order),
        reference=float(verdict.order_target), error=float(verdict.d_defect),
        tolerance=_D_TOL, passed=bool(verdict.passes), detail=detail)


# ---------------------------------------------------------------------------
# expansion suite
# ---------------------------------------------------------------------------

# relative tolerance of the fitted first correction against the level average
_A1_REL_TOL = 0.02


def expansion_eval_points(cfg):
    """Deterministic base sample points shared by every level of an
    expansion sweep."""
    rng = random.Random(cfg.seed + 271828)
    model = build_model(cfg)
    pts = 0.8 * (_draws(rng, (6, model.m), normal=True)
                 + 1j * _draws(rng, (6, model.m), normal=True))
    return pts


def expansion_job(cfg, k, tables):
    """One level of an expansion sweep: endomorphism values at the shared
    sample points plus density-constancy statistics.  `tables` is
    `sweep_tables(cfg)` with its `variance_table(cfg)`, on whose rule the
    variance, quadratic in the density, is integrated."""
    direct, level = _density_routes(cfg, k, tables)
    vals = level.endomorphism(expansion_eval_points(cfg))
    vol = direct.volume()
    mass = direct.total_mass()
    mean = mass / vol
    dens, measure = direct.on_table(tables.variance)
    variance = float(integrate(tables.variance.rule,
                               (dens - mean) ** 2 * measure) / vol)
    logger.info("expansion k=%d: mass %.12g, density variance %.3e",
                k, mass, variance)
    return {
        "k": int(k),
        "vals": vals,
        "sections": int(riemann_roch_dimension(direct.model)["N"]),
        "mass": mass,
        "volume": vol,
        "rho_mean": mean,
        "rho_variance": variance,
        "rho_max_dev": float(np.max(np.abs(direct.node_density - mean))),
        "nodes": int(direct.table.rule.points.shape[0]),
    }


def expansion_assemble(cfg, results):
    """Fit the level sweep and compare the first correction three ways:
    fitted, closed-form candidate, and level-average candidate.

    The fitted-vs-level-average comparison is the hard check; the closed
    form enters as a reported discrepancy."""
    pts = expansion_eval_points(cfg)
    metric = build_metric(cfg)
    kahler = build_kahler(cfg)
    model = build_model(cfg)
    orders = min(3, len(results))
    fit = bg.expansion_fit([res["k"] for res in results],
                           [res["vals"] for res in results], model.m,
                           orders=orders)
    fitted = fit.coefficients[0]
    alternative = bg.a1_alternative(
        metric, kahler, model, pts,
        rule=bg.adapted_fiber_rule(model))
    closed = bg.a1_formula(metric, kahler, pts)
    scale = float(np.max(np.abs(alternative)))
    rel_fit = float(np.max(np.abs(fitted - alternative)) / scale)
    rel_closed = float(np.max(np.abs(closed - alternative)) / scale)
    rows = [
        _check("expansion-a1-vs-level-average", rel_fit, 0.0, _A1_REL_TOL,
               detail=f"fitted first correction, {orders - 1} fitted orders "
                      f"over levels {cfg.k_min}..{cfg.k_max}"),
        _row("expansion-a1-closed-vs-level-average", value=rel_closed,
             detail="relative discrepancy between the two first-correction "
                    "candidates; reported, not judged"),
    ]
    for res in results:
        rows.append(_mass_row(res["k"], res["mass"], res["sections"]))
        rows.append(_row("density-constancy", k=res["k"],
                         value=res["rho_max_dev"],
                         detail=f"max deviation of the density from its "
                                f"mean over the {res['nodes']} nodes of the "
                                f"adapted total rule; reported, not judged"))
    table = [[*idx] + [float(part) for field in (fitted, closed, alternative)
                       for part in (field[idx].real, field[idx].imag)]
             for idx in np.ndindex(fitted.shape)]
    return rows, table


def degenerate_expansion_job(cfg, k):
    """Point-base shortcut: the full symmetric system is exactly balanced,
    so the density is constant and there is no expansion to fit."""
    model = build_model(cfg, k)
    state = bal.embedding_state(model, n_radial=cfg.n_radial)
    stats = bal.balanced_density_stats(state)
    logger.info("expansion k=%d: point base, density max dev %.3e",
                k, stats["max_dev"])
    return {
        "k": int(k),
        "sections": int(state.count),
        "mass": float(stats["mass"]),
        "volume": float(stats["volume"]),
        "rho_mean": float(stats["mean"]),
        "rho_variance": float(stats["variance"]),
        "rho_max_dev": float(stats["max_dev"]),
    }


def degenerate_expansion_rows(results):
    rows = []
    for res in results:
        rows.append(_mass_row(res["k"], res["mass"], res["sections"]))
        rows.append(_check(
            "expansion-degenerate-flat", res["rho_max_dev"], 0.0, 1e-8,
            k=res["k"],
            detail="point base: density of the full symmetric system is "
                   "exactly constant"))
    return rows


# ---------------------------------------------------------------------------
# moment-spectrum suite
# ---------------------------------------------------------------------------

def spectrum_job(cfg, k):
    """Balance one level by Newton steps on the sweep's orbit rule
    and estimate the smallest positive eigenvalue of the normal-action
    operator at the solved state, on the same rule."""
    _, report, fields = _balanced_level(cfg, k)
    # the orbit rule's exactness does not depend on k, so one check at the
    # cheapest level, k_min, covers the sweep; it forms blocks without
    # `sigma_z_operator`, so the level's one operator call is its own
    torus_row = None
    if k == cfg.k_min:
        torus_row = _torus_row(report.state, "normal-action operator",
                               bal.operator_entries)
    op = bal.sigma_z_operator(report.state)
    est = bal.eig_estimate(op)
    logger.info("spectrum k=%d: lambda=%.6e kernel=%d converged=%s, "
                "%d iterations (fallback_steps=%d)",
                k, est.lambda_z, est.kernel_dim, report.converged,
                report.iterations, report.fallback_steps)
    return {
        "k": int(k),
        **fields,
        "lambda_z": float(est.lambda_z),
        "smallest_eig": float(est.smallest),
        "kernel_dim": int(est.kernel_dim),
        "dimension": int(est.dimension),
        "samples": int(est.samples),
        "sectors": int(op.sectors),
        "largest_sector": int(op.largest_sector),
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "fallback_steps": int(report.fallback_steps),
        "final_norm_op": float(report.moment.norm_op),
        "torus_row": torus_row,
    }


def spectrum_assemble(cfg, results):
    """Growth-exponent and monotonicity verdicts over a spectrum sweep,
    then each converged level's informational `kernel-dim` row and the
    levels' torus rows."""
    ks = [res["k"] for res in results]
    lambdas = [res["lambda_z"] for res in results]
    exponent = bal.lambda_fit_exponent(ks, lambdas)
    model = build_model(cfg)
    bound = 2.0 * model.n + 2.5
    rows = []
    if math.isnan(exponent):
        rows.append(_row(
            "spectrum-growth-exponent",
            detail="fewer than two levels with positive lambda; no fit"))
    else:
        rows.append(_row(
            "spectrum-growth-exponent", value=float(exponent),
            reference=float(bound), error=float(max(0.0, exponent - bound)),
            tolerance=0.0, passed=bool(exponent <= bound),
            detail=f"log-log slope of lambda over levels "
                   f"{cfg.k_min}..{cfg.k_max}"))
    positive = [lam for lam in lambdas if lam > 0.0]
    if len(positive) >= 2:
        diffs = np.diff(positive)
        rows.append(_row(
            "spectrum-monotone", value=float(np.min(diffs)), reference=0.0,
            error=float(max(0.0, -np.min(diffs))), tolerance=0.0,
            passed=bool(np.all(diffs > 0.0)),
            detail="lambda increases strictly along the positive levels"))
    else:
        rows.append(_row(
            "spectrum-monotone",
            detail="fewer than two positive levels; nothing to order"))
    aut = automorphism_dimension(model)
    rows += [_row("kernel-dim", k=res["k"], value=res["kernel_dim"],
                  reference=aut, error=abs(res["kernel_dim"] - aut),
                  detail="eig_estimate's kernel against dim aut(P(E)); "
                         "reported, not judged")
             for res in results if res["converged"]]
    rows += [res["torus_row"] for res in results
             if res["torus_row"] is not None]
    return rows, exponent

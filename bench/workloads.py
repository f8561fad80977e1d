"""The benchmark's workloads and the checks each run's outputs must pass.

Every reference value below is a closed form computed here, not a number
read back from an earlier run:

* verify: the section count N(k) = (k+1) + (k+2) of O(1) + pi*O(k) on
  P(O + O(1)) over P^1, the fiber volume constants (2 pi)^(r-1) / r!, and
  the metric round-trip tolerance.
* balance and spectrum run on P^1 x P^1 = P(C^2) over P^1 with the
  polarization O(k) x O(1): N = 2(k+1) sections, volume L^2 / 2 = k,
  balanced moment constant d = V / N = k / (2(k+1)), and a normal-action
  operator Q on su(N) whose kernel is the automorphism algebra
  su(2) + su(2) (dimension 6) and whose trace is (N - 1 - n) V with n = 2.

A check is one operation of the run.  `Check.passes` holds only when the
value is present and within tolerance, so an empty report (a run that
exited 2 or 3) fails every check and the number of operations of a round
does not depend on how the round ended.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    label: str
    value: object  # float, int, bool or None when the run did not produce it
    reference: object
    tolerance: float = 0.0

    @property
    def passes(self):
        if self.value is None:
            return False
        if isinstance(self.reference, bool):
            return self.value is self.reference
        return abs(self.value - self.reference) <= self.tolerance


def _row_value(report, name, *, k=None, rank=None):
    for row in report.get("checks", []):
        if row["name"] != name:
            continue
        if k is not None and row["k"] != k:
            continue
        if rank is not None and row["detail"].split(",")[0] != f"rank {rank}":
            continue
        return row["value"]
    return None


def _levels(report):
    levels = report.get("results", {}).get("levels", [])
    return {lev["k"]: lev for lev in levels if isinstance(lev, dict)}


def _level_value(report, k, key):
    return _levels(report).get(k, {}).get(key)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    ks: tuple
    judged: int  # judged check rows the CLI writes, less those left out
    why: str
    # judged rows whose verdict depends on the seed; they are not operations
    left_out: tuple = ()

    def judged_rows(self, report):
        """The report's judged check rows (passed is not None) that count
        as operations."""
        return [row for row in report.get("checks", [])
                if row["passed"] is not None
                and row["name"] not in self.left_out]

    def checks(self, report, trace_levels=None):
        """Closed-form checks on one round's report; `trace_levels` is the
        traced round's per-level observations, None for untraced rounds."""
        out = [Check("judged rows", len(self.judged_rows(report)),
                     self.judged)]
        out += _CHECKS[self.name](self, report)
        if trace_levels is not None and self.name == "spectrum":
            out += _trace_q_checks(self, trace_levels)
        return out


def _verify_checks(wl, report):
    out = []
    for k in wl.ks:
        out.append(Check(f"density-mass k={k} = N(k)",
                         _row_value(report, "density-mass", k=k),
                         float((k + 1) + (k + 2)), 1e-8))
    for r in range(1, 6):
        out.append(Check(f"volume-constant rank {r}",
                         _row_value(report, "volume-constant", rank=r),
                         (2.0 * math.pi) ** (r - 1) / math.factorial(r), 1e-8))
    for r in (2, 3):
        value = _row_value(report, "metric-round-trip", rank=r)
        out.append(Check(f"metric-round-trip rank {r} <= 1e-9",
                         None if value is None else value <= 1e-9, True))
    return out


def _balance_checks(wl, report):
    out = []
    for k in wl.ks:
        n = 2 * (k + 1)
        trace_abs = _level_value(report, k, "trace_abs")
        out += [
            Check(f"converged k={k}", _level_value(report, k, "converged"),
                  True),
            Check(f"volume k={k} = k", _level_value(report, k, "volume"),
                  float(k), 1e-8),
            Check(f"rho_mass k={k} = N", _level_value(report, k, "rho_mass"),
                  float(n), 1e-8),
            Check(f"d_value k={k} = k/N", _level_value(report, k, "d_value"),
                  k / n, 1e-10),
            Check(f"trace_abs k={k} <= 1e-10",
                  None if trace_abs is None else trace_abs <= 1e-10, True),
        ]
    return out


def _spectrum_checks(wl, report):
    out = []
    for k in wl.ks:
        n = 2 * (k + 1)
        out += [
            Check(f"converged k={k}", _level_value(report, k, "converged"),
                  True),
            Check(f"dimension k={k} = N^2-1",
                  _level_value(report, k, "dimension"), n * n - 1),
            Check(f"kernel_dim k={k} = 6",
                  _level_value(report, k, "kernel_dim"), 6),
        ]
    lambdas = [_level_value(report, k, "lambda_z") for k in wl.ks]
    rising = None
    if None not in lambdas:
        rising = all(b > a for a, b in zip(lambdas, lambdas[1:]))
    out.append(Check("lambda_z rises strictly", rising, True))
    return out


def _trace_q_checks(wl, trace_levels):
    traces = trace_levels.get("balancing.sigma_z_operator.trace", {})
    out = []
    for k in wl.ks:
        want = (2 * k - 1) * k  # (N - 1 - n) V with N = 2(k+1), n = 2, V = k
        value = traces.get(str(k))
        out.append(Check(f"tr Q k={k} = (2k-1)k",
                         None if value is None else value / want, 1.0, 1e-10))
    return out


_CHECKS = {
    "verify": _verify_checks,
    "balance": _balance_checks,
    "spectrum": _spectrum_checks,
}

_P1XP1 = """\
[model]
kind = pm-trivial
rank = 2
base_dim = 1
"""

WORKLOADS = {
    "verify": Workload(
        name="verify", command="verify",
        # the built-in verify default, written out so that a change to the
        # default does not change what the benchmark measures
        config="""\
[model]
kind = p1-sum
degrees = 0,1

[sweep]
k_min = 3
k_max = 6
n_points = 200

[quadrature]
n_radial = 16
""",
        ks=(3, 4, 5, 6), judged=24,
        why="projbalance verify at its default config: time in bergman and "
            "metrics (hat_form_matrix), none in balancing"),
    "balance": Workload(
        name="balance", command="balance",
        config=_P1XP1 + """
[sweep]
k_min = 2
k_max = 6

[quadrature]
n_radial = 6
""",
        ks=(2, 3, 4, 5, 6), judged=16,
        # the comparability verdict depends on the seed, which places the
        # r_bounded_check points: of seeds 0..29, seed 2 fails at k=5
        left_out=("embedding-comparable",),
        why="projbalance balance on P1xP1, levels 2..6, n_radial 6: "
            "T-iteration node sums and r_bounded_check; bergman runs once "
            "per level"),
    "spectrum": Workload(
        name="spectrum", command="moment-spectrum",
        config=_P1XP1 + """
[sweep]
k_min = 2
k_max = 5

[quadrature]
n_radial = 6

[solver]
balance_tol = 1e-9
""",
        ks=(2, 3, 4, 5), judged=2,
        why="projbalance moment-spectrum on P1xP1, levels 2..5, n_radial 6: "
            "tight-tolerance balancing and sigma_z_operator, no bergman"),
}

"""Per-layer tracing of projbalance, installed from outside the library.

`install` replaces the public functions and methods named in `TARGETS`
with wrappers that record spans (name, start, end, parent) and counts.
A name is rebound everywhere it is bound: `suites` imports `base_rule`,
`fiber_rule` and `integrate` directly, and `balancing` imports
`adapted_total_rule` from `bergman`, so every projbalance module that holds
the original object gets the wrapper.  Spans are kept in memory and written
out by `Tracer.dump` when the run ends; `layer_metrics` turns a dump into
the per-layer metrics of BENCHMARK.json.

A layer's self time is its spans' durations minus the time their child
spans cover.  Counts are taken when a wrapped call returns, and only at the
outermost call of a name, so a method that calls a sibling method of the
same layer (`inverse` calls `matrix`) counts its rows once.  The time spent
taking a count is kept out of every span (`Tracer.untimed`).
"""

import collections
import contextlib
import functools
import importlib
import inspect
import os
import time

import numpy as np

ROOT = "run"


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._skew = 0.0
        self._stack = []
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.levels = collections.defaultdict(dict)  # name -> {k: value}

    def now(self):
        return self._clock() - self._skew

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.now()
        if self._stack[-1] != idx:
            raise RuntimeError(
                f"span {self.spans[idx][0]} closed out of order")
        self._stack.pop()

    def finish(self):
        """Close every span still open, innermost first."""
        while self._stack:
            self.close(self._stack[-1])

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def untimed(self):
        """Bookkeeping whose duration no span should see."""
        t0 = self._clock()
        try:
            yield
        finally:
            self._skew += self._clock() - t0

    def dump(self):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "levels": {name: {str(k): v for k, v in by_k.items()}
                       for name, by_k in self.levels.items()},
        }


def load_spans(dump):
    names = dump["names"]
    return [[names[i], s, e, p] for i, s, e, p in dump["spans"]]


def wrap(tracer, name, fn, count=None):
    """`fn` recording a span called `name` (no span when None) and calling
    `count(tracer, result, arguments)` after the outermost call returns."""
    signature = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer = name is None or not tracer.inside(name)
        idx = tracer.open(name) if name is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if idx is not None:
                tracer.close(idx)
        if count is not None and outer:
            with tracer.untimed():
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer, result, bound.arguments)
        return result

    traced.__wrapped__ = fn
    return traced


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def _first_array(arguments):
    values = [v for key, v in arguments.items() if key != "self"]
    return np.asarray(values[0])


def _rows(metric):
    def count(tracer, result, arguments):
        tracer.counts[metric] += int(_first_array(arguments).shape[0])
    return count


def _chart_nodes(tracer, result, arguments):
    tracer.counts["quadrature.chart_rule.nodes"] += int(result.points.shape[0])


def _metric_rows(tracer, result, arguments):
    z = np.ascontiguousarray(np.asarray(arguments["z"], dtype=complex))
    tracer.counts["metrics.bundle_metric.rows"] += int(z.shape[0])
    if z.shape[0] == 0:
        return
    if z.shape[1] == 0:
        distinct = 1
    else:
        # one opaque item per row: np.unique sorts once, not per column
        rows = z.view(np.dtype((np.void, z.itemsize * z.shape[1])))
        distinct = np.unique(rows).shape[0]
    tracer.counts["metrics.bundle_metric.distinct_rows"] += int(distinct)


def _hat_form_nodes(tracer, result, arguments):
    tracer.counts["bergman.hat_form_matrix.nodes"] += int(
        np.asarray(arguments["pts"]).shape[0])


def _fiber_nodes(tracer, result, arguments):
    rule = arguments["rule"]
    if rule is not None:
        tracer.counts["bergman.fiber_push_forward.nodes"] += int(
            np.asarray(arguments["z"]).shape[0] * rule.points.shape[0])


def _iterations(tracer, result, arguments):
    tracer.counts["balancing.iterations"] += int(result.iterations)
    tracer.levels["balancing.iterations"][int(result.state.model.k)] = int(
        result.iterations)


def _geometry(tracer, result, arguments):
    tracer.counts["balancing.geometry_calls"] += 1


def _sigma_z(tracer, result, arguments):
    state = arguments["state"]
    n = int(state.count)
    gens = arguments["generators"]
    n_gens = n * n - 1 if gens is None else int(np.asarray(gens).shape[0])
    nodes = int(state.values.shape[0])
    field_mb = n_gens * nodes * n * 16 / 2.0**20  # one complex128 tensor
    k = int(state.model.k)
    tracer.levels["balancing.sigma_z_operator.field_mb"][k] = field_mb
    tracer.levels["balancing.sigma_z_operator.trace"][k] = float(
        np.trace(result.q_matrix).real)


def _report_bytes(tracer, result, arguments):
    tracer.counts["reports.report_bytes"] += os.path.getsize(result)


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

# (span name or None for count-only, module, "function" or "Class.method",
#  count or None)
TARGETS = (
    ("quadrature.chart_rule", "quadrature", "chart_rule", _chart_nodes),
    ("quadrature.integrate", "quadrature", "integrate", None),
    ("sections.eval", "sections", "SectionBasis.eval_components",
     _rows("sections.eval.rows")),
    ("sections.eval", "sections", "SectionBasis.eval_embedding",
     _rows("sections.eval.rows")),
    ("sections.eval", "sections", "SectionBasis.eval_embedding_homogeneous",
     _rows("sections.eval.rows")),
    ("sections.eval", "sections", "SectionBasis.eval_embedding_jet",
     _rows("sections.eval.rows")),
    ("kahler.mixed_volume_coefficients", "kahler",
     "mixed_volume_coefficients",
     _rows("kahler.mixed_volume_coefficients.rows")),
    ("kahler.complex_hessian", "kahler", "complex_hessian", None),
    ("metrics.hat_weight", "metrics", "hat_weight", None),
    ("metrics.hat_weight", "metrics", "hat_weight_homogeneous", None),
    ("metrics.gram", "metrics", "make_gram", None),
    ("metrics.gram", "metrics", "whitening_transform", None),
    ("metrics.gram", "metrics", "GramMatrix.smallest_eigenvalue", None),
    ("metrics.gram", "metrics", "GramMatrix.condition", None),
    ("metrics.gram", "metrics", "GramMatrix.whitener", None),
    ("bergman.hat_form_matrix", "bergman", "hat_form_matrix", _hat_form_nodes),
    ("bergman.level_volume_density", "bergman", "level_volume_density", None),
    ("bergman.push_forward_table", "bergman", "push_forward_table", None),
    ("bergman.fiber_push_forward", "bergman", "fiber_push_forward",
     _fiber_nodes),
    ("bergman.adapted_total_rule", "bergman", "adapted_total_rule", None),
    ("bergman.rho_direct", "bergman", "rho_direct", None),
    ("bergman.direct_density", "bergman", "DirectDensity.density", None),
    ("bergman.direct_density", "bergman", "DirectDensity.measure_density",
     None),
    ("bergman.direct_density", "bergman", "DirectDensity.total_mass", None),
    ("bergman.direct_density", "bergman", "DirectDensity.volume", None),
    ("bergman.bergman_endomorphism", "bergman", "bergman_endomorphism", None),
    ("bergman.l2_gram", "bergman", "l2_gram", None),
    ("bergman.rho_via_trace", "bergman", "rho_via_trace", None),
    ("bergman.a11_apply", "bergman", "a11_apply", None),
    ("balancing.embedding_state", "balancing", "embedding_state", None),
    ("balancing.moment_map", "balancing", "moment_map", None),
    ("balancing.t_map_step", "balancing", "t_map_step", None),
    (None, "balancing", "_fs_geometry", _geometry),
    (None, "balancing", "balance_iterate", _iterations),
    (None, "balancing", "flow_iterate", _iterations),
    ("balancing.balanced_density_stats", "balancing", "balanced_density_stats",
     None),
    ("balancing.r_bounded_check", "balancing", "r_bounded_check", None),
    ("balancing.sigma_z_operator", "balancing", "sigma_z_operator", _sigma_z),
    ("balancing.eig_estimate", "balancing", "eig_estimate", None),
    ("suites.job", "suites", "density_route_job", None),
    ("suites.job", "suites", "balance_job", None),
    ("suites.job", "suites", "expansion_job", None),
    ("suites.job", "suites", "degenerate_expansion_job", None),
    ("suites.job", "suites", "spectrum_job", None),
    ("suites.rows", "suites", "volume_constant_rows", None),
    ("suites.rows", "suites", "quadrature_rows", None),
    ("suites.rows", "suites", "round_trip_rows", None),
    ("suites.rows", "suites", "fiber_average_rows", None),
    ("suites.rows", "suites", "joint_linearization_rows", None),
    ("suites.rows", "suites", "balance_rows", None),
    ("suites.rows", "suites", "almost_balanced_row", None),
    ("suites.rows", "suites", "expansion_assemble", None),
    ("suites.rows", "suites", "degenerate_expansion_rows", None),
    ("suites.rows", "suites", "spectrum_assemble", None),
    ("reports.write", "reports", "build_report", None),
    ("reports.write", "reports", "write_report", _report_bytes),
    ("reports.write", "reports", "write_csv", None),
    ("reports.write", "reports", "checks_csv_rows", None),
)

BUNDLE_METHODS = ("matrix", "d_matrix", "dd_matrix", "inverse")


def _count_field_evals(tracer, field):
    @functools.wraps(field)
    def counted(pts):
        tracer.counts["balancing.r_bounded_check.field_evals"] += 1
        return field(pts)
    return counted


class Installation:
    """Undo record of `install`."""

    def __init__(self):
        self._undo = []

    def setattr(self, owner, attr, value):
        if attr in vars(owner):
            old = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, old))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def setitem(self, mapping, key, value):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def remove(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


def install(tracer, package):
    """Wrap every target of `TARGETS`, the bundle-metric methods, the field
    callables of `balancing.embedding_form_field` and the runners of
    `cli`.  `package` is the imported projbalance package; returns an
    `Installation` whose `remove` restores the originals."""
    modules = [importlib.import_module(f"{package.__name__}.{name}")
               for name in ("quadrature", "kahler", "sections", "metrics",
                            "bergman", "balancing", "config", "suites",
                            "reports", "cli")]
    by_name = {mod.__name__.rsplit(".", 1)[1]: mod for mod in modules}
    installation = Installation()

    def rebind(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    installation.setattr(mod, attr, replacement)

    for name, modname, target, count in TARGETS:
        mod = by_name[modname]
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(mod, cls_name)
            installation.setattr(
                cls, meth, wrap(tracer, name, cls.__dict__[meth], count))
        else:
            original = getattr(mod, target)
            rebind(original, wrap(tracer, name, original, count))

    metrics = by_name["metrics"]
    base = metrics.BundleMetricField
    classes = [base] + [cls for cls in vars(metrics).values()
                        if isinstance(cls, type) and issubclass(cls, base)
                        and cls is not base]
    wrapped = set()
    for cls in classes:
        for meth in BUNDLE_METHODS:
            owner = next(c for c in cls.__mro__ if meth in c.__dict__)
            # a method inherited from outside the bundle-metric classes
            # (MatrixField) is wrapped on each subclass that uses it
            where = owner if issubclass(owner, base) else cls
            if (where, meth) in wrapped:
                continue
            wrapped.add((where, meth))
            installation.setattr(
                where, meth, wrap(tracer, "metrics.bundle_metric",
                                  owner.__dict__[meth], _metric_rows))

    balancing = by_name["balancing"]
    field_factory = balancing.embedding_form_field

    @functools.wraps(field_factory)
    def counting_factory(state):
        return _count_field_evals(tracer, field_factory(state))

    rebind(field_factory, counting_factory)

    runners = by_name["cli"]._RUNNERS
    for command, runner in list(runners.items()):
        installation.setitem(runners, command,
                             wrap(tracer, "cli.runner", runner))
    return installation


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the durations of direct
    children.  Spans of one thread nest, so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (name, start, end, parent) in enumerate(spans)]


# (metric, unit) of the per-layer section of BENCHMARK.json, in order
PER_LAYER = (
    ("quadrature.chart_rule.s", "s"),
    ("quadrature.chart_rule.nodes", "count"),
    ("quadrature.integrate.s", "s"),
    ("sections.eval.s", "s"),
    ("sections.eval.rows", "count"),
    ("kahler.mixed_volume_coefficients.s", "s"),
    ("kahler.mixed_volume_coefficients.rows", "count"),
    ("kahler.complex_hessian.s", "s"),
    ("metrics.bundle_metric.s", "s"),
    ("metrics.bundle_metric.rows", "count"),
    ("metrics.bundle_metric.rows_per_base_point", "ratio"),
    ("metrics.hat_weight.s", "s"),
    ("metrics.gram.s", "s"),
    ("bergman.hat_form_matrix.s", "s"),
    ("bergman.hat_form_matrix.calls", "count"),
    ("bergman.hat_form_matrix.nodes", "count"),
    ("bergman.level_volume_density.s", "s"),
    ("bergman.level_volume_density.calls", "count"),
    ("bergman.push_forward_table.s", "s"),
    ("bergman.push_forward_table.calls", "count"),
    ("bergman.fiber_push_forward.s", "s"),
    ("bergman.fiber_push_forward.nodes", "count"),
    ("bergman.adapted_total_rule.s", "s"),
    ("bergman.rho_direct.s", "s"),
    ("bergman.direct_density.s", "s"),
    ("bergman.bergman_endomorphism.s", "s"),
    ("bergman.l2_gram.s", "s"),
    ("bergman.rho_via_trace.s", "s"),
    ("bergman.a11_apply.s", "s"),
    ("balancing.iterations", "count"),
    ("balancing.iterations.top", "count"),
    ("balancing.moment_map.s", "s"),
    ("balancing.moment_map.calls", "count"),
    ("balancing.t_map_step.s", "s"),
    ("balancing.t_map_step.calls", "count"),
    ("balancing.geometry_calls_per_iteration", "ratio"),
    ("balancing.embedding_state.s", "s"),
    ("balancing.balanced_density_stats.s", "s"),
    ("balancing.r_bounded_check.s", "s"),
    ("balancing.r_bounded_check.field_evals", "count"),
    ("balancing.sigma_z_operator.s", "s"),
    ("balancing.sigma_z_operator.field_mb", "MiB"),
    ("balancing.eig_estimate.s", "s"),
    ("suites.job.s", "s"),
    ("suites.job.max_s", "s"),
    ("suites.rows.s", "s"),
    ("reports.write.s", "s"),
    ("reports.report_bytes", "bytes"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(dump, traced_run_s, untraced_run_s):
    """Per-layer metric values from a trace dump, every name of
    `PER_LAYER`; a layer that did no work reads 0."""
    spans = load_spans(dump)
    selfs = self_times(spans)
    self_s = collections.Counter()
    calls = collections.Counter()
    job_max = 0.0
    for (name, start, end, _), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
        if name == "suites.job":
            job_max = max(job_max, end - start)
    counts = collections.Counter(dump["counts"])
    levels = dump["levels"]

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = levels.get("balancing.iterations", {})
    top = iterations[max(iterations, key=int)] if iterations else 0
    field_mb = levels.get("balancing.sigma_z_operator.field_mb", {})
    values = {
        "metrics.bundle_metric.rows_per_base_point": ratio(
            counts["metrics.bundle_metric.rows"],
            counts["metrics.bundle_metric.distinct_rows"]),
        "balancing.iterations.top": top,
        "balancing.geometry_calls_per_iteration": ratio(
            counts["balancing.geometry_calls"],
            counts["balancing.iterations"]),
        "balancing.sigma_z_operator.field_mb": max(field_mb.values(),
                                                   default=0.0),
        "suites.job.max_s": job_max,
        "cli.overhead_s": self_s[ROOT] + self_s["cli.runner"],
        "trace.overhead_s": traced_run_s - untraced_run_s,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in values:
            value = values[metric]
        elif metric.endswith(".s"):
            value = self_s[metric[:-2]]
        elif metric.endswith(".calls"):
            value = calls[metric[:-6]]
        else:
            value = counts[metric]
        out[metric] = {"value": value, "unit": unit}
    return out

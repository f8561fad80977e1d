"""Experiment configuration: a flat key/value file with sections.

The canonical layout mirrors the serializer below; every key is optional
and falls back to its default, so an empty file is a valid configuration.

    [model]
    kind = p1-sum            ; point | p1-sum | pm-trivial
    degrees = 0,1            ; summand twists for p1-sum
    rank = 2                 ; fiber rank for point / pm-trivial
    base_dim = 1             ; base dimension for pm-trivial

    [sweep]
    k_min = 3
    k_max = 6
    n_points = 200           ; sample points for cross-route density checks

    [quadrature]
    n_radial = 16            ; radial nodes per complex coordinate

    [solver]
    method = t-iteration     ; t-iteration | gradient-flow
    balance_tol = 1e-08
    max_iter = 400
    flow_step = 1.0

    [checks]
    rho_tol = 1e-05          ; relative cross-route density tolerance
    a1_rel_tol = 0.02        ; relative first-correction tolerance
    order_q = 0              ; claimed decay order of the reference family
    r_bound = 10000000.0     ; two-sided C^4 comparability bound
    d_tol = 1e-08            ; tolerance on the moment constant d = V/N

    [output]
    out_dir = runs
    seed = 0

Parsing is strict: unknown sections or keys, unparseable values, empty
level ranges, and nonpositive or non-finite tolerances all raise
`ConfigError` with the offending section, key, and line number.  `serialize_config` emits the
canonical text; parse -> serialize -> parse is the identity.
"""

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kahler import FubiniStudy
from .metrics import ConstantBundleMetric, SplitBundleMetric
from .sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    TrivialBundleOverPm,
)

__all__ = [
    "ExperimentConfig",
    "validate_config",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "default_config",
    "build_model",
    "build_metric",
    "build_kahler",
]

MODEL_KINDS = ("point", "p1-sum", "pm-trivial")
SOLVER_METHODS = ("t-iteration", "gradient-flow")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; see the module docstring for the
    file layout and the meaning of each field."""

    kind: str = "p1-sum"
    degrees: tuple = (0, 1)
    rank: int = 2
    base_dim: int = 1
    k_min: int = 3
    k_max: int = 6
    n_points: int = 200
    n_radial: int = 16
    method: str = "t-iteration"
    balance_tol: float = 1e-8
    max_iter: int = 400
    flow_step: float = 1.0
    rho_tol: float = 1e-5
    a1_rel_tol: float = 0.02
    order_q: int = 0
    r_bound: float = 1e7
    d_tol: float = 1e-8
    out_dir: str = "runs"
    seed: int = 0

    @property
    def ks(self):
        return tuple(range(self.k_min, self.k_max + 1))


def _parse_degrees(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("needs at least one summand twist")
    return tuple(int(p) for p in parts)


def _fmt_degrees(value):
    return ",".join(str(v) for v in value)


# (section, key, parser, formatter), the key naming the `ExperimentConfig`
# field; the tuple order is the canonical serialization order.  configparser
# strips values, and int and float accept surrounding whitespace anyway.
_LAYOUT = (
    ("model", "kind", str, str),
    ("model", "degrees", _parse_degrees, _fmt_degrees),
    ("model", "rank", int, str),
    ("model", "base_dim", int, str),
    ("sweep", "k_min", int, str),
    ("sweep", "k_max", int, str),
    ("sweep", "n_points", int, str),
    ("quadrature", "n_radial", int, str),
    ("solver", "method", str, str),
    ("solver", "balance_tol", float, repr),
    ("solver", "max_iter", int, str),
    ("solver", "flow_step", float, repr),
    ("checks", "rho_tol", float, repr),
    ("checks", "a1_rel_tol", float, repr),
    ("checks", "order_q", int, str),
    ("checks", "r_bound", float, repr),
    ("checks", "d_tol", float, repr),
    ("output", "out_dir", str, str),
    ("output", "seed", int, str),
)

_KNOWN = {(section, key): parser for section, key, parser, _ in _LAYOUT}
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _LAYOUT))


def _line_of(text, section, key=None):
    """1-based line of a key inside its section (or of the section header),
    None when not found.  Used only to decorate error messages."""
    current = None
    for idx, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if key is None and current == section:
                return idx
            continue
        if key is None or current != section:
            continue
        body = stripped.split(";", 1)[0].split("#", 1)[0]
        name = body.split("=", 1)[0].split(":", 1)[0].strip()
        if name == key:
            return idx
    return None


def _where(text, section, key=None):
    line = _line_of(text, section, key)
    spot = f"[{section}]" if key is None else f"[{section}] {key}"
    return f"{spot} (line {line})" if line is not None else spot


def parse_config_text(text):
    """Parse configuration text into an `ExperimentConfig`.

    Unknown sections or keys, values of the wrong type, and inconsistent
    field combinations raise `ConfigError` naming the section, key, and
    line."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable configuration: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section {_where(text, section)}; expected one of "
                f"{', '.join(_SECTIONS)}")
        for key, raw in parser.items(section):
            if (section, key) not in _KNOWN:
                raise ConfigError(
                    f"unknown key {_where(text, section, key)}")
            try:
                values[key] = _KNOWN[(section, key)](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value {_where(text, section, key)}: "
                    f"{raw!r} ({exc})") from exc

    cfg = ExperimentConfig(**values)
    validate_config(cfg, text)
    return cfg


def validate_config(cfg, text=""):
    """Raise `ConfigError` on the first invalid field of `cfg`, naming its
    section and key, and its line in `text` when given."""

    def fail(section, key, why):
        raise ConfigError(f"invalid value {_where(text, section, key)}: {why}")

    if cfg.kind not in MODEL_KINDS:
        fail("model", "kind",
             f"{cfg.kind!r} is not one of {', '.join(MODEL_KINDS)}")
    if cfg.rank < 1:
        fail("model", "rank", f"rank must be at least 1, got {cfg.rank}")
    if cfg.kind == "point" and cfg.rank < 2:
        fail("model", "rank",
             f"a point base needs fiber rank at least 2, got {cfg.rank}")
    if cfg.base_dim < 1:
        fail("model", "base_dim",
             f"base dimension must be at least 1, got {cfg.base_dim}")
    if cfg.k_min < 1:
        fail("sweep", "k_min", f"levels start at 1, got {cfg.k_min}")
    if cfg.kind == "p1-sum" and min(cfg.degrees) + cfg.k_min < 0:
        fail("model", "degrees",
             f"summand twist {min(cfg.degrees)} at level k_min {cfg.k_min} "
             "gives an empty section space; need min(degrees) + k_min >= 0")
    if cfg.k_max < cfg.k_min:
        fail("sweep", "k_max",
             f"empty level range: k_max {cfg.k_max} < k_min {cfg.k_min}")
    if cfg.n_points < 1:
        fail("sweep", "n_points",
             f"need at least one sample point, got {cfg.n_points}")
    if cfg.n_radial < 4:
        fail("quadrature", "n_radial",
             f"need at least 4 radial nodes, got {cfg.n_radial}")
    if cfg.method not in SOLVER_METHODS:
        fail("solver", "method",
             f"{cfg.method!r} is not one of {', '.join(SOLVER_METHODS)}")
    for section, key in (("solver", "balance_tol"), ("solver", "flow_step"),
                         ("checks", "rho_tol"), ("checks", "a1_rel_tol"),
                         ("checks", "d_tol")):
        value = getattr(cfg, key)
        if not 0.0 < value < math.inf:  # fails closed on NaN
            fail(section, key, f"must be positive and finite, got {value}")
    if cfg.max_iter < 0:
        fail("solver", "max_iter",
             f"iteration budget cannot be negative, got {cfg.max_iter}")
    if cfg.order_q < 0:
        fail("checks", "order_q",
             f"decay order cannot be negative, got {cfg.order_q}")
    if not 1.0 < cfg.r_bound < math.inf:  # fails closed on NaN
        fail("checks", "r_bound",
             f"comparability bound must be finite and exceed 1, got "
             f"{cfg.r_bound}")
    if cfg.seed < 0:
        fail("output", "seed", f"seed cannot be negative, got {cfg.seed}")


def parse_config(path):
    """Parse a configuration file; unreadable files are configuration
    errors too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return parse_config_text(text)


def serialize_config(cfg):
    """Canonical text for a configuration: fixed section and key order,
    every field written explicitly.  Parsing the result returns an equal
    `ExperimentConfig`."""
    validate_config(cfg)
    out = io.StringIO()
    current = None
    for section, key, _, fmt in _LAYOUT:
        if section != current:
            if current is not None:
                out.write("\n")
            out.write(f"[{section}]\n")
            current = section
        out.write(f"{key} = {fmt(getattr(cfg, key))}\n")
    return out.getvalue()


_DEFAULTS = {
    "verify": ExperimentConfig(),
    "balance": ExperimentConfig(
        kind="pm-trivial", rank=2, base_dim=1, k_min=2, k_max=6,
        n_radial=10),
    "expansion": ExperimentConfig(
        kind="p1-sum", degrees=(0, 1), k_min=4, k_max=10, n_radial=20),
    "moment-spectrum": ExperimentConfig(
        kind="p1-sum", degrees=(0,), k_min=1, k_max=5, n_radial=10,
        balance_tol=1e-9),
}


def default_config(command):
    """Built-in configuration for a subcommand, used when --config is
    omitted."""
    try:
        return _DEFAULTS[command]
    except KeyError:
        raise ConfigError(f"no default configuration for {command!r}") from None


def build_model(cfg, k=None):
    """Model space for a configuration at level k (k_min when omitted)."""
    k = cfg.k_min if k is None else int(k)
    if cfg.kind == "point":
        model = ProjectivePoint(cfg.rank)
        return dataclasses.replace(model, k=k)
    if cfg.kind == "p1-sum":
        return LineBundleSumOverP1(cfg.degrees, k)
    return TrivialBundleOverPm(cfg.base_dim, cfg.rank, k)


def build_metric(cfg):
    """Reference fiber metric matching the model kind: the splitting
    weights for a twisted sum, the identity otherwise."""
    if cfg.kind == "p1-sum":
        return SplitBundleMetric(1, cfg.degrees)
    if cfg.kind == "pm-trivial":
        return ConstantBundleMetric(cfg.base_dim, np.eye(cfg.rank))
    return ConstantBundleMetric(0, np.eye(cfg.rank))


def build_kahler(cfg):
    """Base structure matching the model kind."""
    if cfg.kind == "point":
        return FubiniStudy(0)
    if cfg.kind == "p1-sum":
        return FubiniStudy(1)
    return FubiniStudy(cfg.base_dim)

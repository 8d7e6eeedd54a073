"""Strict JSON experiment configuration.

Unknown keys are rejected at every level and numeric fields are validated
against the module preconditions, so a typo fails loudly with the offending
field path instead of silently running the wrong experiment. Model,
functional and theta entries become dimension-indexed factories, which lets
one config drive a sweep where d = ceil(n^alpha) varies across the grid.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from . import functionals, models
from .experiments import ConfigError, ExperimentConfig, GridSpec, _grid_point, unit_sin_theta

_TOP_KEYS = {
    "kind",
    "model",
    "functional",
    "theta",
    "k",
    "grid",
    "mc",
    "delta",
    "seed",
    "outputs",
    "timing",
    "compare",
}
_REQUIRED = ("kind", "model", "functional", "k", "grid", "mc", "seed")

THETA_RULES = ("unit_sin",)
U_RULES = ("unit_sin", "e1")


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _as_int(value, where: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    return float(value)


def _as_vector(value, where: str, d: int | None = None) -> np.ndarray:
    """A finite numeric 1-D array, of length d if d is given."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a numeric array") from None
    if v.ndim != 1 or v.size < 1:
        raise ConfigError(f"{where}: expected a non-empty 1-D array")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{where}: entries must be finite")
    if d is not None and v.size != d:
        raise ConfigError(f"{where}: length {v.size} does not match d = {d}")
    return v


def _as_matrix(value, where: str, d: int) -> np.ndarray:
    """A finite d x d matrix, given as a list of d rows."""
    if not isinstance(value, list) or len(value) != d:
        raise ConfigError(f"{where}: expected a list of d = {d} rows")
    return np.array([_as_vector(row, f"{where}[{i}]", d) for i, row in enumerate(value)])


def _per_coordinate(value, where: str, d: int):
    """A list needs one entry per coordinate; a number applies to every one."""
    return _as_vector(value, where, d) if isinstance(value, list) else value


# ---------------------------------------------------------------------------
# factories (module-level so worker processes can unpickle them)


def _u_rule(rule: str, d: int) -> np.ndarray:
    if rule == "e1":
        u = np.zeros(d)
        u[0] = 1.0
        return u
    return unit_sin_theta(d)


def _build_scaling_map(cfg, where: str, d: int) -> models.ScalingMap:
    if cfg is None:
        return models.IdentityMap()
    _reject_unknown(cfg, {"kind", "scale", "matrix", "a", "b"}, where)
    kind = _require(cfg, "kind", where)
    if kind == "identity":
        _reject_unknown(cfg, {"kind", "scale"}, where)
        scale = _as_number(cfg.get("scale", 1.0), f"{where}.scale")
        return models.IdentityMap(scale=scale)
    if kind == "constant":
        _reject_unknown(cfg, {"kind", "matrix"}, where)
        matrix = _as_matrix(_require(cfg, "matrix", where), f"{where}.matrix", d)
        return models.ConstantMatrixMap(matrix=matrix)
    if kind == "diag_tanh":
        _reject_unknown(cfg, {"kind", "a", "b"}, where)
        a, b = (_per_coordinate(_require(cfg, key, where), f"{where}.{key}", d) for key in "ab")
        return models.DiagTanhMap(a=a, b=b)
    raise ConfigError(f"{where}.kind: unknown scaling map {kind!r}")


def build_model(cfg: dict, d: int) -> models.Model:
    where = "model"
    variant = _require(cfg, "variant", where)
    try:
        if variant == "gaussian_shift":
            _reject_unknown(cfg, {"variant", "noise"}, where)
            return models.GaussianShift(dim=d, noise_map=_build_scaling_map(cfg.get("noise"), "model.noise", d))
        if variant == "independent_components":
            _reject_unknown(cfg, {"variant", "noise_dist", "directions", "noise"}, where)
            directions = cfg.get("directions")
            return models.IndependentComponents(
                dim=d,
                noise_dist=cfg.get("noise_dist", "rademacher"),
                directions=None if directions is None else np.asarray(directions, dtype=float),
                noise_map=_build_scaling_map(cfg.get("noise"), "model.noise", d),
            )
        if variant == "exponential_family":
            _reject_unknown(cfg, {"variant", "family", "base", "theta0"}, where)
            return models.ExponentialFamily(
                dim=d,
                family=cfg.get("family", "poisson_product"),
                base=cfg.get("base"),
                theta0=cfg.get("theta0"),
            )
        if variant == "log_concave_location":
            _reject_unknown(cfg, {"variant", "noise_dist", "scale"}, where)
            return models.LogConcaveLocation(
                dim=d,
                noise_dist=cfg.get("noise_dist", "laplace"),
                scale=cfg.get("scale", 1.0),
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.variant: unknown model {variant!r}")


def build_functional(cfg: dict, d: int) -> functionals.Functional:
    where = "functional"
    variant = _require(cfg, "variant", where)

    def resolve_u():
        u = _require(cfg, "u", where)
        if isinstance(u, dict):
            _reject_unknown(u, {"rule"}, f"{where}.u")
            rule = _require(u, "rule", f"{where}.u")
            if rule not in U_RULES:
                raise ConfigError(f"{where}.u.rule: unknown rule {rule!r}")
            return _u_rule(rule, d)
        return _as_vector(u, f"{where}.u", d)

    try:
        if variant == "linear":
            _reject_unknown(cfg, {"variant", "u"}, where)
            return functionals.linear(resolve_u())
        if variant == "power":
            _reject_unknown(cfg, {"variant", "u", "p"}, where)
            return functionals.power(resolve_u(), _as_int(_require(cfg, "p", where), f"{where}.p", 1))
        if variant == "quadratic_form":
            _reject_unknown(cfg, {"variant", "Q"}, where)
            q = cfg.get("Q")
            if q is None or q == "identity":
                return functionals.quadratic_form(None)
            return functionals.quadratic_form(_as_matrix(q, f"{where}.Q", d))
        if variant == "exp_linear":
            _reject_unknown(cfg, {"variant", "u"}, where)
            return functionals.exp_linear(resolve_u())
        if variant == "radial":
            _reject_unknown(cfg, {"variant", "profile"}, where)
            return functionals.radial(_require(cfg, "profile", where))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.variant: unknown functional {variant!r}")


def _theta(cfg) -> np.ndarray | None:
    """None for the unit_sin rule, else the fixed vector."""
    if cfg is None:
        return None
    if isinstance(cfg, dict):
        _reject_unknown(cfg, {"rule"}, "theta")
        rule = _require(cfg, "rule", "theta")
        if rule not in THETA_RULES:
            raise ConfigError(f"theta.rule: unknown rule {rule!r}")
        return None
    return _as_vector(cfg, "theta")


def parse_config(doc: dict) -> tuple[ExperimentConfig, dict]:
    """Validate a config document; returns (experiment config, outputs)."""
    _reject_unknown(doc, _TOP_KEYS, "config")
    for key in _REQUIRED:
        _require(doc, key, "config")

    kind = doc["kind"]

    grid_cfg = doc["grid"]
    _reject_unknown(grid_cfg, {"n", "d", "alpha"}, "grid")
    n_values = _require(grid_cfg, "n", "grid")
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("grid.n: expected a non-empty list")
    n_values = tuple(_as_int(n, "grid.n", 1) for n in n_values)
    d_fixed = grid_cfg.get("d")
    alpha = grid_cfg.get("alpha")
    if d_fixed is not None:
        d_fixed = _as_int(d_fixed, "grid.d", 1)
    if alpha is not None:
        alpha = _as_number(alpha, "grid.alpha")
    grid = GridSpec(n_values=n_values, d_fixed=d_fixed, alpha=alpha)

    mc = doc["mc"]
    _reject_unknown(mc, {"M", "R"}, "mc")
    m = _as_int(_require(mc, "M", "mc"), "mc.M", 1)
    r = _as_int(_require(mc, "R", "mc"), "mc.R", 1)

    delta = doc.get("delta")
    delta = None if delta in (None, "auto") else _as_number(delta, "delta")

    compare = doc.get("compare") or {}
    _reject_unknown(compare, {"plugin", "tilde"}, "compare")
    for key in compare:
        if not isinstance(compare[key], bool):
            raise ConfigError(f"compare.{key}: expected a boolean")

    outputs = doc.get("outputs") or {}
    _reject_unknown(outputs, {"csv", "json", "svg"}, "outputs")
    for key, val in outputs.items():
        if not isinstance(val, str) or not val:
            raise ConfigError(f"outputs.{key}: expected a non-empty path string")

    if kind == "clt":  # the diagnostic runs no chains and compares no estimators
        unused = {"k": _as_int(doc["k"], "k", 0) != 0, "mc.M": m != 1, "delta": "delta" in doc}
        unused.update({f"compare.{key}": flag for key, flag in compare.items()})
        for name, bad in unused.items():
            if bad:
                raise ConfigError(f"{name}: clt configs need k = 0, M = 1, no delta, no compare")

    cfg = ExperimentConfig(
        kind=kind,
        model=partial(build_model, dict(doc["model"])),
        functional=partial(build_functional, dict(doc["functional"])),
        theta=_theta(doc.get("theta")),
        k=_as_int(doc["k"], "k", 0),
        grid=grid,
        inner_chains=m,
        replicates=r,
        delta=delta,
        seed=_as_int(doc["seed"], "seed", 0),
        use_tilde=bool(compare.get("tilde", False)),
        compare_plugin=bool(compare.get("plugin", False)),
        timing=doc.get("timing", "wall"),
    )
    # fail fast on builder errors and theta's length instead of mid-run
    _grid_point(cfg, *cfg.grid.points()[0])
    return cfg, outputs


def load_config(path) -> tuple[ExperimentConfig, dict]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(doc)

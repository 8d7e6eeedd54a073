"""Strict JSON experiment configuration.

This module maps JSON keys and types onto experiments.ExperimentConfig,
which holds every rule about fields and values. Unknown keys are rejected
at every level, so a typo fails loudly with the offending field path
instead of silently running the wrong experiment. Model, functional and
theta entries become dimension-indexed factories, which lets one config
drive a sweep where d = ceil(n^alpha) varies across the grid.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from . import functionals, models
from .experiments import ConfigError, ExperimentConfig, GridSpec, as_int, unit_sin_theta

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
# factories: each builds its object at the grid dimension d


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
                directions=None if directions is None else _as_matrix(directions, "model.directions", d),
                noise_map=_build_scaling_map(cfg.get("noise"), "model.noise", d),
            )
        if variant == "exponential_family":
            _reject_unknown(cfg, {"variant", "family", "base"}, where)
            family, base = cfg.get("family", "poisson_product"), cfg.get("base")
            if family == "gaussian_mean":
                base = _per_coordinate(1.0 if base is None else base, "model.base", d)
                return models.gaussian_mean(d, base)
            if family != "poisson_product":
                raise ConfigError(f"{where}: unknown exponential family {family!r}")
            if base is not None:
                raise ConfigError(f"{where}: poisson_product takes no base parameters")
            return models.ExponentialFamily(d)
        if variant == "log_concave_location":
            _reject_unknown(cfg, {"variant", "noise_dist", "scale"}, where)
            scale = _per_coordinate(cfg.get("scale", 1.0), "model.scale", d)
            return models.location(d, cfg.get("noise_dist", "laplace"), scale)
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
            return functionals.power(resolve_u(), as_int(_require(cfg, "p", where), f"{where}.p"))
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

    grid_cfg = doc["grid"]
    _reject_unknown(grid_cfg, {"n", "d", "alpha"}, "grid")
    n_values = _require(grid_cfg, "n", "grid")
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("grid.n: expected a non-empty list")
    alpha = grid_cfg.get("alpha")
    if alpha is not None:
        alpha = _as_number(alpha, "grid.alpha")
    grid = GridSpec(n_values=tuple(n_values), d_fixed=grid_cfg.get("d"), alpha=alpha)

    mc = doc["mc"]
    _reject_unknown(mc, {"M", "R"}, "mc")

    delta = doc.get("delta")
    delta = None if delta in (None, "auto") else _as_number(delta, "delta")

    compare = doc.get("compare", {})
    _reject_unknown(compare, {"plugin", "tilde"}, "compare")
    for key in compare:
        if not isinstance(compare[key], bool):
            raise ConfigError(f"compare.{key}: expected a boolean")

    outputs = doc.get("outputs", {})
    _reject_unknown(outputs, {"csv", "json", "svg"}, "outputs")
    for key, val in outputs.items():
        if not isinstance(val, str) or not val:
            raise ConfigError(f"outputs.{key}: expected a non-empty path string")

    cfg = ExperimentConfig(
        kind=doc["kind"],
        model=partial(build_model, dict(doc["model"])),
        functional=partial(build_functional, dict(doc["functional"])),
        theta=_theta(doc.get("theta")),
        k=doc["k"],
        grid=grid,
        inner_chains=_require(mc, "M", "mc"),
        replicates=_require(mc, "R", "mc"),
        delta=delta,
        seed=doc["seed"],
        use_tilde=compare.get("tilde", False),
        compare_plugin=compare.get("plugin", False),
        timing=doc.get("timing", "wall"),
    )
    # a null or "auto" delta reaches cfg as its default None, so only the
    # document shows that the key was given
    if "delta" in doc and not cfg.use_tilde:
        raise ConfigError("delta: only surrogate chains (compare.tilde) are truncated")
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

"""Run configuration: schema, validation, defaults, and canonical hashing.

Configs are plain JSON documents. Validation errors always raise
ConfigInvalid with the dotted path of the offending field in the message, so
a missing "alpha" is reported as exactly that, and so is a key that the
domain, model, solver or output section does not define. The canonical form
(defaults filled, keys sorted) is what gets hashed and echoed into every
output file; two configs with the same canonical form produce the same
config_hash.

A solver.K that a config sets, for any task, must be at least the interior
node count of the domain at each lambda the task runs (sweep.lambdas, else
domain.lambda); a grid too coarse to build is left to the task to report.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .domain import SHAPE_PARAMS, build_domain
from .errors import ConfigInvalid, EmptyMask

SCHEMA_VERSION = 1

TASKS = ("solve", "sweep-lambda", "multiplicity", "verify-extension", "morse", "report")


def default_config(task: str = "solve") -> dict:
    """Built-in disk configuration; annulus tasks swap in an annulus domain."""
    domain = {"shape": "disk", "params": {"R": 1.0}, "lambda": 1.0, "h": 0.1}
    if task in ("multiplicity", "sweep-lambda"):
        domain = {"shape": "annulus", "params": {"R": 1.0, "r": 0.4}, "lambda": 4.0, "h": 0.25}
    cfg = {
        "task": task,
        "domain": domain,
        "model": {"alpha": 0.5, "p": 2.0, "theta": 3.0, "q": 3.5},
        "solver": {"K": None, "tol": 1e-8, "max_iter": 20000, "n_starts": 4, "rng_seed": 0},
        "output": {"dump_fields": False},
    }
    if task == "sweep-lambda":
        cfg["sweep"] = {"lambdas": [2.0, 4.0], "radii": [1.0, 2.0, 4.0]}
    return cfg


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: each field is a checked value, defaults filled.

    canonical is the JSON-ready dict of those values that every output file
    echoes; config_hash, the sha256 of its serialization, is stamped into
    all outputs. lambdas and radii are empty except for sweep-lambda.
    """

    task: str
    shape: str
    params: dict
    lam: float
    h: float
    alpha: float
    p: float
    theta: float
    q: float
    K: int | None
    tol: float
    max_iter: int
    n_starts: int
    rng_seed: int
    dump_fields: bool
    lambdas: tuple[float, ...]
    radii: tuple[float, ...]

    @cached_property
    def canonical(self) -> dict:
        doc = {
            "task": self.task,
            "domain": {"shape": self.shape, "params": dict(self.params),
                       "lambda": self.lam, "h": self.h},
            "model": {"alpha": self.alpha, "p": self.p, "theta": self.theta, "q": self.q},
            "solver": {"K": self.K, "tol": self.tol, "max_iter": self.max_iter,
                       "n_starts": self.n_starts, "rng_seed": self.rng_seed},
            "output": {"dump_fields": self.dump_fields},
        }
        if self.task == "sweep-lambda":
            doc["sweep"] = {"lambdas": list(self.lambdas), "radii": list(self.radii)}
        return doc

    @cached_property
    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.canonical).encode()).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigInvalid(f"missing required field {path}{key!r}" if not path
                            else f"missing required field \"{path}.{key}\"")
    return mapping[key]


def _number(mapping: dict, key: str, path: str, lo=None, hi=None):
    return _finite(_require(mapping, key, path), f"{path}.{key}", lo, hi)


def _finite(v, field: str, lo=None, hi=None) -> float:
    """v as a float in the open interval (lo, hi), else ConfigInvalid naming field."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigInvalid(f"field \"{field}\" must be a finite number, got {v!r}")
    v = float(v)
    if lo is not None and v <= lo:
        raise ConfigInvalid(f"field \"{field}\" must be > {lo}, got {v}")
    if hi is not None and v >= hi:
        raise ConfigInvalid(f"field \"{field}\" must be < {hi}, got {v}")
    return v


def _integer(mapping: dict, key: str, path: str, lo: int) -> int:
    v = _require(mapping, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"field \"{path}.{key}\" must be an integer, got {v!r}")
    if v < lo:
        raise ConfigInvalid(f"field \"{path}.{key}\" must be >= {lo}, got {v}")
    return v


def _object(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigInvalid(f"field \"{path}\" must be an object")
    return v


def _known(given: dict, name: str) -> dict:
    """The config's section name, given, once each of its keys is checked to be
    a field of the default section; ConfigInvalid names the first that is not."""
    fields = default_config()[name]
    for key in given:
        if key not in fields:
            raise ConfigInvalid(f"unknown field \"{name}.{key}\"")
    return given


def _section(raw: dict, name: str) -> dict:
    """raw[name] over the default section; a key the default lacks is rejected."""
    return {**default_config()[name], **_known(_object(raw.get(name, {}), name), name)}


def validate_config(raw: dict, task: str | None = None) -> RunConfig:
    """Validate a raw config dict, fill defaults, and freeze the canonical form.

    task, when given, is the subcommand the user invoked; a conflicting task
    inside the document is a validation error rather than a silent override.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config root must be a JSON object, got {type(raw).__name__}")

    doc_task = raw.get("task")
    if doc_task is not None and doc_task not in TASKS:
        raise ConfigInvalid(f"field \"task\" must be one of {list(TASKS)}, got {doc_task!r}")
    if task is not None and doc_task is not None and task != doc_task:
        raise ConfigInvalid(
            f"field \"task\" is {doc_task!r} but the {task!r} subcommand was invoked"
        )
    eff_task = task or doc_task
    if eff_task is None:
        raise ConfigInvalid("missing required field \"task\"")

    known = {"task", "domain", "model", "solver", "sweep", "output"}
    for key in raw:
        if key not in known:
            raise ConfigInvalid(f"unknown field {key!r} (known: {sorted(known)})")

    dom_raw = _known(_object(_require(raw, "domain", ""), "domain"), "domain")
    shape = _require(dom_raw, "shape", "domain")
    if not isinstance(shape, str) or shape not in SHAPE_PARAMS:
        raise ConfigInvalid(
            f"field \"domain.shape\" must be one of {sorted(SHAPE_PARAMS)}, got {shape!r}"
        )
    params_raw = _object(_require(dom_raw, "params", "domain"), "domain.params")
    expected = SHAPE_PARAMS[shape]
    if set(params_raw) != set(expected):
        raise ConfigInvalid(
            f"field \"domain.params\" for {shape!r} must have keys {list(expected)}, "
            f"got {sorted(params_raw)}"
        )
    params = {k: _number(params_raw, k, "domain.params", lo=0.0) for k in expected}
    if shape == "annulus" and params["r"] >= params["R"]:
        raise ConfigInvalid(
            f"field \"domain.params.r\" must be < R, got r={params['r']} R={params['R']}"
        )
    lam = _number(dom_raw, "lambda", "domain", lo=0.0)
    h = _number(dom_raw, "h", "domain", lo=0.0)

    model_raw = _known(_object(_require(raw, "model", ""), "model"), "model")
    alpha = _number(model_raw, "alpha", "model", lo=0.0, hi=1.0)
    # subcritical growth: p + 1 below the critical exponent 2N/(N - 2 alpha), N = 2
    p = _number(model_raw, "p", "model", lo=1.0, hi=(1.0 + alpha) / (1.0 - alpha))
    theta = _number(model_raw, "theta", "model", lo=2.0)
    q = _number(model_raw, "q", "model", lo=2.0)

    solver = _section(raw, "solver")
    K = solver["K"]
    if K is not None:
        K = _integer(solver, "K", "solver", lo=1)
    tol = _number(solver, "tol", "solver", lo=0.0)
    max_iter = _integer(solver, "max_iter", "solver", lo=1)
    n_starts = _integer(solver, "n_starts", "solver", lo=1)
    rng_seed = _integer(solver, "rng_seed", "solver", lo=0)

    dump_fields = _section(raw, "output")["dump_fields"]
    if not isinstance(dump_fields, bool):
        raise ConfigInvalid(f"field \"output.dump_fields\" must be a bool, got {dump_fields!r}")

    lambdas, radii = [], []
    if eff_task == "sweep-lambda":
        if raw.get("sweep") is None:
            raise ConfigInvalid("missing required field \"sweep\" for task sweep-lambda")
        sweep_raw = _object(raw["sweep"], "sweep")
        lambdas = sweep_raw.get("lambdas")
        if not isinstance(lambdas, list) or len(lambdas) < 2:
            raise ConfigInvalid("field \"sweep.lambdas\" must be a list of at least 2 values")
        lambdas = [_finite(x, f"sweep.lambdas[{i}]", lo=0.0) for i, x in enumerate(lambdas)]
        # run_sweep reads the localization threshold off the rows in this order
        if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
            raise ConfigInvalid(
                f"field \"sweep.lambdas\" must be strictly increasing, got {lambdas}")
        radii = sweep_raw.get("radii", default_config("sweep-lambda")["sweep"]["radii"])
        if not isinstance(radii, list) or len(radii) < 3:
            raise ConfigInvalid("field \"sweep.radii\" must be a list of at least 3 radii")
        radii = [_finite(x, f"sweep.radii[{i}]", lo=0.0) for i, x in enumerate(radii)]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigInvalid(f"field \"sweep.radii\" must be strictly increasing, got {radii}")
    elif "sweep" in raw:
        raise ConfigInvalid(f"field \"sweep\" is only valid for task sweep-lambda, not {eff_task!r}")

    if eff_task == "multiplicity" and shape != "annulus":
        raise ConfigInvalid(
            f"field \"domain.shape\" must be \"annulus\" for task multiplicity, got {shape!r}"
        )

    if K is not None:
        for at in lambdas or [lam]:
            try:
                n = build_domain(shape, params, lam=at, h=h).n_interior
            except EmptyMask:
                continue  # the task reports a grid with too few nodes itself
            if K < n:
                raise ConfigInvalid(
                    f"field \"solver.K\" must be null or at least the {n} interior "
                    f"nodes of the {shape} at lambda={at:g}, got {K}"
                )

    return RunConfig(
        task=eff_task, shape=shape, params=params, lam=lam, h=h,
        alpha=alpha, p=p, theta=theta, q=q,
        K=K, tol=tol, max_iter=max_iter, n_starts=n_starts, rng_seed=rng_seed,
        dump_fields=dump_fields, lambdas=tuple(lambdas), radii=tuple(radii),
    )


def load_config(path: str | Path | None, task: str | None = None,
                seed: int | None = None) -> RunConfig:
    """Read and validate a config file; None falls back to the built-in default.

    seed, when given, overrides solver.rng_seed before canonicalization so the
    hash reflects what actually ran.
    """
    if path is None:
        raw = default_config(task or "solve")
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigInvalid(f"config file {p} does not exist")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config file {p} is not valid JSON: {exc}") from exc
    # validate_config names a root or solver that is not an object
    if seed is not None and isinstance(raw, dict) and isinstance(raw.get("solver", {}), dict):
        raw["solver"] = {**raw.get("solver", {}), "rng_seed": seed}
    return validate_config(raw, task=task)

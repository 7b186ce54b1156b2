"""Problem files, sequence files, and analysis reports.

Problem files are JSON objects with keys ``a``, ``b``, ``X0`` and optional
``name``/``description`` metadata; numbers may be given as decimal strings
for exactness (they are parsed to binary floats).  Bare matrices can come
from CSV, with the marginals supplied separately.  Matrix-sequence files are
either a JSON array of 2-D arrays or a generator spec
``{"family": "mr" | "t0t1" | "birkhoff", ...}``.

Analysis reports embed the tool version, the fully resolved configuration,
and the input itself, so every numeric claim in a report can be recomputed
from the report alone; :func:`verify_report` re-checks the embedded
certificates from scratch.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, engine, products, structure
from .core import FittingProblem, support_of
from .engine import StoppingRule
from .errors import InputError

#: Seed used when neither the CLI flag nor BIPFIT_SEED is given.
DEFAULT_SEED = 0


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file (problems and sequences)."""
    return Path(str(resources.files("bipfit").joinpath("data", name)))


# ---------------------------------------------------------------------------
# numbers and JSON helpers


def _as_number(value, where: str) -> float:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise InputError(f"{where}: integer too large for a float") from None
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise InputError(f"{where}: {value!r} is not a decimal number") from None
    raise InputError(f"{where}: expected a number or decimal string, got {type(value).__name__}")


def _as_vector(values, where: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{where}: expected a list of numbers")
    return np.array([_as_number(v, f"{where}[{k}]") for k, v in enumerate(values)])


def _as_matrix(values, where: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError(f"{where}: expected a non-empty list of rows")
    # plain numbers in equal rows convert in one call; anything else (decimal
    # strings, booleans, ragged rows, overflow) goes element by element, so
    # values and error messages are the same either way
    first = values[0]
    if (all(type(row) is list and len(row) == len(first) for row in values)
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        try:
            return np.array(values, dtype=float)
        except OverflowError:
            pass
    rows = [_as_vector(row, f"{where}[{k}]") for k, row in enumerate(values)]
    width = {r.size for r in rows}
    if len(width) != 1:
        raise InputError(f"{where}: rows have inconsistent lengths {sorted(width)}")
    return np.vstack(rows)


def jsonify(obj):
    """Recursively convert package objects into JSON-encodable structures.

    Numpy arrays become nested lists, enums their values, dataclasses dicts;
    non-finite floats are encoded as the strings ``"inf"``, ``"-inf"``,
    ``"nan"`` since JSON has no spelling for them.
    """
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return jsonify(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


#: Types the C encoder writes exactly as ``json.dumps(jsonify(x), indent=2)``
#: does, apart from non-finite floats (refused there by ``allow_nan=False``).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def dumps(obj) -> str:
    """``json.dumps(jsonify(obj), indent=2)``, byte for byte, but faster.

    Dicts and lists are walked here; a list of plain JSON scalars (a matrix
    row, a vector) is written by the C encoder in one call, its separators
    carrying the newline and indentation.  Everything else, and any list
    holding a non-finite float, goes through :func:`jsonify`.
    """
    parts: list[str] = []
    _write(obj, "\n", parts)
    return "".join(parts)


def _write(obj, newline: str, parts: list[str]) -> None:
    kind = type(obj)
    if kind not in (dict, list, tuple):
        obj = jsonify(obj)
        kind = type(obj)
        if kind not in (dict, list):
            parts.append(json.dumps(obj))
            return
    if not obj:
        parts.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        # keys as jsonify makes them: str(key), the last of equal keys wins
        for key, value in {str(k): v for k, v in obj.items()}.items():
            parts.append(sep + json.dumps(key) + ": ")
            _write(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
        return
    if set(map(type, obj)) <= _JSON_SCALARS:
        try:
            body = json.dumps(obj, separators=("," + inner, ": "), allow_nan=False)
        except ValueError:  # a non-finite float: write item by item below
            pass
        else:
            parts.append("[" + inner + body[1:-1] + newline + "]")
            return
    sep = "[" + inner
    for value in obj:
        parts.append(sep)
        _write(value, inner, parts)
        sep = "," + inner
    parts.append(newline + "]")


def _load_json(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


# ---------------------------------------------------------------------------
# problem files


def problem_from_dict(data, where: str = "problem") -> tuple[FittingProblem, dict]:
    """Build a validated problem from a parsed JSON object.

    Returns the problem and a metadata dict (whatever of ``name`` and
    ``description`` was present).
    """
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object")
    for key in ("a", "b", "X0"):
        if key not in data:
            raise InputError(f"{where}: missing required field {key!r}")
    a = _as_vector(data["a"], f"{where}.a")
    b = _as_vector(data["b"], f"{where}.b")
    x0 = _as_matrix(data["X0"], f"{where}.X0")
    try:
        problem = FittingProblem(x0, a, b)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    meta = {k: data[k] for k in ("name", "description") if k in data}
    return problem, meta


def problem_to_dict(problem: FittingProblem, **meta) -> dict:
    out = {
        "a": problem.a.tolist(),
        "b": problem.b.tolist(),
        "X0": problem.x0.tolist(),
    }
    out.update({k: v for k, v in meta.items() if v is not None})
    return out


def load_problem(path, a=None, b=None) -> tuple[FittingProblem, dict]:
    """Load a problem from JSON, or from a CSV matrix plus explicit marginals.

    ``a``/``b`` (sequences or comma-separated strings) are required with CSV
    input and rejected with JSON input.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if a is None or b is None:
            raise InputError(
                "CSV input carries only the matrix; marginals must be passed "
                "via --a and --b"
            )
        try:
            x0 = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot parse CSV matrix {path}: {exc}") from exc
        try:
            return FittingProblem(x0, _parse_marginal_arg(a), _parse_marginal_arg(b)), {}
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if a is not None or b is not None:
        raise InputError("--a/--b are only meaningful with CSV input")
    return problem_from_dict(_load_json(path), where=str(path))


def _parse_marginal_arg(value) -> np.ndarray:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return np.array([_as_number(p.strip(), "marginal") for p in parts])
    return _as_vector(list(value), "marginal")


# ---------------------------------------------------------------------------
# matrix-sequence files


def sequence_from_spec(spec, seed: int | None = None) -> list[np.ndarray] | np.ndarray:
    """Materialize a sequence file: explicit arrays or a generator spec.

    A ``birkhoff`` spec gives one ``(count, dim, dim)`` array, every other
    input a list of matrices.
    """
    if isinstance(spec, list):
        return [_as_matrix(m, f"sequence[{k}]") for k, m in enumerate(spec)]
    if not isinstance(spec, dict):
        raise InputError("sequence file must be a JSON array of matrices or a generator spec")
    family = str(spec.get("family", "")).lower()
    count = spec.get("count")
    if not isinstance(count, int) or count < 1:
        raise InputError("generator spec needs an integer 'count' >= 1")
    if family == "mr":
        r_values = spec.get("r_values")
        if r_values is not None:
            r_values = [_as_number(r, "r_values") for r in r_values]
        return products.mr_sequence(count, r_values)
    if family == "t0t1":
        return products.t0t1_sequence(count)
    if family == "birkhoff":
        dim = spec.get("dim", 3)
        if not isinstance(dim, int) or dim < 2:
            raise InputError("birkhoff spec needs integer 'dim' >= 2")
        gamma = _as_number(spec.get("gamma", 0.0), "gamma")
        n_perms = spec.get("n_perms")
        if n_perms is not None and not isinstance(n_perms, int):
            raise InputError("birkhoff spec needs integer 'n_perms' >= dim")
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        try:
            return products._random_doubly_stochastic_stack(count, dim, rng, gamma=gamma,
                                                            n_perms=n_perms)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    raise InputError(f"unknown generator family {spec.get('family')!r}; "
                     "expected one of mr, t0t1, birkhoff")


def load_sequence(path, seed: int | None = None) -> list[np.ndarray] | np.ndarray:
    return sequence_from_spec(_load_json(path), seed=seed)


# ---------------------------------------------------------------------------
# analysis reports


def _resolved_config(rule: StoppingRule) -> dict:
    return {
        "tol_marginal": rule.tol_marginal,
        "tol_even_odd": rule.tol_even_odd,
        "max_iters": rule.max_iters,
        "feas_tol": structure.FEAS_TOL,
        "crit_tol": structure.CRIT_TOL,
        "witness_tol": structure.WITNESS_TOL,
        "cluster_gap": structure.CLUSTER_GAP,
    }


def build_report(problem: FittingProblem, rule: StoppingRule | None = None,
                 meta: dict | None = None) -> dict:
    """Full structural analysis of one problem, as a JSON-ready dict.

    Contains the classification with certificates, the block structure and
    adjusted marginals, the limit support and both limit points, the engine
    run statistics, the agreement between predicted and iterated limits, and
    which incompatibility causes turn critical under the adjusted marginals.
    """
    if rule is None:
        rule = StoppingRule()
    cls = structure.classify(problem)
    lp = structure.limit_points(problem)
    bs = lp.blocks
    trace = engine.run(problem, rule)
    report = {
        "tool": {"name": "bipfit", "version": __version__},
        "config": _resolved_config(rule),
        "problem": problem_to_dict(problem, **(meta or {})),
        "classification": {
            "behavior": cls.behavior.value,
            "causes": [jsonify(cls.cause)] if cls.cause else [],
            "max_support": jsonify(cls.max_support),
            "witness": jsonify(cls.witness),
        },
        "block_structure": {
            "r": bs.r,
            "row_blocks": [list(blk) for blk in bs.row_blocks],
            "col_blocks": [list(blk) for blk in bs.col_blocks],
            "lambdas": bs.lambdas.tolist(),
            "a_prime": bs.a_prime.tolist(),
            "b_prime": bs.b_prime.tolist(),
        },
        "sigma": jsonify(lp.sigma),
        "limits": {
            "even": lp.even_limit.tolist(),
            "odd": lp.odd_limit.tolist(),
        },
        "engine": {
            "stop_reason": trace.stop_reason.value,
            "iterations": trace.n_iters,
            "final_marginal_error": float(trace.errors[-1]),
            "even_limit_estimate": trace.even_limit().tolist(),
            "agreement_even_l1": float(np.abs(trace.even_limit() - lp.even_limit).sum()),
            "agreement_odd_l1": (
                float(np.abs(trace.odd_limit() - lp.odd_limit).sum())
                if trace.last_odd is not None else None
            ),
        },
        "criticality_under_adjusted": _criticality_transfer(problem, bs),
        "escaped_cells": _escape_summary(problem, lp, trace),
    }
    return report


def _criticality_transfer(problem: FittingProblem, bs: structure.BlockStructure) -> list[dict]:
    """Original incompatibility causes that turn critical under ``(a', b)``.

    For each cut point k the union of the first k row blocks against the
    columns of the later blocks is a zero block; under the original
    marginals it over-demands (ratio > 1), under the adjusted ones it is
    exactly tight.
    """
    out = []
    b = problem.b
    a = problem.a
    for k in range(bs.r - 1):
        rows = [i for blk in bs.row_blocks[: k + 1] for i in blk]
        cols = [j for blk in bs.col_blocks[k + 1:] for j in blk]
        comp = [j for blk in bs.col_blocks[: k + 1] for j in blk]
        a_rows = float(a[rows].sum())
        ap_rows = float(bs.a_prime[rows].sum())
        b_comp = float(b[comp].sum())
        out.append(
            {
                "rows": sorted(rows),
                "cols": sorted(cols),
                "original_ratio": a_rows / b_comp,
                "adjusted_rows_mass": ap_rows,
                "complement_cols_mass": b_comp,
                "is_critical_under_adjusted": bool(
                    abs(ap_rows - b_comp) <= structure.CRIT_TOL * max(1.0, ap_rows)
                ),
            }
        )
    return out


def _escape_summary(problem: FittingProblem, lp: structure.LimitPair,
                    trace: engine.IterationTrace) -> list[dict]:
    cells = [tuple(c) for c in np.argwhere(problem.support & ~lp.sigma)]
    if not cells:
        return []
    return engine.escape_diagnostic(trace, cells)


def save_report(report: dict, path) -> None:
    Path(path).write_text(dumps(report) + "\n")


def load_report(path, verify: bool = True) -> dict:
    report = _load_json(path)
    if verify:
        verify_report(report)
    return report


def verify_report(report: dict) -> None:
    """Re-verify the certificates embedded in an analysis report.

    Rebuilds the problem from the embedded input and checks every cause
    (zero block, mass comparison), the witness marginals, the monotone block
    scalings, and the limit marginals.  Raises :class:`InputError` on any
    mismatch.
    """
    if not isinstance(report, dict) or "problem" not in report:
        raise InputError("not an analysis report: missing 'problem'")
    problem, _ = problem_from_dict(report["problem"], where="report.problem")
    a, b, supp = problem.a, problem.b, problem.support

    cls = report.get("classification", {})
    for cause in cls.get("causes", []):
        rows = np.asarray(cause["rows"], dtype=int)
        cols = np.asarray(cause["cols"], dtype=int)
        if supp[np.ix_(rows, cols)].any():
            raise InputError("report cause block is not a zero block of the seed")
        gap = float(a[rows].sum() - np.delete(b, cols).sum())
        if cause["kind"] == "Incompatibility" and gap <= 0:
            raise InputError("report incompatibility cause does not over-demand")
    witness = cls.get("witness")
    if witness is not None:
        w = _as_matrix(witness, "report.witness")
        if (np.abs(w.sum(axis=1) - a).max() > 1e-8
                or np.abs(w.sum(axis=0) - b).max() > 1e-8):
            raise InputError("report witness does not have the target marginals")
        if np.any(support_of(w) & ~supp):
            raise InputError("report witness puts mass outside the seed support")

    bs = report.get("block_structure")
    if bs:
        lambdas = np.asarray(bs["lambdas"], dtype=float)
        if np.any(np.diff(lambdas) <= 0):
            raise InputError("report block scalings are not strictly increasing")
        a_prime = np.asarray(bs["a_prime"], dtype=float)
        for lam, blk in zip(lambdas, bs["row_blocks"]):
            if np.abs(a_prime[list(blk)] - lam * a[list(blk)]).max() > 1e-10:
                raise InputError("report a' is inconsistent with its lambdas")

    limits = report.get("limits")
    if limits and bs:
        even = _as_matrix(limits["even"], "report.limits.even")
        odd = _as_matrix(limits["odd"], "report.limits.odd")
        a_prime = np.asarray(bs["a_prime"], dtype=float)
        b_prime = np.asarray(bs["b_prime"], dtype=float)
        checks = (
            (np.abs(even.sum(axis=1) - a_prime).max(), "even limit rows vs a'"),
            (np.abs(even.sum(axis=0) - b).max(), "even limit cols vs b"),
            (np.abs(odd.sum(axis=1) - a).max(), "odd limit rows vs a"),
            (np.abs(odd.sum(axis=0) - b_prime).max(), "odd limit cols vs b'"),
        )
        for dev, label in checks:
            if dev > 1e-7:
                raise InputError(f"report {label} deviate by {dev:g}")

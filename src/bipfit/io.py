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
import functools
import json
import math
from enum import Enum
from importlib import resources
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import __version__, _certify, engine, products, structure
from .core import FittingProblem
from .engine import StoppingRule
from .errors import InputError, InternalCheckError

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
    if isinstance(values, np.ndarray):  # a report built in memory
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{where}: expected a list of numbers")
    return np.array([_as_number(v, f"{where}[{k}]") for k, v in enumerate(values)])


def _as_matrix(values, where: str) -> np.ndarray:
    if isinstance(values, np.ndarray):
        values = values.tolist()
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


#: How ``json.dumps`` writes a scalar of each exact type that :func:`jsonify`
#: leaves (its floats are finite).  The C encoder writes a list of these
#: types the same way, apart from non-finite floats, which ``allow_nan=False``
#: refuses there.
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@functools.cache
def _row_encoder(inner: str):
    """The C encoder's ``encode``, a row's items separated by ``"," + inner``."""
    return json.JSONEncoder(separators=("," + inner, ": "), allow_nan=False).encode


def dumps(obj) -> str:
    """``json.dumps(jsonify(obj), indent=2)``, byte for byte, but faster.

    Dicts and lists are walked here and scalars written from :data:`_LEAVES`;
    a list of plain JSON scalars (a matrix row, a vector) is written by the
    C encoder in one call, its separators carrying the newline and
    indentation.  A sparse 2-D float or bool array is written from its
    nonzero cells (:func:`_write_sparse`).  Everything else, and any list
    holding a non-finite float, goes through :func:`jsonify`.
    """
    parts: list[str] = []
    _write(obj, "\n", parts)
    return "".join(parts)


#: A 2-D array is written from its nonzeros when at most this share of its
#: cells is nonzero.  Above it, formatting every cell in the C encoder is
#: faster: on 400x400 and 1000x1000 float arrays the two paths cross near a
#: share of 0.4, and the nonzero path is ~1.5x slower on a dense one.
_SPARSE_SHARE = 1 / 3

#: How ``json.dumps`` spells the zero cell of each dtype the sparse path takes.
_ZERO_LITERALS = {np.dtype(float): "0.0", np.dtype(bool): "false"}


def _write_sparse(m: np.ndarray, newline: str, parts: list[str]) -> bool:
    """Write a sparse 2-D float or bool array the way the row path would.

    Every cell starts as the zero literal; only the nonzero cells (``-0.0``
    included) are formatted, with ``float.__repr__`` as the C encoder does.
    Returns False, having written nothing, for any other array: another
    dtype or rank, no cells, too many nonzeros, or a non-finite value.
    """
    zero = _ZERO_LITERALS.get(m.dtype)
    if zero is None or m.ndim != 2 or not m.size:
        return False
    flat = m.ravel()
    if np.count_nonzero(flat) > _SPARSE_SHARE * flat.size:
        return False
    if m.dtype == bool:
        nonzero = np.flatnonzero(flat)
        texts = repeat("true")
    else:
        nonzero = np.flatnonzero((flat != 0) | np.signbit(flat))
        values = flat[nonzero]
        if not np.isfinite(values).all():
            return False
        texts = map(float.__repr__, values.tolist())
    # each cell carries what follows it: the next cell's indentation, at the
    # end of a row the brackets closing it and opening the next, and at the
    # last cell the brackets closing the matrix
    inner = newline + "  "
    width = m.shape[1]
    cells = [zero + "," + inner + "  "] * flat.size
    cells[width - 1::width] = [zero + inner + "]," + inner + "[" + inner + "  "] * m.shape[0]
    cells[-1] = zero + inner + "]" + newline + "]"
    cut = len(zero)
    for k, text in zip(nonzero.tolist(), texts):
        cells[k] = text + cells[k][cut:]
    parts.append("[" + inner + "[" + inner + "  ")
    parts.append("".join(cells))
    return True


def _write(obj, newline: str, parts: list[str]) -> None:
    kind = type(obj)
    if kind is np.ndarray and _write_sparse(obj, newline, parts):
        return
    if kind not in (dict, list, tuple):
        obj = jsonify(obj)
        kind = type(obj)
        if kind not in (dict, list):
            leaf = _LEAVES.get(kind)
            # any other type goes to json.dumps, which raises on what it cannot write
            parts.append(leaf(obj) if leaf else json.dumps(obj))
            return
    if not obj:
        parts.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        # keys as jsonify makes them: str(key), the last of equal keys wins
        for key, value in {str(k): v for k, v in obj.items()}.items():
            parts.append(sep + _quote(key) + ": ")
            _write(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
        return
    if set(map(type, obj)) <= _LEAVES.keys():
        try:
            body = _row_encoder(inner)(obj)
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
    for key, value in meta.items():
        if not isinstance(value, str):
            raise InputError(f"{where}.{key}: expected a string, got {type(value).__name__}")
    return problem, meta


def problem_to_dict(problem: FittingProblem, **meta) -> dict:
    return jsonify(_problem_fields(problem, meta))


def _problem_fields(problem: FittingProblem, meta: dict) -> dict:
    """A problem file's fields, arrays kept as they are for :func:`dumps`."""
    out = {"a": problem.a, "b": problem.b, "X0": problem.x0}
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
    if type(count) is not int or count < 1:  # JSON true is no count
        raise InputError("generator spec needs an integer 'count' >= 1")
    if family == "mr":
        r_values = spec.get("r_values")
        if r_values is not None:
            if not isinstance(r_values, list):
                raise InputError("mr spec needs 'r_values' as a list of numbers")
            r_values = [_as_number(r, "r_values") for r in r_values]
        try:
            return products.mr_sequence(count, r_values)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if family == "t0t1":
        return products.t0t1_sequence(count)
    if family == "birkhoff":
        dim = spec.get("dim", 3)
        if type(dim) is not int or dim < 2:
            raise InputError("birkhoff spec needs integer 'dim' >= 2")
        gamma = _as_number(spec.get("gamma", 0.0), "gamma")
        n_perms = spec.get("n_perms")
        if n_perms is not None and type(n_perms) is not int:
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
    """Full structural analysis of one problem, arrays at its leaves.

    Contains the classification with certificates, the block structure and
    adjusted marginals, the limit support and both limit points, the engine
    run statistics, the agreement between predicted and iterated limits, and
    which incompatibility causes turn critical under the adjusted marginals.
    :func:`dumps` or :func:`save_report` writes it; :func:`jsonify` turns it
    into plain JSON types.
    """
    if rule is None:
        rule = StoppingRule()
    lp = structure.limit_points(problem)
    bs = lp.blocks
    trace = engine.run(problem, rule)
    even_estimate, last_odd = trace.even_limit(), trace.last_odd
    report = {
        "tool": {"name": "bipfit", "version": __version__},
        "config": _resolved_config(rule),
        "problem": _problem_fields(problem, meta or {}),
        "classification": _classification_fields(lp.classification),
        "block_structure": {
            "r": bs.r,
            "row_blocks": [list(blk) for blk in bs.row_blocks],
            "col_blocks": [list(blk) for blk in bs.col_blocks],
            "lambdas": bs.lambdas,
            "a_prime": bs.a_prime,
            "b_prime": bs.b_prime,
        },
        "sigma": lp.sigma,
        "limits": {
            "even": lp.even_limit,
            "odd": lp.odd_limit,
        },
        "engine": {
            "stop_reason": trace.stop_reason.value,
            "iterations": trace.n_iters,
            "final_marginal_error": float(trace.errors[-1]),
            "even_limit_estimate": even_estimate,
            "agreement_even_l1": float(np.abs(even_estimate - lp.even_limit).sum()),
            "agreement_odd_l1": (None if last_odd is None
                                 else float(np.abs(last_odd[1] - lp.odd_limit).sum())),
        },
        "criticality_under_adjusted": _criticality_transfer(
            problem.a, problem.b, bs.row_blocks, bs.col_blocks, bs.a_prime),
        "escaped_cells": engine.escape_diagnostic(
            trace, np.argwhere(problem.support & ~lp.sigma)),
    }
    return report


def _classification_fields(cls: structure.Classification) -> dict:
    """The verdict and its certificates as reports print them, matrices as arrays."""
    return {
        "behavior": cls.behavior.value,
        "causes": [jsonify(cls.cause)] if cls.cause else [],
        "max_support": cls.max_support,
        "witness": cls.witness,
    }


def _criticality_transfer(a, b, row_blocks, col_blocks, a_prime) -> list[dict]:
    """Original incompatibility causes that turn critical under ``(a', b)``.

    For each cut point k the union of the first k row blocks against the
    columns of the later blocks is a zero block; under the original
    marginals it over-demands (ratio > 1), under the adjusted ones it is
    exactly tight.  The blocks are sequences of indices, in block order.
    """
    out = []
    for k in range(len(row_blocks) - 1):
        rows = [i for blk in row_blocks[: k + 1] for i in blk]
        cols = [j for blk in col_blocks[k + 1:] for j in blk]
        comp = [j for blk in col_blocks[: k + 1] for j in blk]
        a_rows = float(a[rows].sum())
        ap_rows = float(a_prime[rows].sum())
        b_comp = float(b[comp].sum())
        out.append(
            {
                "rows": sorted(map(int, rows)),
                "cols": sorted(map(int, cols)),
                "original_ratio": a_rows / b_comp,
                "adjusted_rows_mass": ap_rows,
                "complement_cols_mass": b_comp,
                "is_critical_under_adjusted": _certify.tight(ap_rows, b_comp),
            }
        )
    return out


def save_report(report: dict, path) -> None:
    """Write ``dumps(report)`` and a newline to ``path``, opened once the text is made."""
    try:
        Path(path).write_text(dumps(report) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def load_report(path, verify: bool = True) -> dict:
    report = _load_json(path)
    if verify:
        verify_report(report)
    return report


def verify_report(report: dict) -> None:
    """Re-verify the certificates embedded in an analysis report.

    Takes a loaded report or one built in memory by :func:`build_report`,
    reads its fields into arrays and checks them by the rules the library
    checks its own results with (``bipfit._certify``): the verdict, causes,
    witness, maximal support, blocks, ``sigma``, limits, engine summary,
    ``criticality_under_adjusted`` and ``escaped_cells``.  Every section
    :func:`build_report` writes but ``tool`` is required.  Raises
    :class:`InputError` on any mismatch, and on a missing, null or malformed
    field, naming it.
    """
    try:
        _verify_report(report)
    except InternalCheckError as exc:
        raise InputError(f"report {exc}") from exc


def _verify_report(report: dict) -> None:
    if not isinstance(report, dict) or "problem" not in report:
        raise InputError("not an analysis report: missing 'problem'")
    problem, _ = problem_from_dict(report["problem"], where="report.problem")
    a, b, supp = problem.a, problem.b, problem.support
    p, q = supp.shape

    cls, where = _field(report, "classification", "report", dict), "report.classification"
    behavior = _field(cls, "behavior", where)
    if behavior not in [v.value for v in structure.Behavior]:
        raise InputError(f"{where}.behavior: unknown verdict {behavior!r}")
    parsed = []
    for k, cause in enumerate(_field(cls, "causes", where, list)):
        at = f"report cause {k}"
        rows = _indices(_field(cause, "rows", at), p, f"{at} rows")
        cols = _indices(_field(cause, "cols", at), q, f"{at} cols")
        kind = _field(cause, "kind", at)
        if kind not in [v.value for v in structure.CauseKind]:
            raise InputError(f"{at} kind: unknown kind {kind!r}")
        parsed.append((rows, cols, kind, _as_number(_field(cause, "ratio", at), f"{at} ratio")))
    witness, max_support = _field(cls, "witness", where), _field(cls, "max_support", where)
    if witness is not None:  # without one, a convergence verdict fails first
        witness = _report_matrix(witness, supp.shape, "report.witness")
        if behavior != "Divergence":  # a divergence must have no maximal support
            max_support = _report_mask(max_support, supp.shape, f"{where}.max_support")
    _certify.classification(a, b, supp, behavior, parsed, witness, max_support)

    bs, where = _field(report, "block_structure", "report", dict), "report.block_structure"
    lambdas = _as_vector(_field(bs, "lambdas", where), f"{where}.lambdas")
    partitions = [[_indices(blk, size, f"report {label} block {k}")
                   for k, blk in enumerate(_field(bs, key, where, list))]
                  for key, size, label in (("row_blocks", p, "row"), ("col_blocks", q, "column"))]
    a_prime, b_prime = (_report_vector(_field(bs, key, where), size, f"{where}.{key}")
                        for key, size in (("a_prime", p), ("b_prime", q)))
    _certify.blocks(a, b, supp, lambdas, *partitions, a_prime, b_prime)

    sigma = _report_mask(_field(report, "sigma", "report"), supp.shape, "report.sigma")
    _certify.support_mask(sigma, supp, "sigma")

    limits = _field(report, "limits", "report", dict)
    even, odd = (_report_matrix(_field(limits, key, "report.limits"), supp.shape,
                                f"report.limits.{key}") for key in ("even", "odd"))
    _certify.limits(a, b, sigma, a_prime, b_prime, even, odd)
    _certify.scaling_form(problem.x0, sigma, even, odd)

    entries = []
    for k, entry in enumerate(_field(report, "criticality_under_adjusted", "report", list)):
        at = f"report.criticality_under_adjusted[{k}]"
        got = {key: _indices(_field(entry, key, at), size, f"{at}.{key}").tolist()
               for key, size in (("rows", p), ("cols", q))}
        for key in ("original_ratio", "adjusted_rows_mass", "complement_cols_mass"):
            got[key] = _as_number(_field(entry, key, at), f"{at}.{key}")
        got["is_critical_under_adjusted"] = _field(entry, "is_critical_under_adjusted", at)
        entries.append(got)
    _certify.criticality(a, b, supp, a_prime, *partitions, entries)

    eng, config = (_field(report, key, "report", dict) for key in ("engine", "config"))
    where = "report.engine"
    iterations = _field(eng, "iterations", where)
    if type(iterations) is not int or iterations < 0:
        raise InputError(f"{where}.iterations: expected an integer >= 0")
    final = _as_number(_field(eng, "final_marginal_error", where), f"{where}.final_marginal_error")
    reason = _field(eng, "stop_reason", where)
    if reason not in [v.value for v in engine.StopReason]:
        raise InputError(f"{where}.stop_reason: unknown stop reason {reason!r}")
    max_iters = _field(config, "max_iters", "report.config")
    if type(max_iters) is not int:
        raise InputError("report.config.max_iters: expected an integer")
    tol = _as_number(_field(config, "tol_marginal", "report.config"), "report.config.tol_marginal")
    estimate = _report_matrix(_field(eng, "even_limit_estimate", where), supp.shape,
                              f"{where}.even_limit_estimate")
    agreement = _as_number(_field(eng, "agreement_even_l1", where), f"{where}.agreement_even_l1")
    _certify.engine(a, b, supp, even, estimate, iterations, agreement, final,
                    reason, max_iters, tol)

    where = "report.escaped_cells"
    cells, log_sums = [], []
    for k, entry in enumerate(_field(report, "escaped_cells", "report", list)):
        at = f"{where}[{k}]"
        cell = _field(entry, "cell", at)
        if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                and all(type(v) is int for v in cell)
                and 0 <= cell[0] < p and 0 <= cell[1] < q):
            raise InputError(f"{at}.cell: expected a row and a column index in range")
        log_sums.append(_as_number(_field(entry, "final_log_sum", at), f"{at}.final_log_sum"))
        if type(_field(entry, "still_growing", at)) is not bool:
            raise InputError(f"{at}.still_growing: expected a boolean")
        cells.append(list(cell))
    _certify.escaped_cells(problem.x0, supp, sigma, estimate, iterations, cells,
                           np.array(log_sums))


def _field(obj, key: str, where: str, kind: type | None = None):
    """A required field of a report object, a list or a JSON object if ``kind`` says so."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    if kind is not None and not isinstance(obj[key], kind):
        raise InputError(f"{where}.{key}: expected a {'list' if kind is list else 'JSON object'}")
    return obj[key]


def _report_vector(values, size: int, where: str) -> np.ndarray:
    v = _as_vector(values, where)
    if v.size != size:
        raise InputError(f"{where}: expected {size} entries, got {v.size}")
    return v


def _report_matrix(values, shape: tuple[int, int], where: str) -> np.ndarray:
    x = _as_matrix(values, where)
    if x.shape != shape:
        raise InputError(f"{where}: expected a {shape[0]}x{shape[1]} matrix, "
                         f"got {x.shape[0]}x{x.shape[1]}")
    return x


def _report_mask(values, shape: tuple[int, int], where: str) -> np.ndarray:
    """A ``p x q`` matrix of JSON booleans read from a report."""
    if isinstance(values, np.ndarray):  # a report built in memory
        values = values.tolist()
    if not (isinstance(values, list) and len(values) == shape[0] and all(
            isinstance(row, list) and len(row) == shape[1] and all(type(v) is bool for v in row)
            for row in values)):
        raise InputError(f"{where}: expected a {shape[0]}x{shape[1]} matrix of booleans")
    return np.array(values, dtype=bool)


def _indices(values, size: int, where: str) -> np.ndarray:
    """Row or column indices read from a report, each in range and none repeated."""
    if (not isinstance(values, list) or not all(type(v) is int and 0 <= v < size for v in values)
            or len(set(values)) < len(values)):
        raise InputError(f"{where}: expected indices in range(0, {size}), none repeated")
    return np.array(values, dtype=int)

"""File formats, analysis reports, and the command-line interface.

CLI tests drive :func:`bipfit.cli.main` in-process and assert on exit codes,
stdout JSON, and written artifacts; only the tests of ``python -m bipfit``,
of a closed output pipe, of the modules the commands import and of a whole
process's peak memory spawn a subprocess.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bipfit
import bipfit.cli as cli
from bipfit import _certify, engine, io, products, structure
from bipfit.core import FittingProblem, support_of
from bipfit.engine import StoppingRule
from bipfit.errors import InputError, InternalCheckError

import oracles

REPORT_TOL = 1e-10
PIPELINE_TOL = 1e-8


# ---------------------------------------------------------------------------
# problem files


def test_problem_dict_round_trip(grid_problem):
    data = io.problem_to_dict(grid_problem, name="grid", description="5x6 demo")
    back, meta = io.problem_from_dict(data)
    np.testing.assert_array_equal(back.x0, grid_problem.x0)
    np.testing.assert_array_equal(back.a, grid_problem.a)
    np.testing.assert_array_equal(back.b, grid_problem.b)
    assert meta == {"name": "grid", "description": "5x6 demo"}


def test_problem_from_dict_accepts_decimal_strings():
    data = {
        "a": ["0.5", "0.5"],
        "b": [0.25, "7.5e-1"],
        "X0": [["1", 1], [1, "0"]],
    }
    problem, meta = io.problem_from_dict(data)
    assert meta == {}
    # decimal strings parse through float(), so "0.5" lands on the exact
    # binary value of the literal 0.5
    np.testing.assert_array_equal(problem.a, [0.5, 0.5])
    np.testing.assert_array_equal(problem.b, [0.25, 0.75])
    assert problem.x0[1, 1] == 0.0


@pytest.mark.parametrize(
    "data, message",
    [
        ({"a": [0.5, 0.5], "b": [0.5, 0.5]}, "missing required field 'X0'"),
        ({"a": [0.5, True], "b": [0.5, 0.5], "X0": [[1, 1], [1, 0]]}, "boolean"),
        ({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [1]]}, "inconsistent lengths"),
        ({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [1, "x"]]}, "not a decimal number"),
        ({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [1, -2]]}, "negative"),
        ({"a": [1.0], "b": [1.0], "X0": [[10**400]]}, r"X0\[0\]\[0\]: integer too large"),
        ("not a dict", "expected a JSON object"),
        ({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [1, 0]], "name": 5},
         r"problem\.name: expected a string, got int"),
        ({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [1, 0]], "description": ["x"]},
         r"problem\.description: expected a string, got list"),
    ],
)
def test_problem_from_dict_rejections(data, message):
    with pytest.raises(InputError, match=message):
        io.problem_from_dict(data)


def _elementwise(values):
    """The matrix as ``float()`` of each entry, one at a time."""
    return np.array([[float(v) for v in row] for row in values])


def test_large_matrix_parses_like_elementwise():
    rng = np.random.default_rng(200)
    values = rng.exponential(size=(200, 200)).tolist()
    for i, j in rng.integers(0, 200, size=(4000, 2)):
        values[i][j] = int(rng.integers(0, 10**6))
    a = b = [0.005] * 200
    problem, _ = io.problem_from_dict({"a": a, "b": b, "X0": values})
    expected = FittingProblem(_elementwise(values), np.array(a), np.array(b)).x0
    assert problem.x0.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    values[3][:7] = [-0.0, -1, 2**53 + 1, 10**30, -(2**70), 5e-324, 1.7976931348623157e308]
    parsed = io._as_matrix(values, "m")
    assert parsed.dtype == np.float64 and parsed.shape == (200, 200)
    assert parsed.view(np.uint64).tolist() == _elementwise(values).view(np.uint64).tolist()


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, r"X0\[150\]\[7\]: expected a number, got a boolean"),
        ([1.0], r"X0\[150\]\[7\]: expected a number or decimal string, got list"),
        ("1,5", r"X0\[150\]\[7\]: '1,5' is not a decimal number"),
        (10**400, r"X0\[150\]\[7\]: integer too large for a float"),
        (None, r"X0\[150\]: rows have inconsistent lengths \[199, 200\]"),
    ],
)
def test_large_matrix_rejections_name_the_entry(bad, message):
    values = np.full((200, 200), 0.5).tolist()
    if bad is None:
        del values[150][7]
        message = message.replace(r"\[150\]", "")
    else:
        values[150][7] = bad
    with pytest.raises(InputError, match=message):
        io.problem_from_dict({"a": [0.005] * 200, "b": [0.005] * 200, "X0": values})


def test_rows_mixing_decimal_strings_and_numbers_keep_their_values():
    values = [[str(v) if (i + j) % 3 == 0 else v for j, v in enumerate(row)]
              for i, row in enumerate(np.random.default_rng(5).random((40, 30)).tolist())]
    values[0][:4] = ["1e-3", "0.1", 7, "-0"]
    parsed = io._as_matrix(values, "m")
    assert parsed.view(np.uint64).tolist() == _elementwise(values).view(np.uint64).tolist()
    assert parsed[0, 3] == 0.0 and np.signbit(parsed[0, 3])


def test_jsonify_encodings():
    cause = structure.Cause(rows=(1,), cols=(1,), kind=structure.CauseKind.INCOMPATIBILITY,
                            ratio=2.0)
    out = io.jsonify(
        {
            "pos_inf": np.inf,
            "neg_inf": float("-inf"),
            "nan": np.float64("nan"),
            "arr": np.array([[1.0, 0.5]]),
            "flag": np.bool_(True),
            "count": np.int64(7),
            "cause": cause,
            3: "int key",
        }
    )
    assert out["pos_inf"] == "inf"
    assert out["neg_inf"] == "-inf"
    assert out["nan"] == "nan"
    assert out["arr"] == [[1.0, 0.5]]
    assert out["flag"] is True and out["count"] == 7
    assert out["cause"] == {"rows": [1], "cols": [1], "kind": "Incompatibility",
                            "ratio": 2.0}
    assert out["3"] == "int key"
    # everything jsonify produces must actually serialize
    json.dumps(out)


# ---------------------------------------------------------------------------
# indented JSON

_CAUSE = structure.Cause(rows=(1,), cols=(1,), kind=structure.CauseKind.INCOMPATIBILITY,
                         ratio=2.0)
# 4 of 15 cells nonzero, -0.0 and the extremes among them
_SPARSE = np.zeros((3, 5))
_SPARSE[0, 1], _SPARSE[0, 4], _SPARSE[1, 2], _SPARSE[2, 0], _SPARSE[2, 3] = (
    -0.0, 5e-324, 1e308, 0.1, -2.5)


# scalars where the leaf writer takes them: dict values, and items of a list
# written item by item (one holding a dict or a non-finite float)
_LEAF_PAYLOAD = {
    "naïve ключ": "café ☕ 日本",
    'a "quoted"\x01 key\n': 'tab\t "quote" \x1f\\ bell\x07 \u2028',
    "true": True, "false": False, "none": None,
    "above 2**63": 2**63 + 12345, "below -2**64": -(2**64) - 1,
    "negative zero": -0.0, "1e300": 1e300, "5e-324": 5e-324, "0.1": 0.1,
    "float32": np.float32(0.1), "int64": np.int64(-(2**63)), "bool_": np.bool_(False),
    "empty dict": {}, "empty list": [],
    "mixed": [True, None, 2**70, -0.0, np.float32(3.5), "é", {"k": np.bool_(True)}],
    "inf among numbers": [1.0, float("inf"), 2, -0.0],  # the item-by-item path
    "row": [2**63 + 1, 5e-324, 1e300, -0.0, True, None, "ü"],  # one C-encoder call
}


@pytest.mark.parametrize(
    "obj",
    [
        float("nan"), float("inf"), -np.inf, np.float64("nan"), 0.1, -0.0, 5e-324, 10**30,
        True, None, "text", "日本", [], {}, (), [[]], [{}], {"k": []},
        [1.0, float("nan"), 2, float("-inf")],
        [[1.0, np.inf], [np.nan, 2.0]],
        np.array([[1.0, np.nan], [np.inf, -np.inf]]),
        np.array([[0.5, 0.25]]), np.zeros((2, 0)), np.array([], dtype=float),
        np.array([[True, False], [False, True]]), np.array([3, -4], dtype=np.int32),
        np.float32(0.1), np.int64(7), np.bool_(True), [np.float64(1.5), np.int16(2)],
        [1, [2.5, [None, "x", []]], {"a": (1, 2)}, True],
        (1.0, (2.0, 3.0)), [(1.0, 2.0), (np.float64(3.0), "y")],
        {3: "int key", None: 1, (1, 2): "tuple key", 1.5: [1]},
        {1: "first", "1": "second"},
        {"naïve": "café", "ключ": ["значение", {"ß": 1}]},
        _CAUSE, [_CAUSE, {"cause": _CAUSE}], structure.Behavior.DIVERGENCE,
        {"a": {"b": {"c": {"d": [[[]]]}}}},
        # 2-D arrays: the sparse ones are written from their nonzeros
        _SPARSE, {"m": [_SPARSE, (_SPARSE,)]}, np.zeros((3, 4)), np.zeros((2, 2), dtype=bool),
        np.eye(1, 9), np.eye(9, 1), np.eye(1), _SPARSE.T, np.asfortranarray(_SPARSE),
        np.eye(8)[1::3, ::2], np.eye(7, dtype=bool), ~np.eye(7, dtype=bool),
        np.where(np.eye(4) > 0, np.nan, 0.0), np.where(np.eye(4) > 0, np.inf, 0.0),
        np.diag([1.0, -np.inf, 0.0]), np.arange(12.0).reshape(3, 4) / 7,
        np.eye(3)[:, [0, 1, 1]], np.zeros((0, 3)), np.zeros((3, 0)),
        False, 2**64, _LEAF_PAYLOAD,
    ],
)
def test_dumps_matches_reference_on_edge_payloads(obj):
    assert io.dumps(obj) == oracles.reference_dumps(obj)


@pytest.mark.parametrize("obj", [object(), {"k": object()}, [1, {"k": [object()]}]])
def test_dumps_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        oracles.reference_dumps(obj)
    with pytest.raises(TypeError):
        io.dumps(obj)


@pytest.fixture
def checked_dumps(monkeypatch):
    """Route every ``io.dumps`` call through a comparison with the reference."""
    calls = []
    dumps = io.dumps

    def checking(obj):
        text = dumps(obj)
        assert text == oracles.reference_dumps(obj)
        calls.append(text)
        return text

    monkeypatch.setattr(io, "dumps", checking)
    return calls


def test_every_command_writes_the_reference_bytes(tmp_path, capsys, checked_dumps):
    names = ["fast-2x2.json", "slow-2x2.json", "divergence-2x2.json", "example-5x6.json"]
    csv = [str(io.data_path("sample-2x2.csv")), "--a", "0.6666666666666666,0.3333333333333333",
           "--b", "0.6666666666666666,0.3333333333333333"]
    runs = []
    for problem in [[str(io.data_path(name))] for name in names] + [csv]:
        for command in ("classify", "fit", "analyze", "reduce"):
            cap = ["--max-iters", "3000"] if command in ("fit", "analyze") else []
            runs.append([command, *problem, *cap])
    for name in ("birkhoff-40.json", "mr-60.json", "t0t1-60.json"):
        runs.append(["products", str(io.data_path(name)), "--seed", "3"])
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps([[1.0, 0.0], [0.25, 0.75]]))
    runs.append(["products", str(io.data_path("mr-60.json")), "--vectors", str(vectors)])

    out = tmp_path / "out.json"
    for argv in runs:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == checked_dumps[-1] + "\n"
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        assert out.read_text() == checked_dumps[-1] + "\n"
    assert len(checked_dumps) == 2 * len(runs)


def test_classify_300_rows_writes_the_reference_bytes(tmp_path, checked_dumps):
    problem, *_ = oracles.planted_blocks(np.random.default_rng(300), 300, 300)
    path = tmp_path / "planted-300.json"
    path.write_text(json.dumps(io.problem_to_dict(problem)))
    out = tmp_path / "classify.json"
    assert cli.main(["classify", str(path), "--out", str(out)]) == 0
    (text,) = checked_dumps
    assert out.read_text() == text + "\n"
    assert json.loads(text)["behavior"] == "Divergence"


def test_sparse_300_rows_every_command_writes_the_reference_bytes(
        tmp_path, checked_dumps, monkeypatch):
    problem = oracles.sparse_critical(np.random.default_rng(300), 300, 0.03)
    path = tmp_path / "sparse-300.json"
    path.write_text(json.dumps(io.problem_to_dict(problem)))
    written = []  # shapes of the arrays written from their nonzeros
    write_sparse = io._write_sparse

    def recording(m, newline, parts):
        taken = write_sparse(m, newline, parts)
        if taken:
            written.append(m.shape)
        return taken

    monkeypatch.setattr(io, "_write_sparse", recording)
    out = tmp_path / "out.json"
    for argv in (["classify"], ["reduce"], ["fit", "--max-iters", "20"],
                 ["analyze", "--max-iters", "20"]):
        assert cli.main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 0, argv
        assert out.read_text() == checked_dumps[-1] + "\n"
    assert json.loads(checked_dumps[0])["behavior"] == "SlowConvergence"
    # classify: X0, max_support and witness; reduce: X0; fit: X0, even, odd
    # and final; analyze: X0, max_support, witness, sigma, the even and odd
    # limits and even_limit_estimate
    assert written == [(300, 300)] * 15


def _child_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(io.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def test_python_m_bipfit_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "bipfit", "--version"], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"bipfit {bipfit.__version__}"


def test_output_pipe_closed_early_exits_1_without_a_traceback(tmp_path):
    # as `bipfit classify ... | head -c 100`: the payload, 200x200 matrices,
    # is far larger than a pipe's buffer, so the write fails once it closes
    problem = oracles.sparse_critical(np.random.default_rng(200), 200, 0.05)
    path = tmp_path / "sparse-200.json"
    path.write_text(json.dumps(io.problem_to_dict(problem)))
    child = subprocess.Popen([sys.executable, "-m", "bipfit", "classify", str(path)],
                             env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.wait()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_commands_import_numpy_and_the_standard_library_only(tmp_path):
    # numpy loads modules of its own (cython_runtime) lazily: import it and
    # numpy.random first, so that only what the commands bring in is counted
    child = ("import sys, numpy, numpy.random\n"
             "before = {m.partition('.')[0] for m in sys.modules}\n"
             "from bipfit.cli import main\n"
             "codes = [main(argv.split('|')) for argv in sys.argv[1:]]\n"
             "new = {m.partition('.')[0] for m in sys.modules} - before\n"
             "print(codes, sorted(new - set(sys.stdlib_module_names) - {'bipfit'}))")
    data = {name: str(io.data_path(f"{name}.json")) for name in
            ("example-5x6", "slow-2x2", "divergence-2x2", "birkhoff-40")}
    runs = [["classify", data["example-5x6"]],
            ["fit", data["slow-2x2"], "--max-iters", "2000", "--trace-out", tmp_path / "t.json"],
            ["analyze", data["divergence-2x2"]], ["reduce", data["example-5x6"]],
            ["products", data["birkhoff-40"]]]
    argv = ["|".join(map(str, run + ["--out", tmp_path / f"{k}.json"]))
            for k, run in enumerate(runs)]
    done = subprocess.run([sys.executable, "-c", child, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0] []", done.stdout + done.stderr


@pytest.mark.parametrize("density", [0.3, 0.05])
def test_analyze_at_the_default_cap_peaks_under_50_mb(tmp_path, density):
    # a 120x120 seed crawls to the 100 000-iterate cap: every row of its
    # scaling history would be 96 MB.  At 5 % density the exact even/odd
    # distance is taken on nearly every iterate
    problem = oracles.sparse_critical(np.random.default_rng(5), 120, density)
    path, out = tmp_path / "critical-120.json", tmp_path / "report.json"
    path.write_text(json.dumps(io.problem_to_dict(problem)))
    # the child reads its own peak: RUSAGE_CHILDREN would take the largest of
    # every child this test process has waited for.  Linux carries the peak
    # of the spawning process into a child's RUSAGE_SELF at exec, so a bare
    # interpreter, not this large one, starts the child
    child = ("import resource, sys\nfrom bipfit.cli import main\ncode = main(sys.argv[1:])\n"
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    launch = "import subprocess, sys\nsys.exit(subprocess.call(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", child,
                           "analyze", str(path), "--out", str(out)],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    code, peak_kb = done.stdout.split()
    assert code == "0", done.stderr
    assert json.loads(out.read_text())["engine"]["iterations"] == 100_000
    assert int(peak_kb) < 50 * 1024, peak_kb


def test_trace_out_and_saved_report_bytes(tmp_path):
    result, trace_out = tmp_path / "fit.json", tmp_path / "trace.json"
    path = io.data_path("example-5x6.json")
    assert cli.main(["fit", str(path), "--max-iters", "500", "--out", str(result),
                     "--trace-out", str(trace_out)]) == 0
    problem, meta = io.load_problem(path)
    trace = engine.run(problem, StoppingRule(max_iters=500))
    assert trace_out.read_text() == oracles.reference_dumps({
        "stored_indices": trace.stored_indices,
        "errors": trace.errors,
        "ratio_rows": trace.ratio_rows,
        "ratio_cols": trace.ratio_cols,
        "stop_reason": trace.stop_reason.value,
    }) + "\n"

    for name in ("divergence-2x2.json", "example-5x6.json"):
        problem, meta = io.load_problem(io.data_path(name))
        report = io.build_report(problem, StoppingRule(max_iters=2000), meta=meta)
        io.save_report(report, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_text() == oracles.reference_dumps(report) + "\n"


def test_load_problem_csv_with_marginals(fast_problem):
    path = io.data_path("sample-2x2.csv")
    problem, meta = io.load_problem(path, a="0.6666666666666666,0.3333333333333333",
                                    b=[2 / 3, 1 / 3])
    assert meta == {}
    np.testing.assert_allclose(problem.x0, fast_problem.x0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(problem.a, fast_problem.a)


def test_load_problem_csv_requires_marginals():
    with pytest.raises(InputError, match="--a"):
        io.load_problem(io.data_path("sample-2x2.csv"))


def test_load_problem_json_rejects_marginal_flags():
    with pytest.raises(InputError, match="CSV"):
        io.load_problem(io.data_path("fast-2x2.json"), a="0.5,0.5")


def test_bundled_problems_load_and_classify():
    expected = {
        "fast-2x2.json": structure.Behavior.FAST_CONVERGENCE,
        "slow-2x2.json": structure.Behavior.SLOW_CONVERGENCE,
        "divergence-2x2.json": structure.Behavior.DIVERGENCE,
        "example-5x6.json": structure.Behavior.DIVERGENCE,
    }
    for name, behavior in expected.items():
        problem, meta = io.load_problem(io.data_path(name))
        assert meta["name"], name
        assert problem.x0.sum() == pytest.approx(1.0, abs=1e-12)
        assert structure.classify(problem).behavior is behavior, name


# ---------------------------------------------------------------------------
# sequence files


def test_sequence_from_spec_explicit_list():
    ms = io.sequence_from_spec([[[0.5, 0.5], [0.25, 0.75]]])
    assert len(ms) == 1
    np.testing.assert_array_equal(ms[0], [[0.5, 0.5], [0.25, 0.75]])


def test_sequence_from_spec_families():
    mr = io.sequence_from_spec({"family": "mr", "count": 3})
    for got, want in zip(mr, products.mr_sequence(3)):
        np.testing.assert_array_equal(got, want)

    alt = io.sequence_from_spec({"family": "t0t1", "count": 4})
    for got, want in zip(alt, products.t0t1_sequence(4)):
        np.testing.assert_array_equal(got, want)

    first = io.sequence_from_spec({"family": "birkhoff", "count": 2, "dim": 4,
                                   "gamma": 0.2}, seed=7)
    again = io.sequence_from_spec({"family": "birkhoff", "count": 2, "dim": 4,
                                   "gamma": 0.2}, seed=7)
    other = io.sequence_from_spec({"family": "birkhoff", "count": 2, "dim": 4,
                                   "gamma": 0.2}, seed=8)
    np.testing.assert_array_equal(first[0], again[0])
    assert np.abs(first[0] - other[0]).max() > 0


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"family": "mr"}, "count"),
        ({"family": "mr", "count": 0}, "count"),
        ({"family": "pascal", "count": 2}, "family"),
        ({"family": "birkhoff", "count": 2, "dim": 1}, "dim"),
        ({"family": "birkhoff", "count": 2, "dim": 3, "n_perms": 3.5}, "n_perms"),
        ({"family": "birkhoff", "count": 2, "dim": 3, "n_perms": "4"}, "n_perms"),
        ({"family": "mr", "count": True}, "count"),
        ({"family": "mr", "count": 2, "r_values": 5}, "r_values"),
        ({"family": "mr", "count": 3, "r_values": [0.5, 0.5]}, "need 3 r values, got 2"),
        ({"family": "mr", "count": 2, "r_values": [0.5, 1.5]},
         r"r must lie in \[0, 1\], got 1\.5"),
        ({"family": "birkhoff", "count": 2, "dim": True}, "dim"),
        ({"family": "birkhoff", "count": 2, "dim": 3, "n_perms": True}, "n_perms"),
        ("nope", "sequence file"),
    ],
)
def test_sequence_from_spec_rejections(spec, message):
    with pytest.raises(InputError, match=message):
        io.sequence_from_spec(spec)


_HALVES = ("--a", "0.5,0.5", "--b", "0.5,0.5")


@pytest.mark.parametrize("command, text, flags, message", [
    pytest.param("classify", "1,2\n3,x\n", _HALVES, "cannot parse CSV matrix", id="csv-cell"),
    pytest.param("classify", "1,2\n3,4\n", ("--a", "0.5,0.7", "--b", "0.5,0.5"),
                 "marginal vector sums to 1.2; deviation from 1 exceeds", id="csv-a-sum"),
    pytest.param("classify", "1,2\n3,4\n", ("--a", "0.5,0.5", "--b", "1,0"),
                 "marginal entry 1 is 0.0; every entry must be > 0", id="csv-b-zero"),
    pytest.param("classify", "1,2\n3,4\n", ("--a", "0.5,0.5", "--b", "0.2,0.3,0.5"),
                 "seed shape (2, 2) does not match marginals (2 rows, 3 columns)", id="csv-b-size"),
    pytest.param("products", {"family": "birkhoff", "count": 2, "dim": 3, "gamma": 2}, (),
                 "gamma must lie in [0, 1], got 2.0", id="birkhoff-gamma"),
    pytest.param("products", {"family": "birkhoff", "count": 2, "dim": 3, "n_perms": 2}, (),
                 "need at least d=3 permutations, got 2", id="birkhoff-n_perms"),
    pytest.param("products", {"family": "mr", "count": 2, "r_values": ["0.5", "x"]}, (),
                 "r_values: 'x' is not a decimal number", id="mr-r-value"),
    pytest.param("products", {"family": "mr", "count": 3, "r_values": [0.5, 0.5]}, (),
                 "need 3 r values, got 2", id="mr-count"),
    pytest.param("products", {"family": "mr", "count": 2, "r_values": [0.5, 1.5]}, (),
                 "r must lie in [0, 1], got 1.5", id="mr-range"),
])
def test_cli_input_checks_exit_2_naming_what_failed(tmp_path, capsys, command, text, flags,
                                                    message):
    path = tmp_path / ("matrix.csv" if command == "classify" else "sequence.json")
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    assert cli.main([command, str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


def test_mr_spec_reads_its_r_values():
    got = io.sequence_from_spec({"family": "mr", "count": 2, "r_values": ["0.5", 0.25]})
    np.testing.assert_array_equal(got, products.mr_sequence(2, [0.5, 0.25]))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_birkhoff_spec_draws_the_per_permutation_stream(d):
    for seed, gamma, n_perms in ((0, 0.0, None), (5, 0.3, d + 3)):
        spec = {"family": "birkhoff", "count": 30, "dim": d, "gamma": gamma}
        if n_perms is not None:
            spec["n_perms"] = n_perms
        want = oracles.reference_birkhoff_sequence(30, d, seed, gamma, n_perms)
        np.testing.assert_array_equal(io.sequence_from_spec(spec, seed=seed), want)
        one = products.random_doubly_stochastic(d, np.random.default_rng(seed),
                                                gamma=gamma, n_perms=n_perms)
        np.testing.assert_array_equal(one, want[0])


def test_load_sequence_bundled_files():
    mr = io.load_sequence(io.data_path("mr-60.json"))
    assert len(mr) == 60 and mr[0].shape == (2, 2)

    bk = io.load_sequence(io.data_path("birkhoff-40.json"), seed=3)
    assert len(bk) == 40 and bk[0].shape == (4, 4)
    for m in bk:
        np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.diag(m).min() >= 0.2 - 1e-12


# ---------------------------------------------------------------------------
# analysis reports


def test_build_report_divergence_contents(divergence_problem):
    report = io.build_report(divergence_problem, meta={"name": "divergent pair"})
    assert report["problem"]["name"] == "divergent pair"
    assert report["classification"]["behavior"] == "Divergence"
    (cause,) = report["classification"]["causes"]
    assert cause["rows"] == [1] and cause["cols"] == [1]
    assert cause["ratio"] == pytest.approx(2.0, abs=1e-12)
    assert report["classification"]["witness"] is None

    bs = report["block_structure"]
    assert bs["r"] == 2
    np.testing.assert_allclose(bs["lambdas"], [0.5, 2.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(bs["a_prime"], oracles.DIV_A_PRIME, rtol=0, atol=1e-12)

    np.testing.assert_allclose(report["limits"]["even"], oracles.DIV_EVEN_LIMIT,
                               rtol=0, atol=REPORT_TOL)
    np.testing.assert_allclose(report["limits"]["odd"], oracles.DIV_ODD_LIMIT,
                               rtol=0, atol=REPORT_TOL)
    assert report["engine"]["stop_reason"] == "EvenOddConverged"
    assert report["engine"]["agreement_even_l1"] < 1e-8

    (transfer,) = report["criticality_under_adjusted"]
    assert transfer["rows"] == [1] and transfer["cols"] == [1]
    assert transfer["original_ratio"] == pytest.approx(2.0, abs=1e-12)
    assert transfer["is_critical_under_adjusted"]

    (escape,) = report["escaped_cells"]
    assert tuple(escape["cell"]) == (0, 0)
    assert escape["final_log_sum"] > 0


def test_report_round_trip_and_verify(fast_problem, tmp_path):
    report = io.build_report(fast_problem, meta={"name": "fast pair"})
    path = tmp_path / "report.json"
    io.save_report(report, path)
    loaded = io.load_report(path, verify=True)
    assert loaded["classification"]["behavior"] == "FastConvergence"
    assert loaded["classification"]["causes"] == []
    np.testing.assert_allclose(loaded["limits"]["even"], report["limits"]["even"],
                               rtol=0, atol=0)

    broken = json.loads(json.dumps(io.jsonify(report)))
    broken["classification"]["witness"][0][0] += 0.01
    with pytest.raises(InputError, match="marginals"):
        io.verify_report(broken)

    broken = json.loads(json.dumps(io.jsonify(report)))
    broken["limits"]["even"][0][0] += 1e-3
    with pytest.raises(InputError, match="deviate"):
        io.verify_report(broken)

    with pytest.raises(InputError, match="missing 'problem'"):
        io.verify_report({"classification": {}})


def test_report_with_a_seed_cell_below_the_support_threshold_verifies(tmp_path):
    # the 1e-20 seed cell is below `support_of`'s threshold but in the
    # problem's support, so row 1 is not empty; it is row 1's only cell, and
    # the verdict, sigma and escaped cells all count it
    problem = FittingProblem([[1.0, 1.0], [1e-20, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert problem.support[1, 0] and not support_of(problem.x0)[1, 0]
    report = io.build_report(problem, StoppingRule(max_iters=2000), meta={"name": "faint"})
    assert report["classification"]["behavior"] == "SlowConvergence"
    assert report["engine"]["even_limit_estimate"][1, 0] > 0
    path = tmp_path / "report.json"
    io.save_report(report, path)
    io.load_report(path, verify=True)


def test_report_on_a_barely_full_seed_round_trips(tmp_path):
    # a seed cell of 1e-20 keeps the seed full-support: the verdict is fast
    # convergence, and the limits keep that cell, tiny but positive
    problem = FittingProblem([[1.0, 1.0], [1e-20, 1.0]], [0.5, 0.5], [0.5, 0.5])
    report = io.build_report(problem, StoppingRule(max_iters=2000), meta={"name": "faint"})
    assert report["classification"]["behavior"] == "FastConvergence"
    assert 0 < report["limits"]["even"][1, 0] < 1e-9
    path = tmp_path / "report.json"
    io.save_report(report, path)
    loaded = io.load_report(path, verify=True)
    np.testing.assert_array_equal(loaded["limits"]["even"], report["limits"]["even"])


def test_reports_built_in_memory_verify():
    for name in ("fast-2x2", "slow-2x2", "divergence-2x2", "example-5x6"):
        problem, meta = io.load_problem(io.data_path(f"{name}.json"))
        io.verify_report(io.build_report(problem, StoppingRule(max_iters=2000), meta=meta))


def test_verify_report_rejects_corrupted_structure(divergence_problem):
    clean = json.loads(json.dumps(io.jsonify(io.build_report(divergence_problem))))
    io.verify_report(clean)

    broken = json.loads(json.dumps(clean))
    broken["block_structure"]["lambdas"] = [2.0, 0.5]
    with pytest.raises(InputError, match="increasing"):
        io.verify_report(broken)

    broken = json.loads(json.dumps(clean))
    broken["classification"]["causes"][0]["rows"] = [0]
    with pytest.raises(InputError, match="zero block"):
        io.verify_report(broken)

    broken = json.loads(json.dumps(clean))
    broken["block_structure"]["a_prime"][0] += 1e-6
    with pytest.raises(InputError, match="inconsistent"):
        io.verify_report(broken)


def _set(path, value):
    """A corruption of a report: replace the entry at ``path`` by ``value``."""
    def corrupt(report):
        *parents, last = path
        for key in parents:
            report = report[key]
        report[last] = value(report[last]) if callable(value) else value
    return corrupt


def _drop(path):
    """A corruption of a report: delete the entry at ``path``."""
    def corrupt(report):
        *parents, last = path
        for key in parents:
            report = report[key]
        del report[last]
    return corrupt


def _all(*corruptions):
    """A corruption of a report: each of ``corruptions`` in turn."""
    def corrupt(report):
        for each in corruptions:
            each(report)
    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_set(("classification", "causes", 0, "rows"), [7]), "cause 0 rows: expected indices"),
        (_set(("classification", "causes", 0, "cols"), [-1]), "cause 0 cols: expected indices"),
        (_set(("classification", "causes", 0, "rows"), [1, 1]), "cause 0 rows: .* none repeated"),
        (_set(("classification", "causes"), lambda v: v + [
            {"rows": [], "cols": [0, 1], "kind": "Criticality", "ratio": 1.0}]),
         "cause has an empty row or column set"),
        (_set(("classification", "causes"), lambda v: v + [
            {"rows": [0, 1], "cols": [], "kind": "Criticality", "ratio": 1.0}]),
         "cause has an empty row or column set"),
        (_set(("block_structure", "row_blocks", 0), [7]), "row block 0: expected indices"),
        (_set(("block_structure", "col_blocks", 1), [0.5]), "column block 1: expected indices"),
        (_set(("block_structure", "row_blocks"), [[1], [1]]), "row blocks do not partition"),
        (_set(("block_structure", "col_blocks"), [[], [0, 1]]), "column blocks do not partition"),
        (_set(("block_structure", "col_blocks"), [[0, 1]]), "one block per lambda"),
        (_set(("block_structure", "b_prime", 0), lambda v: v + 1e-6), "b' is inconsistent"),
        (_drop(("classification", "causes", 0, "rows")), "cause 0: missing field 'rows'"),
        (_drop(("classification", "causes", 0, "ratio")), "cause 0: missing field 'ratio'"),
        (_set(("classification", "causes"), {"rows": [1]}), "causes: expected a list"),
        (_set(("block_structure", "lambdas"), "x"), r"lambdas: expected a list of numbers"),
        (_set(("block_structure", "lambdas"), ["nan", "nan"]), "not finite and positive"),
        (_drop(("block_structure", "a_prime")), r"block_structure: missing field 'a_prime'"),
        (_drop(("limits", "odd")), r"report\.limits: missing field 'odd'"),
        (_set(("classification",), ["Divergence"]), "classification: expected a JSON object"),
        (_set(("block_structure", "a_prime"), lambda v: v[:1]), r"a_prime: expected 2 entries"),
        (_set(("limits", "even"), lambda v: [row + [0.0] for row in v]),
         r"limits\.even: expected a 2x2 matrix"),
        # the verdict against its certificates
        (_set(("classification", "behavior"), "FastConvergence"),
         "FastConvergence verdict has no witness"),
        (_set(("classification", "behavior"), "Bogus"), "unknown verdict 'Bogus'"),
        (_drop(("classification", "behavior")), "classification: missing field 'behavior'"),
        (_set(("classification", "causes"), []), "Divergence verdict has no incompatibility"),
        (_set(("classification", "causes", 0, "kind"), "Bogus"), "cause 0 kind: unknown kind"),
        (_set(("classification", "causes", 0, "kind"), "Criticality"),
         "criticality cause is not tight"),
        (_all(_drop(("block_structure",)), _set(("limits", "even", 0, 0), lambda v: v + 0.5)),
         "report: missing field 'block_structure'"),
        # sigma (the anti-diagonal) and the limits against it
        (_set(("sigma", 0, 1), False), "sigma has an empty row or column"),
        (_set(("sigma", 0, 0), True), "even limit's support is not sigma"),
        (_set(("sigma", 1, 1), True), "sigma lies outside the seed support"),
        (_all(_set(("limits", "odd", 0, 0), 1 / 3), _set(("limits", "odd", 0, 1), 0.0)),
         "limits put mass outside sigma"),
        (_set(("sigma",), [[0, 1], [1, 0]]), r"sigma: expected a 2x2 matrix of booleans"),
        (_drop(("sigma",)), "report: missing field 'sigma'"),
    ],
)
def test_verify_report_rejects_bad_blocks_and_indices(divergence_problem, corrupt, message):
    broken = json.loads(json.dumps(io.jsonify(io.build_report(divergence_problem))))
    io.verify_report(broken)
    corrupt(broken)
    with pytest.raises(InputError, match=message):
        io.verify_report(broken)


@functools.cache
def _report_text(name: str) -> str:
    problem, meta = io.load_problem(io.data_path(f"{name}.json"))
    return json.dumps(io.jsonify(io.build_report(problem, StoppingRule(max_iters=2000), meta)))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # the cause's ratio a(A)/b(B^c), recomputed
        (_set(("classification", "causes", 0, "ratio"), 123.0),
         "report cause ratio is 123.0, recomputed 2.5"),
        # criticality_under_adjusted, recomputed from the blocks and marginals
        (_set(("criticality_under_adjusted", 0, "is_critical_under_adjusted"), False),
         "entry 0: is_critical_under_adjusted is False, recomputed True"),
        (_set(("criticality_under_adjusted", 1, "original_ratio"), 1.9),
         "entry 1: original_ratio is 1.9, recomputed 1.875"),
        (_set(("criticality_under_adjusted", 0, "complement_cols_mass"), 0.25),
         "entry 0: complement_cols_mass is 0.25"),
        (_set(("criticality_under_adjusted", 1, "rows"), [0, 1, 3]), "entry 1: rows is"),
        (_set(("criticality_under_adjusted", 0, "cols"), [3, 4]), "entry 0: cols is"),
        (_set(("criticality_under_adjusted", 1, "is_critical_under_adjusted"), 1),
         "is_critical_under_adjusted is 1, recomputed True"),
        (_set(("criticality_under_adjusted",), lambda v: v[:1]),
         "expected 2 entries, one per cut"),
        (_drop(("criticality_under_adjusted", 0, "adjusted_rows_mass")),
         r"\[0\]: missing field 'adjusted_rows_mass'"),
        (_all(_drop(("block_structure",)), _drop(("limits",))),
         "report: missing field 'block_structure'"),
        # the engine's even-limit estimate and its agreement with the even limit
        (_all(_set(("engine", "agreement_even_l1"), 0.0),
              _set(("engine", "even_limit_estimate", 0, 0), lambda v: v + 1)),
         "even-limit estimate is not column-fitted"),
        (_set(("engine", "agreement_even_l1"), 0.0), "agreement_even_l1 is 0.0, recomputed"),
        (_all(_set(("engine", "even_limit_estimate", 0, 0), lambda v: v + 0.01),
              _set(("engine", "even_limit_estimate", 3, 0), lambda v: v - 0.01)),
         "agreement_even_l1 is .*, recomputed"),
        (_all(_set(("engine", "even_limit_estimate", 0, 2), 0.01),
              _set(("engine", "even_limit_estimate", 1, 2), lambda v: v - 0.01)),
         "estimate puts mass outside the seed support"),
        (_set(("engine", "iterations"), -1), r"engine\.iterations: expected an integer"),
        (_drop(("engine", "agreement_even_l1")), "missing field 'agreement_even_l1'"),
        (_drop(("limits",)), "report: missing field 'limits'"),
    ],
)
def test_verify_report_recomputes_criticality_and_engine_agreement(corrupt, message):
    broken = json.loads(_report_text("example-5x6"))
    io.verify_report(broken)
    corrupt(broken)
    with pytest.raises(InputError, match=message):
        io.verify_report(broken)


_NOT_ESCAPED = "escaped cells are not the seed support outside sigma"


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        # the verdict against the maximal support: null for a divergence, else
        # in the seed support, and equal to it exactly for a fast convergence
        ("fast-2x2", _set(("classification", "max_support", 0, 0), False),
         "FastConvergence verdict disagrees with its maximal support"),
        ("fast-2x2", _set(("classification", "max_support", 1, 1), True),
         "maximal support lies outside the seed support"),
        ("fast-2x2", _set(("classification", "behavior"), "SlowConvergence"),
         "SlowConvergence verdict disagrees with its maximal support"),
        ("slow-2x2", _set(("classification", "max_support", 0, 0), True),
         "SlowConvergence verdict disagrees with its maximal support"),
        ("slow-2x2", _set(("classification", "max_support", 0, 1), False),
         "maximal support has an empty row or column"),
        ("slow-2x2", _set(("classification", "behavior"), "FastConvergence"),
         "FastConvergence verdict disagrees with its maximal support"),
        ("slow-2x2", _set(("classification", "max_support"), None),
         r"max_support: expected a 2x2 matrix of booleans"),
        ("example-5x6", lambda r: r["classification"].update(max_support=r["sigma"]),
         "Divergence verdict has a maximal support"),
        # a seed cell in I_1 x J_2, listed as escaped: the seed is not lower
        # block triangular in the report's block order
        ("example-5x6", _all(_set(("problem", "X0", 2, 4), 0.05), _set(("escaped_cells",),
         lambda v: v[:3] + [{"cell": [2, 4], "final_log_sum": 0.0, "still_growing": True}] + v[3:])),
         "seed is not lower block triangular: support in I_1 x J_2"),
        # escaped_cells: the seed support outside sigma, in order
        ("slow-2x2", _set(("escaped_cells",), []), _NOT_ESCAPED),
        ("slow-2x2", _set(("escaped_cells",), lambda v: v + [
            {"cell": [0, 1], "final_log_sum": 0.0, "still_growing": False}]), _NOT_ESCAPED),
        ("example-5x6", _set(("escaped_cells",), lambda v: v[1:]), _NOT_ESCAPED),
        ("example-5x6", _set(("escaped_cells",), lambda v: v[::-1]), _NOT_ESCAPED),
        ("slow-2x2", _set(("escaped_cells", 0, "cell"), [0, 2]),
         r"escaped_cells\[0\]\.cell: expected a row and a column index in range"),
        ("slow-2x2", _set(("escaped_cells", 0, "cell"), [0.0, 0]),
         r"escaped_cells\[0\]\.cell: expected a row and a column index in range"),
        ("slow-2x2", _set(("escaped_cells", 0, "final_log_sum"), True),
         r"final_log_sum: expected a number, got a boolean"),
        ("slow-2x2", _set(("escaped_cells", 0, "still_growing"), 1),
         r"still_growing: expected a boolean"),
        ("slow-2x2", _drop(("escaped_cells", 0, "final_log_sum")),
         r"escaped_cells\[0\]: missing field 'final_log_sum'"),
        ("slow-2x2", _set(("escaped_cells",), {"cell": [0, 0]}), r"escaped_cells: expected a list"),
        ("slow-2x2", _all(_drop(("sigma",)), _drop(("limits",)), _drop(("engine",))),
         "report: missing field 'sigma'"),
    ],
)
def test_verify_report_checks_max_support_and_escaped_cells(name, corrupt, message):
    broken = json.loads(_report_text(name))
    io.verify_report(broken)
    corrupt(broken)
    with pytest.raises(InputError, match=message):
        io.verify_report(broken)


_DISAGREES = "report stop reason {} disagrees with final marginal error"
_NOT_AT_CAP = "report stop reason IterationCap at {} iterations, not at max_iters 2000"


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        # built at max_iters 2000: fast-2x2 converges, while slow-2x2 and the
        # divergent example-5x6 reach the cap
        ("fast-2x2", _set(("engine", "stop_reason"), "Stalled"),
         "report.engine.stop_reason: unknown stop reason 'Stalled'"),
        ("fast-2x2", _set(("engine", "stop_reason"), "EvenOddConverged"),
         _DISAGREES.format("EvenOddConverged")),
        ("fast-2x2", _set(("engine", "final_marginal_error"), 1e-10),
         _DISAGREES.format("Converged")),
        ("fast-2x2", _set(("config", "tol_marginal"), 1e-300), _DISAGREES.format("Converged")),
        ("fast-2x2", _drop(("engine", "stop_reason")),
         "report.engine: missing field 'stop_reason'"),
        ("slow-2x2", _set(("engine", "stop_reason"), "Converged"),
         _DISAGREES.format("Converged")),
        ("slow-2x2", _set(("config", "tol_marginal"), 1.0), _DISAGREES.format("IterationCap")),
        ("slow-2x2", _set(("engine", "iterations"), 1999), _NOT_AT_CAP.format(1999)),
        ("slow-2x2", _set(("engine", "iterations"), 2001),
         "report engine ran 2001 iterations, more than max_iters 2000"),
        ("slow-2x2", _set(("config", "max_iters"), 2000.0),
         "report.config.max_iters: expected an integer"),
        ("example-5x6", _set(("engine", "stop_reason"), "Converged"),
         _DISAGREES.format("Converged")),
        ("example-5x6", _set(("engine", "final_marginal_error"), 0.0),
         _DISAGREES.format("IterationCap")),
        ("example-5x6", _set(("engine", "iterations"), 1998), _NOT_AT_CAP.format(1998)),
        ("example-5x6", _set(("config", "max_iters"), 10), "more than max_iters 10"),
    ],
)
def test_verify_report_checks_the_stop_reason(name, corrupt, message):
    broken = json.loads(_report_text(name))
    io.verify_report(broken)
    corrupt(broken)
    with pytest.raises(InputError, match=message):
        io.verify_report(broken)


#: Every section ``verify_report`` checks; ``build_report`` writes each one.
_SECTIONS = ("problem", "classification", "block_structure", "sigma", "limits", "engine",
             "config", "criticality_under_adjusted", "escaped_cells")
_BUNDLED = ("fast-2x2", "slow-2x2", "divergence-2x2", "example-5x6")


@pytest.mark.parametrize("name", _BUNDLED)
@pytest.mark.parametrize("section", _SECTIONS)
@pytest.mark.parametrize("how", ["deleted", "null"])
def test_load_report_requires_every_section(tmp_path, name, section, how):
    report = json.loads(_report_text(name))
    (_drop((section,)) if how == "deleted" else _set((section,), None))(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    named = rf"missing (field )?'{section}'" if how == "deleted" else rf"report\.{section}: expected"
    with pytest.raises(InputError, match=named):
        io.load_report(path, verify=True)


@pytest.mark.parametrize("name", _BUNDLED)
@pytest.mark.parametrize("key", ["causes", "witness", "max_support"])
def test_verify_report_requires_the_classification_keys(name, key):
    # a divergence writes null for its witness and maximal support: the keys stay
    report = json.loads(_report_text(name))
    _drop(("classification", key))(report)
    with pytest.raises(InputError, match=f"report.classification: missing field '{key}'"):
        io.verify_report(report)


def test_verify_report_rejects_a_report_stripped_to_its_verdict():
    report = json.loads(_report_text("divergence-2x2"))
    for section in ("block_structure", "sigma", "limits", "engine", "criticality_under_adjusted",
                    "escaped_cells"):
        del report[section]
    with pytest.raises(InputError, match="report: missing field 'block_structure'"):
        io.verify_report(report)


def test_verify_report_does_not_rerun_the_criticality_writer(monkeypatch):
    # criticality_under_adjusted is checked by _certify's own sums, not by
    # the function that wrote it
    report = json.loads(_report_text("example-5x6"))
    monkeypatch.setattr(io, "_criticality_transfer", lambda *args: pytest.fail("rerun"))
    io.verify_report(report)


def test_criticality_rule_needs_a_tight_zero_block():
    # rows {0} against column {1}: a(A) = 1/2 = b(B^c), tight under a' = a
    a = b = np.array([0.5, 0.5])
    supp = np.array([[True, False], [True, True]])
    entry = {"rows": [0], "cols": [1], "original_ratio": 1.0, "adjusted_rows_mass": 0.5,
             "complement_cols_mass": 0.5, "is_critical_under_adjusted": True}
    _certify.criticality(a, b, supp, a, [[0], [1]], [[0], [1]], [entry])
    with pytest.raises(InternalCheckError, match="entry 0: not a zero block of the seed"):
        _certify.criticality(a, b, np.ones((2, 2), bool), a, [[0], [1]], [[0], [1]], [entry])
    a_prime = np.array([0.25, 0.75])
    loose = dict(entry, adjusted_rows_mass=0.25, is_critical_under_adjusted=False)
    with pytest.raises(InternalCheckError, match="entry 0: not tight under the adjusted"):
        _certify.criticality(a, b, supp, a_prime, [[0], [1]], [[0], [1]], [loose])


@pytest.mark.parametrize("name, k", [("slow-2x2", 0), ("example-5x6", 2)])
def test_verify_report_recomputes_the_escaped_log_sums(name, k):
    # built at 2000 iterations, an even count: the even-limit estimate is
    # the final iterate, and ln X0 - ln X_n is each escaped cell's log-sum
    # (example-5x6's cell 2 has X_n = 8.9e-305, still a normal float)
    broken = json.loads(_report_text(name))
    assert broken["engine"]["iterations"] % 2 == 0
    broken["escaped_cells"][k]["final_log_sum"] += 1e-3
    with pytest.raises(InputError, match=f"report escaped cell {k}: final_log_sum is .*, "
                                         "recomputed .* from the even-limit estimate"):
        io.verify_report(broken)


def _shift_minor(key):
    """A corruption of a report: +-eps on a 2x2 minor of sigma in limit ``key``.

    Every marginal is kept, and a changed even limit gets its
    ``agreement_even_l1`` recomputed, so only the scaling form is broken.
    """
    def corrupt(report):
        s = np.array(report["sigma"], dtype=int)
        shared = s @ s.T
        np.fill_diagonal(shared, 0)
        i, k = np.argwhere(shared >= 2)[0]  # two rows sharing two columns of sigma
        j, l = np.flatnonzero(s[i] & s[k])[:2]
        limit = np.array(report["limits"][key])
        eps = 1e-6 * limit[[i, i, k, k], [j, l, j, l]].min()
        limit[[i, k], [j, l]] += eps
        limit[[i, k], [l, j]] -= eps
        report["limits"][key] = limit.tolist()
        if key == "even":
            estimate = np.array(report["engine"]["even_limit_estimate"])
            report["engine"]["agreement_even_l1"] = float(np.abs(estimate - limit).sum())
    return corrupt


# sigma of every bundled 2x2 problem is a spanning tree, on which any positive
# matrix is a scaling of the seed; a positive 2x2 seed closes a cycle
@pytest.mark.parametrize("problem", [
    pytest.param(FittingProblem([[2.0, 1.0], [1.0, 1.0]], [2 / 3, 1 / 3], [2 / 3, 1 / 3]),
                 id="positive-2x2"),
    pytest.param(oracles.planted_blocks(np.random.default_rng(30), 30, 30)[0], id="planted-30")])
@pytest.mark.parametrize("key", ["odd", "even"])
def test_verify_report_checks_the_limits_scaling_form(problem, key):
    broken = json.loads(json.dumps(io.jsonify(io.build_report(problem))))
    io.verify_report(broken)
    _shift_minor(key)(broken)
    with pytest.raises(InputError, match=f"report {key} limit is not a scaling of the seed"):
        io.verify_report(broken)


def test_verify_report_rejects_a_nan_limit_cell_on_sigma(fast_problem):
    # a NaN passes the marginal checks (NaN > tol is False); on fast-2x2's
    # path-shaped sigma its NaN potential reaches two unfitted nodes, and the
    # potentials' search must still end with a failing NaN residual
    broken = json.loads(json.dumps(io.jsonify(io.build_report(fast_problem))))
    broken["limits"]["odd"][0][0] = float("nan")
    with pytest.raises(InputError, match="report odd limit is not a scaling of the seed"):
        io.verify_report(broken)


@pytest.mark.parametrize("name", ["slow-2x2", "example-5x6"])
def test_verify_report_recomputes_the_final_marginal_error(name):
    # both stop at the default 100 000-iteration cap: the even-limit estimate
    # is the final iterate, whose marginal error the report states
    problem, meta = io.load_problem(io.data_path(f"{name}.json"))
    broken = json.loads(json.dumps(io.jsonify(io.build_report(problem, meta=meta))))
    assert broken["engine"]["iterations"] == 100_000
    io.verify_report(broken)
    broken["engine"]["final_marginal_error"] *= 2
    with pytest.raises(InputError, match="report final_marginal_error is .*, recomputed"):
        io.verify_report(broken)


def test_verify_report_rejects_a_witness_of_the_wrong_shape(fast_problem):
    broken = json.loads(json.dumps(io.jsonify(io.build_report(fast_problem))))
    io.verify_report(broken)
    broken["classification"]["witness"].append([0.0, 0.0])
    with pytest.raises(InputError, match=r"witness: expected a 2x2 matrix, got 3x2"):
        io.verify_report(broken)


def test_verify_report_accepts_a_tight_criticality_cause(slow_problem):
    report = json.loads(json.dumps(io.jsonify(io.build_report(slow_problem,
                                                               StoppingRule(max_iters=2000)))))
    # the zero cell (1, 1): a(rows) = b(other columns) = 1/2
    report["classification"]["causes"] = [
        {"rows": [1], "cols": [1], "kind": "Criticality", "ratio": 1.0}]
    io.verify_report(report)


@pytest.fixture
def max_flows(monkeypatch):
    """The list of ``structure._max_flow`` calls made while the test runs."""
    calls = []
    real = structure._max_flow

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structure, "_max_flow", counting)
    return calls


def _report_max_flows(max_flows, name):
    problem, meta = io.load_problem(io.data_path(f"{name}.json"))
    max_flows.clear()
    io.build_report(problem, StoppingRule(max_iters=3000), meta=meta)
    return len(max_flows)


def test_build_report_runs_each_max_flow_once(max_flows):
    # divergent: feasibility, the first cause's Dinkelbach steps, the peeled
    # remainder's, and the limit support under (a', b); feasible: one
    assert _report_max_flows(max_flows, "example-5x6") <= 7
    assert _report_max_flows(max_flows, "fast-2x2") == 1


def test_cli_reduce_runs_one_max_flow_on_a_feasible_seed(max_flows, tmp_path):
    assert cli.main(["reduce", str(io.data_path("slow-2x2.json")),
                     "--out", str(tmp_path / "reduced.json")]) == 0
    assert len(max_flows) == 1


@pytest.fixture
def no_engine(monkeypatch):
    """Every binding of the engine's ``run`` raises while the test runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran")

    for module in (engine, cli):
        monkeypatch.setattr(module, "run", refuse)


def test_limit_points_run_no_iteration(no_engine):
    problems = [io.load_problem(io.data_path(f"{name}.json"))[0]
                for name in ("fast-2x2", "slow-2x2", "divergence-2x2", "example-5x6")]
    problems.append(oracles.planted_blocks(np.random.default_rng(30), 30, 30)[0])
    for problem in problems:
        lp = structure.limit_points(problem)
        np.testing.assert_allclose(lp.even_limit.sum(axis=0), problem.b, rtol=0, atol=1e-13)


@pytest.mark.parametrize("command", ["classify", "reduce"])
def test_cli_classify_and_reduce_run_no_iteration(no_engine, command, tmp_path):
    planted = tmp_path / "planted-30.json"
    problem = oracles.planted_blocks(np.random.default_rng(30), 30, 30)[0]
    planted.write_text(json.dumps(io.problem_to_dict(problem)))
    paths = [io.data_path(f"{name}.json")
             for name in ("fast-2x2", "slow-2x2", "divergence-2x2", "example-5x6")]
    out = str(tmp_path / "out.json")
    for path in paths + [planted]:
        assert cli.main([command, str(path), "--out", out]) == 0
    with pytest.raises(AssertionError, match="the engine ran"):
        cli.main(["analyze", str(planted), "--out", out])


@pytest.mark.parametrize("g", [1e-3, 1e-4, 1e-8, 1e-10])
def test_cli_reduce_decides_a_near_critical_seed(g, capsys, tmp_path):
    # feasible with full support, but the iteration's rate tends to 1 with
    # g; reduce runs no iteration and no limit solve, so g does not matter
    path = tmp_path / "near-critical.json"
    path.write_text(json.dumps({"a": [0.5 + g, 0.5 - g], "b": [0.5, 0.5],
                                "X0": [[1, 1], [1, 0]]}))
    problem, _ = io.load_problem(path)
    code, payload = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert payload["a"] == problem.a.tolist()
    assert payload["b"] == problem.b.tolist()
    assert payload["X0"] == [[1 / 3, 1 / 3], [1 / 3, 0.0]] == problem.x0.tolist()


_NEAR_CRITICAL = [
    *(pytest.param({"a": [0.5 + g, 0.5 - g], "b": [0.5, 0.5], "X0": [[1, 1], [1, 0]]},
                   id=f"g={g:g}") for g in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10)),
    *(pytest.param({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [c, 1]]},
                   id=f"c={c:g}") for c in (1e-13, 1e-20, 1e-300)),
]


@pytest.mark.parametrize("data", _NEAR_CRITICAL)
def test_cli_analyze_and_reduce_decide_near_critical_seeds(data, capsys, tmp_path):
    # feasible with full support, the direct iteration's rate near 1: the
    # limits come from the Newton solve, with marginals to 1e-12
    path = tmp_path / "near-critical.json"
    path.write_text(json.dumps(data))
    problem, _ = io.load_problem(path)
    code, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    code, report = run_cli(capsys, "analyze", str(path), "--max-iters", "2000")
    assert code == 0
    assert report["classification"]["behavior"] == "FastConvergence"
    even, odd = (np.array(report["limits"][key]) for key in ("even", "odd"))
    for limit in (even, odd):
        np.testing.assert_allclose(limit.sum(axis=1), problem.a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(limit.sum(axis=0), problem.b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("c", [1e-8, 1e-13, 1e-15, 1e-20, 1e-300])
def test_cli_classify_counts_every_positive_seed_cell(c, capsys, tmp_path):
    # the support is X0 > 0: however small c is, the seed has full support
    # and the iteration converges geometrically
    path = tmp_path / "faint.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "b": [0.5, 0.5], "X0": [[1, 1], [c, 1]]}))
    code, payload = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert payload["behavior"] == "FastConvergence"


def test_cli_decides_a_seed_row_of_one_tiny_cell(capsys, tmp_path):
    # row 1's only cell is 1e-20 of the largest: it is in the support, so
    # the row is not empty, and cell (0, 0) must die for it to carry a_1
    path = tmp_path / "tiny-row.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "b": [0.5, 0.5],
                                "X0": [[1, 1], [1e-20, 0]]}))
    anti = [[False, True], [True, False]]
    code, classified = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert classified["behavior"] == "SlowConvergence"
    assert classified["max_support"] == anti
    code, reduced = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert (np.array(reduced["X0"]) > 0).tolist() == anti
    code, report = run_cli(capsys, "analyze", str(path), "--max-iters", "2000")
    assert code == 0
    assert report["classification"]["behavior"] == "SlowConvergence"
    assert report["sigma"] == anti
    assert [entry["cell"] for entry in report["escaped_cells"]] == [[0, 0]]


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit code, parsed stdout or None)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_cli_classify_stdout(capsys):
    code, payload = run_cli(capsys, "classify", str(io.data_path("divergence-2x2.json")))
    assert code == 0
    assert payload["behavior"] == "Divergence"
    assert payload["causes"][0]["rows"] == [1]
    assert payload["max_support"] is None
    assert payload["tool"]["name"] == "bipfit"


def test_cli_classify_csv_input(capsys):
    code, payload = run_cli(
        capsys, "classify", str(io.data_path("sample-2x2.csv")),
        "--a", "0.6666666666666666,0.3333333333333333",
        "--b", "0.6666666666666666,0.3333333333333333",
    )
    assert code == 0
    assert payload["behavior"] == "FastConvergence"
    assert payload["causes"] == []
    got_support = np.array(payload["max_support"])
    np.testing.assert_array_equal(got_support, [[True, True], [True, False]])


def test_cli_fit_writes_result_and_trace(tmp_path, capsys):
    result = tmp_path / "fit.json"
    trace = tmp_path / "trace.json"
    code = cli.main([
        "fit", str(io.data_path("fast-2x2.json")),
        "--tol", "1e-12", "--out", str(result), "--trace-out", str(trace),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""  # --out suppresses stdout

    payload = json.loads(result.read_text())
    assert payload["stop_reason"] == "Converged"
    assert payload["final_marginal_error"] <= 1e-12
    np.testing.assert_allclose(payload["even"], oracles.FAST_LIMIT, rtol=0, atol=1e-11)
    assert payload["config"]["tol_marginal"] == 1e-12

    history = json.loads(trace.read_text())
    errors = np.array(history["errors"])
    assert history["stop_reason"] == "Converged"
    assert len(history["stored_indices"]) == len(errors)
    assert np.all(np.diff(errors[1:]) <= 1e-14)
    assert len(history["ratio_rows"]) == len(errors)


def test_cli_fit_final_is_the_last_iterate(tmp_path):
    # an odd cap: the final iterate is row-fitted, never the even one before
    out = tmp_path / "fit.json"
    code = cli.main([
        "fit", str(io.data_path("slow-2x2.json")), "--max-iters", "19999",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["iterations"] == 19_999
    final = np.array(payload["final"])
    np.testing.assert_allclose(final, oracles.slow_iterate(19_999), rtol=0, atol=1e-10)
    np.testing.assert_allclose(final.sum(axis=1), oracles.SLOW_A, rtol=0, atol=1e-12)


def test_cli_seed_whose_total_overflows(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "b": [0.5, 0.5],
                                "X0": [[1e308, 1e308], [1e308, 0]]}))
    code, payload = run_cli(capsys, "classify", str(path))
    assert code == 0 and payload["behavior"] == "SlowConvergence"
    code, payload = run_cli(capsys, "fit", str(path), "--max-iters", "200")
    assert code == 0 and payload["iterations"] == 200
    np.testing.assert_allclose(payload["final"], oracles.slow_iterate(200), rtol=0, atol=1e-12)


def test_cli_analyze_report_file(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main([
        "analyze", str(io.data_path("slow-2x2.json")),
        "--max-iters", "2000", "--out", str(out),
    ])
    assert code == 0
    report = io.load_report(out, verify=True)
    assert report["classification"]["behavior"] == "SlowConvergence"
    assert report["config"]["max_iters"] == 2000
    assert report["engine"]["stop_reason"] == "IterationCap"
    np.testing.assert_allclose(report["limits"]["even"], oracles.SLOW_LIMIT,
                               rtol=0, atol=1e-12)
    # the capped direct run is still crawling toward the antidiagonal limit
    assert 0 < report["engine"]["agreement_even_l1"] < 1e-2


def test_cli_analyze_before_the_first_step(tmp_path):
    out = tmp_path / "report.json"
    for name in ("slow-2x2.json", "divergence-2x2.json"):
        argv = ["analyze", str(io.data_path(name)), "--max-iters", "0", "--out", str(out)]
        assert cli.main(argv) == 0, name
        report = io.load_report(out, verify=True)
        assert report["engine"]["iterations"] == 0
        assert report["escaped_cells"] == [
            {"cell": [0, 0], "final_log_sum": 0.0, "still_growing": False}]
        assert '"final_log_sum": 0.0,' in out.read_text()  # not -0.0


def test_cli_reduce_then_fit_pipeline(tmp_path):
    reduced = tmp_path / "reduced.json"
    fitted = tmp_path / "fitted.json"
    assert cli.main(["reduce", str(io.data_path("example-5x6.json")),
                     "--out", str(reduced)]) == 0

    spec = json.loads(reduced.read_text())
    assert spec["name"].endswith("(reduced)")
    np.testing.assert_allclose(spec["a"], oracles.GRID_A_PRIME, rtol=0, atol=1e-12)
    np.testing.assert_allclose(spec["b"], oracles.GRID_B, rtol=0, atol=0)
    reduced_problem, _ = io.problem_from_dict(spec)
    np.testing.assert_array_equal(reduced_problem.support, oracles.GRID_SIGMA)

    assert cli.main(["fit", str(reduced), "--tol", "1e-10",
                     "--out", str(fitted)]) == 0
    payload = json.loads(fitted.read_text())
    assert payload["stop_reason"] == "Converged"
    even = np.array(payload["even"])
    np.testing.assert_allclose(even, oracles.GRID_EVEN_LIMIT, rtol=0, atol=PIPELINE_TOL)
    np.testing.assert_allclose(even.sum(axis=1), oracles.GRID_A_PRIME,
                               rtol=0, atol=PIPELINE_TOL)
    np.testing.assert_allclose(even.sum(axis=0), oracles.GRID_B,
                               rtol=0, atol=PIPELINE_TOL)


def _planted_problem_file(tmp_path, rows):
    """Write a lower-block-triangular divergent problem; return it with its blocks."""
    problem, row_blocks, col_blocks, lambdas = oracles.planted_blocks(
        np.random.default_rng(rows), rows, rows)
    path = tmp_path / f"planted-{rows}.json"
    path.write_text(json.dumps(io.problem_to_dict(problem)))
    return path, problem, row_blocks, col_blocks, lambdas


def test_cli_classify_reduce_analyze_30_row_divergent(tmp_path):
    path, problem, row_blocks, col_blocks, lambdas = _planted_problem_file(tmp_path, 30)
    later_cols = sorted(j for blk in col_blocks[1:] for j in blk)

    out = tmp_path / "classify.json"
    assert cli.main(["classify", str(path), "--out", str(out)]) == 0
    (cause,) = json.loads(out.read_text())["causes"]
    assert tuple(cause["rows"]) == row_blocks[0] and cause["cols"] == later_cols

    out = tmp_path / "reduced.json"
    assert cli.main(["reduce", str(path), "--out", str(out)]) == 0
    a_prime = problem.a.copy()
    for lam, blk in zip(lambdas, row_blocks):
        a_prime[list(blk)] *= lam
    np.testing.assert_allclose(json.loads(out.read_text())["a"], a_prime, rtol=0, atol=1e-12)

    out = tmp_path / "report.json"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
    bs = io.load_report(out, verify=True)["block_structure"]
    assert tuple(map(tuple, bs["row_blocks"])) == row_blocks
    assert tuple(map(tuple, bs["col_blocks"])) == col_blocks


def test_cli_analyze_300_rows_verifies(tmp_path):
    path, problem, row_blocks, col_blocks, lambdas = _planted_problem_file(tmp_path, 300)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
    report = io.load_report(out, verify=True)
    assert report["classification"]["behavior"] == "Divergence"
    bs = report["block_structure"]
    assert tuple(map(tuple, bs["row_blocks"])) == row_blocks
    assert tuple(map(tuple, bs["col_blocks"])) == col_blocks
    np.testing.assert_allclose(bs["lambdas"], lambdas, rtol=1e-12, atol=0)


def test_cli_products_seed_resolution(tmp_path, capsys, monkeypatch):
    spec = str(io.data_path("birkhoff-40.json"))
    monkeypatch.delenv("BIPFIT_SEED", raising=False)

    code, by_flag = run_cli(capsys, "products", spec, "--seed", "11")
    assert code == 0 and by_flag["config"]["seed"] == 11

    code, by_default = run_cli(capsys, "products", spec)
    assert code == 0 and by_default["config"]["seed"] == io.DEFAULT_SEED

    monkeypatch.setenv("BIPFIT_SEED", "7")
    code, by_env = run_cli(capsys, "products", spec)
    assert code == 0 and by_env["config"]["seed"] == 7

    code, flag_wins = run_cli(capsys, "products", spec, "--seed", "11")
    assert code == 0 and flag_wins["config"]["seed"] == 11
    np.testing.assert_array_equal(flag_wins["final_product"], by_flag["final_product"])
    assert np.abs(np.array(by_env["final_product"])
                  - np.array(by_flag["final_product"])).max() > 0

    monkeypatch.setenv("BIPFIT_SEED", "not-an-integer")
    code = cli.main(["products", spec])
    assert code == 2
    assert "BIPFIT_SEED" in capsys.readouterr().err


def test_cli_products_explicit_sequence_with_vectors(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([[[0.5, 0.5], [0.5, 0.5]],
                               [[0.75, 0.25], [0.25, 0.75]]]))
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps([[0.0, 1.0]]))

    code, payload = run_cli(capsys, "products", str(seq), "--vectors", str(vectors))
    assert code == 0
    assert payload["config"]["n_factors"] == 2
    assert payload["assumptions"]["doubly_stochastic"] is True
    # the flat factor kills the dispersion of any tracked vector outright
    assert payload["dispersion_final"] == [0.0]
    assert payload["variation_sum"] >= 0

    vectors.write_text(json.dumps({"not": "a list"}))
    assert cli.main(["products", str(seq), "--vectors", str(vectors)]) == 2


def test_cli_products_birkhoff_matches_reference_loop(capsys):
    code, payload = run_cli(capsys, "products", str(io.data_path("birkhoff-40.json")),
                            "--seed", "3")
    assert code == 0
    ms = oracles.reference_birkhoff_sequence(40, 4, 3, 0.2)
    ref = oracles.reference_product_run(ms, block=products._block_length(40, 4))
    assert payload["final_product"] == ref.final.tolist()
    assert payload["converged"] is True


def test_cli_products_nonconvergent_reports_null(capsys):
    code, payload = run_cli(capsys, "products", str(io.data_path("t0t1-60.json")))
    assert code == 0
    assert payload["converged"] is False
    assert payload["offdiag_report"] is None
    assert payload["assumptions"]["rho"] == "inf"


def test_cli_usage_errors(capsys):
    assert cli.main([]) == 1
    assert "subcommand" in capsys.readouterr().err

    assert cli.main(["classify"]) == 1
    assert cli.main(["fit", str(io.data_path("fast-2x2.json")), "--tol", "-1"]) == 1
    assert cli.main(["classify", "x.json", "--no-such-flag"]) == 1
    assert "usage error" in capsys.readouterr().err

    # NaN compares false with every error: the run would go on to the cap
    for command in ("fit", "analyze"):
        assert cli.main([command, str(io.data_path("slow-2x2.json")), "--tol", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err


@pytest.mark.parametrize("command, data, message", [
    ("classify", {"X0": [[1, -1], [1, 1]], "a": [0.5, 0.5], "b": [0.5, 0.5]},
     "matrix entry (0,1) is negative: -1.0\n"),
    ("classify", {"X0": [[1, 1], [1, 1]], "a": [1.1, -0.1], "b": [0.5, 0.5]},
     "marginal entry 1 is -0.1; every entry must be > 0\n"),
    ("products", [[[1.5, -0.5], [0.5, 0.5]]],
     "factor 0: entry (0,1) is negative: -0.5\n"),
])
def test_cli_input_errors_print_plain_numbers(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.endswith(message)
    assert "np." not in captured.err


def test_cli_input_errors(tmp_path, capsys):
    assert cli.main(["classify", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["classify", str(bad)]) == 2

    assert cli.main(["classify", str(io.data_path("sample-2x2.csv"))]) == 2
    assert cli.main(["classify", str(io.data_path("fast-2x2.json")),
                     "--a", "0.5,0.5"]) == 2
    assert "input error" in capsys.readouterr().err

    huge = tmp_path / "huge.json"
    huge.write_text('{"a": [1' + "0" * 400 + '], "b": [1], "X0": [[1]]}')
    assert cli.main(["classify", str(huge)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and ".a[0]: integer too large" in err

    spec = tmp_path / "spec.json"
    for n_perms in (3.5, "4"):
        spec.write_text(json.dumps({"family": "birkhoff", "count": 2, "dim": 3,
                                    "n_perms": n_perms}))
        assert cli.main(["products", str(spec)]) == 2
        assert "input error" in capsys.readouterr().err


def test_cli_unwritable_output_paths_exit_2_without_a_traceback(tmp_path, capsys):
    problem, missing = str(io.data_path("slow-2x2.json")), tmp_path / "missing" / "x.json"
    out, trace = tmp_path / "fit.json", tmp_path / "trace.json"
    fit = ["fit", problem, "--max-iters", "20"]
    # fit has two outputs: neither is written when one of them cannot be
    for argv in (["classify", problem, "--out", missing], fit + ["--trace-out", missing],
                 fit + ["--out", out, "--trace-out", missing],
                 fit + ["--out", missing, "--trace-out", trace]):
        assert cli.main(list(map(str, argv))) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith(f"input error: cannot write {missing}: ") and "Traceback" not in err
        assert stdout == "" and not out.exists() and not trace.exists()
    # a file that is there keeps its bytes
    out.write_text("kept")
    assert cli.main(list(map(str, fit + ["--out", out, "--trace-out", missing]))) == 2
    assert out.read_text() == "kept"


def test_cli_reduce_rejects_a_non_string_name(tmp_path, capsys):
    data = json.loads(io.data_path("slow-2x2.json").read_text())
    path = tmp_path / "numbered.json"
    path.write_text(json.dumps({**data, "name": 5}))
    assert cli.main(["reduce", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and ".name: expected a string" in err


def test_cli_internal_failure_maps_to_exit_3(capsys, monkeypatch):
    def boom(problem):
        raise InternalCheckError("forced failure")

    monkeypatch.setattr(structure, "classify", boom)
    code = cli.main(["classify", str(io.data_path("fast-2x2.json"))])
    assert code == 3
    assert "internal check failed" in capsys.readouterr().err


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    built = []  # prog of every parser constructed
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    monkeypatch.delenv("BIPFIT_SEED", raising=False)
    cli._build_parser.cache_clear()
    fast = str(io.data_path("fast-2x2.json"))
    spec = str(io.data_path("birkhoff-40.json"))

    code, capped = run_cli(capsys, "fit", fast, "--max-iters", "3")
    assert code == 0 and capped["iterations"] == 3 and capped["config"]["max_iters"] == 3
    code, plain = run_cli(capsys, "fit", fast)
    assert code == 0 and plain["config"]["max_iters"] == StoppingRule().max_iters
    assert plain["iterations"] == engine.run(io.load_problem(fast)[0]).n_iters
    assert plain["stop_reason"] == "Converged" and plain["iterations"] > 3

    assert run_cli(capsys, "products", spec, "--seed", "5")[1]["config"]["seed"] == 5
    assert run_cli(capsys, "products", spec)[1]["config"]["seed"] == io.DEFAULT_SEED

    assert cli.main(["fit", fast, "--max-iters", "x"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert cli.main(["classify", fast]) == 0
    assert cli.main(["--help"]) == 0
    assert "products" in capsys.readouterr().out
    code, payload = run_cli(capsys, "classify", fast)
    assert code == 0 and payload["behavior"] == "FastConvergence"

    # one top-level parser and one per subcommand, each built once
    assert built.count("bipfit") == 1
    assert sorted(built) == sorted(["bipfit"] + [f"bipfit {name}" for name in cli._COMMANDS])


def test_cli_version_and_help(capsys):
    assert cli.main(["--version"]) == 0
    assert "bipfit" in capsys.readouterr().out

    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "classify" in out and "products" in out

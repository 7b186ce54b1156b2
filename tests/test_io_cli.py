"""File formats, analysis reports, and the command-line interface.

CLI tests drive :func:`bipfit.cli.main` in-process and assert on exit codes,
stdout JSON, and written artifacts; nothing here spawns a subprocess.
"""

import json

import numpy as np
import pytest

import bipfit.cli as cli
from bipfit import engine, io, products, structure
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
    ],
)
def test_dumps_matches_reference_on_edge_payloads(obj):
    assert io.dumps(obj) == oracles.reference_dumps(obj)


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


def test_trace_out_and_saved_report_bytes(tmp_path):
    result, trace_out = tmp_path / "fit.json", tmp_path / "trace.json"
    path = io.data_path("example-5x6.json")
    assert cli.main(["fit", str(path), "--max-iters", "500", "--out", str(result),
                     "--trace-out", str(trace_out)]) == 0
    problem, meta = io.load_problem(path)
    trace = engine.run(problem, StoppingRule(max_iters=500))
    assert trace_out.read_text() == oracles.reference_dumps({  # no trailing newline
        "stored_indices": trace.stored_indices,
        "errors": trace.errors,
        "ratio_rows": trace.ratio_rows,
        "ratio_cols": trace.ratio_cols,
        "stop_reason": trace.stop_reason.value,
    })

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
        ("nope", "sequence file"),
    ],
)
def test_sequence_from_spec_rejections(spec, message):
    with pytest.raises(InputError, match=message):
        io.sequence_from_spec(spec)


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
    ref = oracles.reference_product_run(oracles.reference_birkhoff_sequence(40, 4, 3, 0.2))
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


def test_cli_internal_failure_maps_to_exit_3(capsys, monkeypatch):
    def boom(problem):
        raise InternalCheckError("forced failure")

    monkeypatch.setattr(structure, "classify", boom)
    code = cli.main(["classify", str(io.data_path("fast-2x2.json"))])
    assert code == 3
    assert "internal check failed" in capsys.readouterr().err


def test_cli_version_and_help(capsys):
    assert cli.main(["--version"]) == 0
    assert "bipfit" in capsys.readouterr().out

    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "classify" in out and "products" in out

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bipfit import (
    AssumptionCheck,
    StoppingRule,
    assumption_check,
    check_diameter_contraction,
    check_dispersion_decrease,
    check_sorted_partial_sums,
    dispersion,
    is_converged,
    mr_matrix,
    mr_sequence,
    offdiag_convergence_report,
    product_run,
    random_doubly_stochastic,
    random_ratio_bounded_stochastic,
    ratio_update_matrices,
    run,
    t0t1_sequence,
)
from bipfit import cli, io, products
from bipfit.errors import InternalCheckError

import oracles


# ---------------------------------------------------------------------------
# dispersion and the three inequality checkers


def test_dispersion_hand_values():
    assert dispersion([0.0, 1.0]) == 2.0
    assert dispersion([1.0, 2.0, 4.0]) == 12.0
    assert dispersion([3.0, 3.0, 3.0]) == 0.0


def test_diameter_contraction_equality_at_2x2():
    m = np.full((2, 2), 0.5)
    slacks = check_diameter_contraction(m, [0.0, 1.0])
    np.testing.assert_allclose(slacks, [0.0, 0.0, 0.0], atol=1e-15)


_NOT_DS = np.array([[1.0, 0.0], [1.0, 0.0]])  # row stochastic, column sums 2 and 0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda rng: products.random_doubly_stochastic(1, rng),
                 "dimension must be at least 2", id="doubly-d"),
    pytest.param(lambda rng: products.random_doubly_stochastic(3, rng, gamma=1.5),
                 "gamma must lie in [0, 1], got 1.5", id="doubly-gamma"),
    pytest.param(lambda rng: products.random_doubly_stochastic(3, rng, n_perms=2),
                 "need at least d=3 permutations, got 2", id="doubly-n_perms"),
    pytest.param(lambda rng: products.random_ratio_bounded_stochastic(3, rng, rho=0.5),
                 "rho must be >= 1, got 0.5", id="ratio-bounded-rho"),
    pytest.param(lambda rng: products.random_ratio_bounded_stochastic(3, rng, rho=math.nan),
                 "rho must be >= 1, got nan", id="ratio-bounded-rho-nan"),
    pytest.param(lambda rng: products.random_ratio_bounded_stochastic(3, rng, gamma=1.0),
                 "gamma must lie in [0, 1), got 1.0", id="ratio-bounded-gamma"),
    pytest.param(lambda rng: is_converged(product_run(np.stack([np.eye(3)] * 5)), tol=math.nan),
                 "tol must be >= 0, got nan", id="converged-tol-nan"),
    pytest.param(lambda rng: is_converged(product_run(np.stack([np.eye(3)] * 5)), tol=-1.0),
                 "tol must be >= 0, got -1.0", id="converged-tol-negative"),
    pytest.param(lambda rng: offdiag_convergence_report(
                     product_run(np.stack([np.eye(3)] * 5)), tail_tol=math.nan),
                 "tail_tol must be >= 0, got nan", id="offdiag-tail-tol-nan"),
    pytest.param(lambda rng: offdiag_convergence_report(
                     product_run(np.stack([np.eye(3)] * 5)), row_diff_tol=math.nan),
                 "row_diff_tol must be >= 0, got nan", id="offdiag-row-diff-tol-nan"),
    pytest.param(lambda rng: products.mr_sequence(3, [0.5, 0.5]), "need 3 r values, got 2",
                 id="mr-count"),
    pytest.param(lambda rng: product_run(products.mr_sequence(2), [np.ones(3)]),
                 "tracked vector of size 3, expected 2", id="tracked-size"),
    pytest.param(lambda rng: check_diameter_contraction(np.ones((2, 2, 2)), [0.0, 1.0]),
                 "stochastic matrix must be 2-D", id="diameter-3-D"),
    pytest.param(lambda rng: check_diameter_contraction([[0.5, 0.6], [0.5, 0.5]], [0.0, 1.0]),
                 "row sums deviate from 1 by 0.1", id="diameter-rows"),
    pytest.param(lambda rng: check_dispersion_decrease(np.full((2, 3), 1 / 3), [0.0, 1.0, 2.0], 0.0),
                 "expected a square matrix, got (2, 3)", id="dispersion-square"),
    pytest.param(lambda rng: check_dispersion_decrease(_NOT_DS, [0.0, 1.0], 0.0),
                 "column sums deviate from 1 by 1; not doubly stochastic", id="dispersion-columns"),
    pytest.param(lambda rng: check_sorted_partial_sums(np.full((3, 2), 0.5), [0.0, 1.0], 1),
                 "expected a square matrix, got (3, 2)", id="partial-sums-square"),
    pytest.param(lambda rng: check_sorted_partial_sums(_NOT_DS, [0.0, 1.0], 1),
                 "column sums deviate from 1 by 1; not doubly stochastic", id="partial-sums-columns"),
])
def test_products_input_checks_name_what_failed(rng, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(rng)


def test_dispersion_decrease_hand_value():
    slack = check_dispersion_decrease(np.full((2, 2), 0.5), [0.0, 1.0], gamma=0.5)
    assert slack == pytest.approx(1.5, abs=1e-15)


def test_dispersion_decrease_preconditions():
    with pytest.raises(ValueError, match="row sums"):
        check_dispersion_decrease(np.array([[0.9, 0.2], [0.1, 0.8]]), [0.0, 1.0], 0.1)
    with pytest.raises(ValueError, match="gamma"):
        check_dispersion_decrease(np.full((2, 2), 0.5), [0.0, 1.0], gamma=0.9)


def test_sorted_partial_sums_hand_values():
    m = np.full((2, 2), 0.5)
    assert check_sorted_partial_sums(m, [0.0, 1.0], k=1) == pytest.approx(0.5)
    assert check_sorted_partial_sums(m, [0.0, 1.0], k=2) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="k must"):
        check_sorted_partial_sums(m, [0.0, 1.0], k=3)


def test_checkers_reject_a_vector_of_the_wrong_size():
    m = np.full((3, 3), 1 / 3)
    for check in (lambda v: check_diameter_contraction(m, v),
                  lambda v: check_dispersion_decrease(m, v, 0.1),
                  lambda v: check_sorted_partial_sums(m, v, 1)):
        for v in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0]):
            message = f"shape mismatch: \\(3, 3\\) vs vector of {len(v)}"
            with pytest.raises(ValueError, match=message):
                check(v)


@settings(max_examples=150)
@given(
    v=arrays(np.float64, (4,), elements=st.floats(min_value=-10, max_value=10)),
    seed=st.integers(0, 2**31),
    gamma=st.floats(min_value=0.0, max_value=0.9),
)
def test_checker_slacks_nonnegative(v, seed, gamma):
    rng = np.random.default_rng(seed)
    m = random_doubly_stochastic(4, rng, gamma=gamma)
    slacks = check_diameter_contraction(m, v)
    assert min(slacks) >= -1e-12
    assert check_dispersion_decrease(m, v, gamma) >= -1e-12
    for k in range(1, 5):
        assert check_sorted_partial_sums(m, v, k) >= -1e-12


# ---------------------------------------------------------------------------
# the two generator counterexample families


def test_mr_matrices_multiply_by_parameter_product():
    r1, r2 = 0.3, 0.8
    np.testing.assert_allclose(
        mr_matrix(r2) @ mr_matrix(r1), mr_matrix(r1 * r2), atol=1e-15
    )


def test_mr_sequence_product_closed_form():
    ms = mr_sequence(60)
    trace = product_run(ms)
    limit = mr_matrix(math.exp(-1.0))
    np.testing.assert_allclose(trace.final, limit, atol=1e-12)
    assert (trace.final > 0).all()
    assert is_converged(trace)
    checks = trace.assumptions
    assert checks.rho == pytest.approx(1.0)
    assert checks.gamma == pytest.approx((1 + math.exp(-0.5)) / 2)
    assert checks.doubly_stochastic


def test_mr_offdiag_series_bounded_despite_distinct_limit_rows():
    trace = product_run(mr_sequence(60))
    reports = offdiag_convergence_report(trace)
    assert len(reports) == 1
    rep = reports[0]
    assert (rep.i, rep.j) == (0, 1)
    assert rep.bounded_ij and rep.bounded_ji
    # sum of (1 - r_n)/2 with r_n = exp(-2^-n)
    expected = sum((1 - math.exp(-(2.0 ** -n))) / 2 for n in range(1, 61))
    assert rep.sum_ij == pytest.approx(expected, abs=1e-12)
    assert rep.sum_ji == pytest.approx(expected, abs=1e-12)


def test_t0t1_alternation_diverges():
    ms = t0t1_sequence(60)
    checks = assumption_check(ms)
    assert checks.gamma == pytest.approx(0.5)
    assert checks.rho == np.inf
    assert not checks.doubly_stochastic
    trace = product_run(ms)
    assert not is_converged(trace)
    # oscillation, not settling: late variations stay macroscopic
    assert trace.variations[-10:].min() > 1e-3
    with pytest.raises(ValueError, match="not converged"):
        offdiag_convergence_report(trace)


def test_offdiag_report_rejects_a_limit_of_another_shape(rng):
    trace = product_run(products._random_ratio_bounded_stack(300, 3, rng, 0.2, 5.0))
    assert is_converged(trace)
    assert len(offdiag_convergence_report(trace, limit=np.eye(3))) == 3
    for d in (2, 4):
        with pytest.raises(ValueError, match=f"limit of shape \\({d}, {d}\\)"):
            offdiag_convergence_report(trace, limit=np.eye(d))
    with pytest.raises(ValueError, match="limit of shape \\(9,\\)"):
        offdiag_convergence_report(trace, limit=np.eye(3).ravel())


def test_mr_values_validated():
    with pytest.raises(ValueError):
        mr_matrix(1.5)
    with pytest.raises(ValueError):
        mr_sequence(0)


# ---------------------------------------------------------------------------
# random generator families


def test_random_doubly_stochastic_invariants(rng):
    for _ in range(40):
        gamma = float(rng.uniform(0, 0.8))
        m = random_doubly_stochastic(int(rng.integers(2, 6)), rng, gamma=gamma)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert (m >= 0).all()
        assert np.diag(m).min() >= gamma - 1e-15


def test_random_ratio_bounded_invariants(rng):
    for _ in range(40):
        rho = float(rng.uniform(1.5, 8.0))
        gamma = float(rng.uniform(0.05, 0.6))
        m = random_ratio_bounded_stochastic(int(rng.integers(2, 6)), rng,
                                            gamma=gamma, rho=rho)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert (m > 0).all()
        assert np.diag(m).min() >= gamma
        off = ~np.eye(m.shape[0], dtype=bool)
        ratios = (m / m.T)[off]
        assert ratios.max() <= rho * (1 + 1e-12)
        checks = assumption_check([m])
        assert checks.gamma >= gamma
        assert checks.rho <= rho * (1 + 1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ratio_bounded_stack_draws_the_per_call_stream(d):
    for seed, gamma, rho in ((0, 0.2, 5.0), (9, 0.0, 1.0), (4, 0.55, 30.0)):
        per_call, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [oracles.reference_ratio_bounded(d, per_call, gamma, rho) for _ in range(500)]
        got = products._random_ratio_bounded_stack(500, d, stacked, gamma, rho)
        assert got.tobytes() == np.stack(want).tobytes()
        assert stacked.bit_generator.state == per_call.bit_generator.state
        one = random_ratio_bounded_stochastic(d, np.random.default_rng(seed), gamma, rho)
        assert one.tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# product runs


def test_product_run_tracks_dispersion_monotone_for_doubly_stochastic(rng):
    ms = [random_doubly_stochastic(4, rng, gamma=0.2) for _ in range(50)]
    v = rng.normal(size=4)
    trace = product_run(ms, tracked_vectors=[v])
    assert trace.dispersion_history.shape == (50, 1)
    assert (np.diff(trace.dispersion_history[:, 0]) <= 1e-12).all()


def _reference_cases():
    rng = np.random.default_rng(31)
    blocks = np.zeros((30, 4, 4))
    for m in blocks:
        m[:2, :2] = random_ratio_bounded_stochastic(2, rng)
        m[2:, 2:] = random_ratio_bounded_stochastic(2, rng)
    return {
        "mr-60": io.load_sequence(io.data_path("mr-60.json")),
        "t0t1-60": io.load_sequence(io.data_path("t0t1-60.json")),
        "birkhoff-4x4": io.load_sequence(io.data_path("birkhoff-40.json"), seed=3),
        "birkhoff-8x8": io.sequence_from_spec(
            {"family": "birkhoff", "count": 400, "dim": 8, "gamma": 0.1}, seed=5),
        "ratio-bounded-3x3": [random_ratio_bounded_stochastic(3, rng, gamma=0.2, rho=5.0)
                              for _ in range(2000)],
        "block-diagonal": list(blocks),
        "single": [np.eye(3)],
    }


@pytest.mark.parametrize("n_tracked", [0, 2])
@pytest.mark.parametrize("name", list(_reference_cases()))
def test_product_run_matches_reference_loop(name, n_tracked):
    ms = _reference_cases()[name]
    vectors = list(np.random.default_rng(n_tracked).normal(size=(n_tracked, len(ms[0]))))
    trace = product_run(ms, tracked_vectors=vectors)
    block = products._block_length(len(ms), len(ms[0]))
    ref = oracles.reference_product_run(ms, vectors, block)
    np.testing.assert_array_equal(trace.partial_products, ref.partial_products)
    np.testing.assert_array_equal(trace.final, ref.final)
    assert len(trace.partial_products) == len(ms)
    for got, want in ((trace.variations, ref.variations),
                      (trace.dispersion_history, ref.dispersion_history),
                      (trace.offdiag_partial_sums, ref.offdiag_partial_sums)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert trace.dispersion_history.shape == (len(ms), n_tracked)
    assert (trace.assumptions.gamma, trace.assumptions.rho,
            trace.assumptions.doubly_stochastic) == ref.assumptions
    if is_converged(trace):
        for rep in offdiag_convergence_report(trace):
            sums = ref.offdiag_partial_sums
            assert abs(rep.sum_ij - sums[-1, rep.i, rep.j]) <= 1e-13
            assert abs(rep.sum_ji - sums[-1, rep.j, rep.i]) <= 1e-13


def _drift(partials) -> np.ndarray:
    """Row-sum drift ``max_i |sum_j P_t(i, j) - 1|`` of each partial product."""
    return np.abs(np.sum(partials, axis=2) - 1.0).max(axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 288, 289, 290, 10_000])
@pytest.mark.parametrize("d", [3, 8])
def test_blocked_partials_stay_within_rounding_of_the_chain(d, n):
    rng = np.random.default_rng(n)
    for ms in (products._random_ratio_bounded_stack(n, d, rng, 0.2, 5.0),
               products._random_doubly_stochastic_stack(n, d, rng, gamma=0.1)):
        got = product_run(ms).partial_products
        chain = np.array(oracles.reference_product_run(ms, block=1).partial_products)
        assert np.abs(got - chain).max() <= 1e-13
        # both orders lie within t d u (u = eps / 2) of the exact P_t in the
        # max-row-sum norm, so their row sums differ by at most 2 t d u.  The
        # blocked drift is not bounded by the chain's alone: on the doubly
        # stochastic 8x8 factors at 10 000 it reads 1.5e-13 against 1.8e-15
        bound = np.arange(1, n + 1) * d * np.finfo(float).eps
        assert (_drift(got) <= _drift(chain) + bound).all()


def test_block_length_is_the_square_root_inside_the_crossovers():
    low, high = products._BLOCKED_MIN_FACTORS, products._BLOCKED_MAX_DIM
    for n in (low, 289, 290, 10_000):
        s = math.isqrt(n - 1) + 1
        assert products._block_length(n, 3) == products._block_length(n, high) == s
    assert products._block_length(low - 1, 3) == products._block_length(10_000, high + 1) == 1


@pytest.mark.parametrize("n, d", [(400, products._BLOCKED_MAX_DIM + 1), (400, 24),
                                  (products._BLOCKED_MIN_FACTORS - 1, 3)])
def test_outside_the_crossovers_partials_are_the_chain_bitwise(n, d):
    rng = np.random.default_rng(d)
    ms = products._random_ratio_bounded_stack(n, d, rng, 0.2, 5.0)
    ref = oracles.reference_product_run(ms, block=1)
    assert product_run(ms).partial_products.tobytes() == np.array(ref.partial_products).tobytes()


def test_drifting_partial_is_named_by_its_own_index(monkeypatch):
    # 3640 3x3 factors per block of the summary loop: 217 lies inside the
    # first block, 4000 inside the second
    ms = products._random_ratio_bounded_stack(5000, 3, np.random.default_rng(5), 0.2, 5.0)
    partials = products._backward_partials(ms)
    real = products._backward_partials
    for index in (217, 4000):
        def corrupted(stack, scale, index=index):
            out = real(stack)
            out[index] *= scale
            out[index + 5] *= 1 + 1e-6  # a later drift is not the one named
            return out

        monkeypatch.setattr(products, "_backward_partials",
                            lambda stack: corrupted(stack, 1 + 3e-10))
        drift = _drift((partials[index] * (1 + 3e-10))[None])[0]
        with pytest.raises(InternalCheckError,
                           match=f"partial product {index + 1} drifted off stochasticity "
                                 f"by {drift:g}$"):
            product_run(ms)
        # half the tolerance is within it; only the later partial is named
        monkeypatch.setattr(products, "_backward_partials",
                            lambda stack: corrupted(stack, 1 + 5e-11))
        with pytest.raises(InternalCheckError, match=f"partial product {index + 6} drifted"):
            product_run(ms)


@pytest.mark.parametrize("excess, raises", [(-2e-13, False), (2e-13, True)])
def test_drift_allowance_is_that_of_the_partials_own_index(monkeypatch, excess, raises):
    # exact factors (J/4, an idempotent) leave only the rounding allowance,
    # t d u past DRIFT_TOL; the first partial of the second block of 2048
    # 4x4 factors gets its own allowance, not the block's last one
    ms = np.full((5000, 4, 4), 0.25)
    t = 2049
    allowed = products.DRIFT_TOL + t * 4 * 2.0 ** -53
    real = products._backward_partials

    def corrupted(stack):
        out = real(stack)
        out[t - 1] *= 1 + allowed + excess
        return out

    monkeypatch.setattr(products, "_backward_partials", corrupted)
    drift = _drift(corrupted(ms)[t - 1:t])[0]
    assert (drift > allowed) == raises
    if raises:
        with pytest.raises(InternalCheckError, match=f"partial product {t} drifted"):
            product_run(ms)
    else:
        assert product_run(ms).variations[t - 2] > 0


def test_factors_accepted_with_biased_row_sums_multiply_out(tmp_path, capsys):
    # each row sums to 1 + 9e-13, within ROW_SUM_TOL; the products drift by
    # about t 9e-13, past DRIFT_TOL from t = 112, which those factors explain
    ms = np.array([np.eye(3) * (1 + 9e-13)] * 200)
    trace = product_run(ms)
    assert _drift(trace.partial_products)[-1] > 1.5 * products.DRIFT_TOL
    seq = tmp_path / "biased.json"
    seq.write_text(json.dumps(ms.tolist()))
    assert cli.main(["products", str(seq)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["n_factors"] == 200


@pytest.mark.parametrize("defect, message",
                         [("negative", "negative"), ("rows", "row sums"), ("nan", "row sums")])
def test_errors_name_the_offending_factor(rng, defect, message):
    ms = [random_ratio_bounded_stochastic(3, rng) for _ in range(500)]
    bad = ms[317].copy()
    if defect == "negative":
        bad[1, 0], bad[1, 1] = -0.25, bad[1, 1] + bad[1, 0] + 0.25
    elif defect == "rows":
        bad[2] *= 1.01
    else:
        bad[0, 2] = np.nan
    ms[317] = bad
    for check in (product_run, assumption_check):
        with pytest.raises(ValueError, match=f"factor 317\\b.*{message}"):
            check(ms)


def _expected_check(ms):
    """The per-factor verdict on ``ms``: the first violation's message, or the oracle's summary."""
    for k, m in enumerate(ms):
        bad = products._first_violation(np.asarray(m, dtype=float)[None], products.ROW_SUM_TOL)
        if bad:
            return f"factor {k}: {bad[1]}"
    return AssumptionCheck(*oracles.reference_assumptions(ms))


def _screened(ms):
    """``assumption_check(ms)``, or the message of the ``ValueError`` it raises."""
    try:
        return assumption_check(ms)
    except ValueError as exc:
        return str(exc)


def _summing_to(m, cells, total, target):
    """``m`` with one of ``cells`` moved until numpy's own sum ``total(m)`` is ``target``.

    The largest cell moves first, by the gap and then ulp by ulp; should a
    step jump over ``target``, the next largest cell walks back.
    """
    cells = sorted(cells, key=lambda cell: -m[cell])
    m[cells[0]] += target - total(m)
    for cell in cells:
        side = np.sign(target - total(m))
        for _ in range(100):
            if total(m) == target:
                return m
            if np.sign(target - total(m)) != side:
                break
            m[cell] = np.nextafter(m[cell], side * np.inf)
    raise AssertionError(f"no entry of {cells} gives the sum {target!r}")


def _border_cases(base, rng):
    """``base`` with one row sum, or one column sum, at the tolerance or one ulp off it."""
    d = len(base)
    tol = products.ROW_SUM_TOL
    targets = [t for edge in (1 + tol, 1 - tol)
               for t in (edge, np.nextafter(edge, 2.0), np.nextafter(edge, 0.0))]
    for target in targets:
        i, j = (int(x) for x in rng.permutation(d)[:2]) if d > 1 else (0, 0)
        row = [(i, c) for c in (i, *(c for c in range(d) if c != i))]
        yield _summing_to(base.copy(), row, lambda m: np.sum(m[None], axis=2)[0, i], target)
        m = base.copy()
        if d > 1:  # column j gains, the rest of row i pays: row i stays near 1
            m[i, j] += target - 1.0
            m[i, np.arange(d) != j] -= (target - 1.0) / (d - 1)
        col = [(i, j), *((r, j) for r in range(d) if r != i)]
        yield _summing_to(m, col, lambda m: np.sum(m[None], axis=1)[0, j], target)


def _special_cases(base, rng):
    """``base`` with NaN, infinite, negative or signed-zero entries, or zeroed pairs."""
    d = len(base)
    i, j = (int(x) for x in rng.permutation(d)[:2]) if d > 1 else (0, 0)
    for value in (np.nan, np.inf, -np.inf, -1e-300, -0.0):
        m = base.copy()
        m[i, j] = value
        yield m
    m = base.copy()
    m[i, i], m[i, j] = m[i, i] + m[i, j] + 0.25, -0.25  # row sum kept, one entry negative
    yield m
    if d > 1:
        for zeros in ((0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, None), (0.0, None)):
            m = base.copy()  # a 0/0 pair, or a zero facing a positive entry
            for (r, c), z in zip(((i, j), (j, i)), zeros):
                if z is not None:
                    m[r, r] += m[r, c]
                    m[r, c] = z
            yield m


@pytest.mark.parametrize("d", range(1, 21))
def test_block_screen_agrees_with_the_per_factor_checks(monkeypatch, d):
    rng = np.random.default_rng(d)
    bounded = products._random_ratio_bounded_stack(10, d, rng, 0.2, 5.0)
    doubly = (products._random_doubly_stochastic_stack(10, d, rng, gamma=0.2) if d > 1
              else np.ones((10, 1, 1)))
    # three factors per block: factor 7 sits inside the third block, and in
    # the ratio-bounded stack it follows two blocks of finite rho
    monkeypatch.setattr(products, "_BLOCK", 3 * d * d)
    for stack in (bounded, doubly):
        cases = [*_border_cases(stack[7], rng), *_special_cases(stack[7], rng)]
        for case in cases:
            ms = stack.copy()
            ms[7] = case
            want = _expected_check(list(ms))
            assert _screened(ms) == want
            assert _screened(case[None]) == _expected_check([case])
            if isinstance(want, str):
                with pytest.raises(ValueError, match=re.escape(want)):
                    product_run(ms)
            else:
                assert product_run(ms).assumptions == want
        assert _screened(m for m in stack) == _expected_check(list(stack))


def test_block_screen_meets_both_verdicts_at_the_border():
    # the border cases must land on both sides of each tolerance
    rng = np.random.default_rng(0)
    for d in (3, 8, 13):
        base = products._random_doubly_stochastic_stack(1, d, rng, gamma=0.2)[0]
        verdicts = [_expected_check([m]) for m in _border_cases(base, rng)]
        rows, cols = verdicts[0::2], verdicts[1::2]
        assert any(isinstance(v, str) for v in rows)
        assert any(isinstance(v, AssumptionCheck) for v in rows)
        flags = [v.doubly_stochastic for v in cols if isinstance(v, AssumptionCheck)]
        assert True in flags and False in flags


def test_a_lone_matrix_is_not_a_stack():
    for check in (product_run, assumption_check):
        with pytest.raises(ValueError, match=re.escape(
                "expected an (n, d, d) stack of factors, got shape (3, 3)")):
            check(np.eye(3))
    with pytest.raises(ValueError, match=re.escape("got shape (2, 2, 2, 2)")):
        product_run(np.ones((2, 2, 2, 2)) / 2)
    with pytest.raises(ValueError, match="stochastic matrix must be 2-D"):
        product_run([np.ones(3) / 3])  # a list of rows, not of matrices


def test_assumption_check_edge_inputs(divergence_problem):
    assert assumption_check([]) == AssumptionCheck(gamma=np.inf, rho=1.0,
                                                   doubly_stochastic=True)
    ms = t0t1_sequence(7)
    assert assumption_check(m for m in ms) == assumption_check(ms)
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=40)
    ps = ratio_update_matrices(run(divergence_problem, rule))
    assert assumption_check(ps) == assumption_check(np.array(ps))


def test_product_run_rejects_bad_input(rng):
    with pytest.raises(ValueError, match="empty"):
        product_run([])
    with pytest.raises(ValueError, match="row sums"):
        product_run([np.array([[0.9, 0.2], [0.1, 0.8]])])
    with pytest.raises(ValueError, match="dimensions"):
        product_run([np.eye(2), np.eye(3)])


def test_block_diagonal_zeros_survive_products_exactly(rng):
    blocks = []
    for _ in range(30):
        m = np.zeros((4, 4))
        m[:2, :2] = random_ratio_bounded_stochastic(2, rng)
        m[2:, 2:] = random_ratio_bounded_stochastic(2, rng)
        blocks.append(m)
    trace = product_run(blocks)
    assert (trace.final[:2, 2:] == 0.0).all()
    assert (trace.final[2:, :2] == 0.0).all()


def test_single_factor_trace_is_trivially_converged():
    trace = product_run([np.eye(3)])
    assert trace.variations.size == 0
    assert is_converged(trace)


# ---------------------------------------------------------------------------
# the bridge from the fitting engine: harvested ratio-update factors


def test_harvested_factors_satisfy_stated_bounds(divergence_problem):
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=60)
    trace = run(divergence_problem, rule)
    ps = ratio_update_matrices(trace)
    a = divergence_problem.a
    checks = assumption_check(ps)
    # every factor's diagonal dominates the smaller target row mass, and the
    # skew between opposite off-diagonal entries is set by the mass ratio:
    # P(k,i) a_k = P(i,k) a_i exactly
    assert checks.gamma >= a.min() - 1e-12
    assert checks.rho <= a.max() / a.min() + 1e-12
    for p in ps:
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(p * a[:, None], (p * a[:, None]).T, atol=1e-13)


def test_harvested_factor_product_converges(divergence_problem):
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=120)
    trace = run(divergence_problem, rule)
    ps = ratio_update_matrices(trace)
    ptrace = product_run(ps)
    assert is_converged(ptrace)
    # the product applied to the first even ratio vector gives the limiting
    # per-block scaling factors, ordered per row
    limits = ptrace.final @ trace.ratios(2).rows
    np.testing.assert_allclose(limits, [2.0, 0.5], atol=1e-8)

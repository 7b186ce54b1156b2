import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bipfit import (
    FittingProblem,
    as_marginals,
    check_matrix,
    fit_cols,
    fit_rows,
    kl_divergence,
    likelihood_product,
    marginal_error,
    marginal_ratios,
    support_of,
)

import oracles


# ---------------------------------------------------------------------------
# input validation


def test_as_marginals_renormalizes():
    out = as_marginals([0.5, 0.5 + 1e-12])
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-11)


def test_as_marginals_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 2"):
        as_marginals([1.0])
    with pytest.raises(ValueError, match="> 0"):
        as_marginals([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="sum_tol"):
        as_marginals([0.6, 0.6])
    with pytest.raises(ValueError, match="finite"):
        as_marginals([0.5, np.nan])


def test_seed_whose_total_overflows_keeps_its_shape(rng):
    big = FittingProblem([[1e308, 1e308], [1e308, 0.0]], [0.5, 0.5], [0.5, 0.5])
    np.testing.assert_array_equal(big.x0, FittingProblem(oracles.SLOW_X0, [0.5, 0.5],
                                                         [0.5, 0.5]).x0)
    assert big.support.sum() == 3
    # a finite total is still divided as it was, bit for bit
    x0 = rng.random((5, 6)) * 1e300
    np.testing.assert_array_equal(FittingProblem(x0, np.full(5, 0.2), np.full(6, 1 / 6)).x0,
                                  x0 / x0.sum())


def test_as_marginals_singleton_allowed_for_blocks():
    np.testing.assert_array_equal(as_marginals([1.0], min_size=1), [1.0])


def test_check_matrix_naming_violations():
    with pytest.raises(ValueError, match="2-D"):
        check_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="negative"):
        check_matrix([[1.0, -0.1], [0.2, 0.3]])
    with pytest.raises(ValueError, match="row"):
        check_matrix([[0.0, 0.0], [0.2, 0.3]])
    with pytest.raises(ValueError, match="column"):
        check_matrix([[0.5, 0.0], [0.2, 0.0]])


_UNIFORM = np.full((2, 2), 0.25)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: check_matrix([[1.0, 2.0]]), "matrix must be at least 2x2, got 1x2",
                 id="check_matrix-1x2"),
    pytest.param(lambda: check_matrix([[1.0, 2.0], [3.0, math.nan]]),
                 "matrix contains non-finite entries", id="check_matrix-nan"),
    pytest.param(lambda: check_matrix([[1.0, math.inf], [3.0, 4.0]]),
                 "matrix contains non-finite entries", id="check_matrix-inf"),
    pytest.param(lambda: fit_rows([[1.0, 1.0], [0.0, 0.0]], [0.5, 0.5]),
                 "row 1 has zero sum; cannot fit rows", id="fit_rows"),
    pytest.param(lambda: fit_cols([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5]),
                 "column 1 has zero sum; cannot fit columns", id="fit_cols"),
    pytest.param(lambda: kl_divergence(_UNIFORM, np.full((1, 4), 0.25)),
                 "shape mismatch: (2, 2) vs (1, 4)", id="kl-shape"),
    pytest.param(lambda: kl_divergence(2 * _UNIFORM, _UNIFORM), "y must have total mass 1, got 2.0",
                 id="kl-mass-y"),
    pytest.param(lambda: kl_divergence(_UNIFORM, 2 * _UNIFORM), "x must have total mass 1, got 2.0",
                 id="kl-mass-x"),
    pytest.param(lambda: likelihood_product(_UNIFORM, np.ones((2, 3))),
                 "shape mismatch: (2, 2) vs (2, 3)", id="likelihood-shape"),
    pytest.param(lambda: likelihood_product(2 * _UNIFORM, _UNIFORM),
                 "weights must have total mass 1, got 2.0", id="likelihood-mass"),
])
def test_core_input_checks_name_what_failed(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_support_of_relative_threshold():
    x = np.array([[1.0, 1e-20], [0.5, 0.0]])
    np.testing.assert_array_equal(
        support_of(x), [[True, False], [True, False]]
    )


def test_entropy_helpers_count_every_positive_entry():
    # 1e-20 is below support_of's threshold, but it is mass all the same
    x = np.array([[0.5, 0.5 - 1e-20], [1e-20, 0.0]])
    assert not support_of(x)[1, 0]
    y = np.array([[0.25, 0.25], [0.5, 0.0]])
    assert kl_divergence(y, x) == pytest.approx(10 * np.log(10) - np.log(2), rel=1e-14)
    assert kl_divergence(y, x) == pytest.approx(22.33, abs=5e-3)
    w = np.array([[0.5, 0.0], [0.5, 0.0]])
    assert likelihood_product(w, x) == pytest.approx(np.sqrt(0.5) * 1e-10, rel=1e-14)
    # mass where the other matrix is exactly 0 still gives +inf and 0.0
    z = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert kl_divergence(y, z) == np.inf
    assert likelihood_product(w, z) == 0.0


# ---------------------------------------------------------------------------
# single fitting steps, hand values


def test_fit_rows_hand_value():
    got = fit_rows(oracles.FAST_X0, oracles.FAST_A)
    np.testing.assert_allclose(
        got, [[4.0 / 9.0, 2.0 / 9.0], [1.0 / 3.0, 0.0]], atol=1e-15
    )


def test_fit_cols_hand_value():
    y = fit_rows(oracles.FAST_X0, oracles.FAST_A)
    got = fit_cols(y, oracles.FAST_A)
    np.testing.assert_allclose(
        got, [[8.0 / 21.0, 1.0 / 3.0], [2.0 / 7.0, 0.0]], atol=1e-15
    )


def test_fit_rows_and_cols_fit_each_matrix_of_a_stack():
    stack = np.random.default_rng(7).random((3, 2, 4))
    a, b = np.array([0.25, 0.75]), np.full(4, 0.25)
    for fit, target in ((fit_rows, a), (fit_cols, b)):
        got = fit(stack, target)
        np.testing.assert_array_equal(got, np.stack([fit(x, target) for x in stack]))


def test_fitting_preserves_exact_zeros():
    x = np.array([[0.3, 0.0, 0.2], [0.0, 0.4, 0.1]])
    a = np.array([0.5, 0.5])
    y = fit_rows(x, a)
    assert y[0, 1] == 0.0 and y[1, 0] == 0.0
    z = fit_cols(y, np.array([0.2, 0.3, 0.5]))
    assert z[0, 1] == 0.0 and z[1, 0] == 0.0


def test_marginal_ratios_and_error_slow_first_step():
    x1 = fit_rows(oracles.SLOW_X0, oracles.SLOW_A)
    ratios = marginal_ratios(x1, oracles.SLOW_A, oracles.SLOW_A)
    np.testing.assert_allclose(ratios.rows, [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(ratios.cols, [1.5, 0.5], atol=1e-15)
    assert marginal_error(x1, oracles.SLOW_A, oracles.SLOW_A) == pytest.approx(0.5)


@settings(max_examples=100)
@given(
    x=arrays(
        np.float64,
        (3, 4),
        elements=st.floats(min_value=0.0, max_value=5.0),
    ),
    a_raw=arrays(
        np.float64,
        (3,),
        elements=st.floats(min_value=0.1, max_value=3.0),
    ),
)
def test_fit_rows_property(x, a_raw):
    # make every row and column usable
    x = x + np.full_like(x, 1e-3)
    a = a_raw / a_raw.sum()
    y = fit_rows(x, a)
    np.testing.assert_allclose(y.sum(axis=1), a, rtol=1e-12)
    np.testing.assert_array_equal(support_of(y) | ~support_of(x), np.ones_like(y, bool))


# ---------------------------------------------------------------------------
# problems


def test_problem_normalizes_and_locks():
    prob = FittingProblem(np.array([[2.0, 1.0], [1.0, 0.0]]), oracles.FAST_A, oracles.FAST_A)
    assert prob.x0.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(prob.x0, oracles.FAST_X0)
    with pytest.raises(ValueError):
        prob.x0[0, 0] = 5.0
    with pytest.raises(ValueError):
        prob.a[0] = 5.0
    assert prob.shape == (2, 2)
    np.testing.assert_array_equal(prob.support, [[True, True], [True, False]])


def test_problem_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        FittingProblem(np.ones((2, 3)) / 6.0, np.array([0.5, 0.5]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# divergences


def test_kl_divergence_diagonal_hand_value():
    x = np.diag([0.25, 0.75])
    y = np.diag([0.5, 0.5])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert kl_divergence(y, x) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.1438410362258904, abs=1e-15)


def test_kl_divergence_zero_on_equal_and_inf_on_escape():
    x = np.array([[0.25, 0.25], [0.25, 0.25]])
    assert kl_divergence(x, x) == 0.0
    y = np.array([[0.25, 0.25], [0.25, 0.25]])
    x_holed = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert kl_divergence(y, x_holed) == np.inf


def test_kl_divergence_ignores_shared_zeros():
    x = np.array([[0.5, 0.0], [0.5, 0.0]])
    y = np.array([[0.25, 0.0], [0.75, 0.0]])
    assert np.isfinite(kl_divergence(y, x))


def test_likelihood_product_zero_conventions():
    w = np.array([[0.5, 0.0], [0.5, 0.0]])
    x = np.array([[0.25, 0.0], [0.5, 0.0]])
    # 0^0 factors drop out
    assert likelihood_product(w, x) == pytest.approx(0.25 ** 0.5 * 0.5 ** 0.5)
    # positive weight on a vanished cell kills the product
    w2 = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert likelihood_product(w2, x) == 0.0


@settings(max_examples=60)
@given(
    y=arrays(np.float64, (2, 3), elements=st.floats(min_value=0.01, max_value=1.0)),
    x=arrays(np.float64, (2, 3), elements=st.floats(min_value=0.01, max_value=1.0)),
)
def test_kl_divergence_nonnegative_on_matched_mass(y, x):
    y = y / y.sum()
    x = x / x.sum()
    assert kl_divergence(y, x) >= 0.0

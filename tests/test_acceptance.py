"""Acceptance gate: one test per shipping criterion.

Each test is self-contained, pins its tolerances inline, and (where the
criterion carries a runtime budget) measures wall time around the actual
work.  The terminal-summary hook in conftest.py turns these into one
PASS/FAIL line per criterion at the end of the run.
"""

import time

import numpy as np
import pytest

from bipfit import engine, products, structure
from bipfit.core import FittingProblem, fit_cols, fit_rows
from bipfit.engine import StoppingRule

import oracles


def run_for(problem, n_iters):
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=n_iters)
    return engine.run(problem, rule)


def test_criterion_1_fast_closed_form(fast_problem):
    start = time.perf_counter()

    trace = run_for(fast_problem, 20)
    for n in range(1, 21):
        np.testing.assert_allclose(trace.iterate(n), oracles.fast_iterate(n),
                                   rtol=0, atol=1e-10)

    converged = engine.run(fast_problem, StoppingRule(tol_marginal=1e-13))
    assert converged.stop_reason is engine.StopReason.CONVERGED
    np.testing.assert_allclose(converged.even_limit(), oracles.FAST_LIMIT,
                               rtol=0, atol=1e-12)

    rates = engine.rate_estimate(run_for(fast_problem, 60))
    fitted = rates.source >= 0
    assert fitted.sum() == 3 and not fitted[1, 1]
    np.testing.assert_allclose(rates.rates[fitted], np.log(0.5), rtol=0, atol=0.05)

    assert time.perf_counter() - start < 1.0


def test_criterion_2_slow_closed_form(slow_problem):
    start = time.perf_counter()

    trace = run_for(slow_problem, 200)
    for n in range(1, 201):
        np.testing.assert_allclose(trace.iterate(n), oracles.slow_iterate(n),
                                   rtol=0, atol=1e-10)

    long = run_for(slow_problem, 40_000)
    ns = np.arange(2, long.n_iters + 1, 2)
    dev = np.abs(long.ratio_rows[ns] - 1.0).max(axis=1)
    scaled = np.sqrt(ns) * dev
    assert np.all(np.diff(scaled) <= 1e-12)      # sqrt(n)-scaled deviation decreasing
    assert scaled[-1] < 0.01                     # ... and heading to zero

    squares = ((long.ratio_rows[ns] - 1.0) ** 2).sum(axis=1)
    assert squares.sum() < 1.0                   # partial sums stay bounded
    assert squares[-500:].sum() < 1e-6           # Cauchy tail

    assert time.perf_counter() - start < 1.0


def test_criterion_3_divergent_two_by_two(divergence_problem):
    cls = structure.classify(divergence_problem)
    assert cls.behavior is structure.Behavior.DIVERGENCE
    assert cls.cause.rows == (1,) and cls.cause.cols == (1,)

    bs = structure.block_structure(divergence_problem)
    np.testing.assert_allclose(bs.lambdas, [0.5, 2.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(bs.a_prime, [2 / 3, 1 / 3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(bs.b_prime, [2 / 3, 1 / 3], rtol=0, atol=1e-12)

    lp = structure.limit_points(divergence_problem)
    np.testing.assert_allclose(lp.even_limit, oracles.DIV_EVEN_LIMIT, rtol=0, atol=1e-8)
    np.testing.assert_allclose(lp.odd_limit, oracles.DIV_ODD_LIMIT, rtol=0, atol=1e-8)

    trace = engine.run(divergence_problem)
    assert trace.stop_reason is engine.StopReason.EVEN_ODD_CONVERGED
    np.testing.assert_allclose(trace.even_limit(), lp.even_limit, rtol=0, atol=1e-6)
    np.testing.assert_allclose(trace.odd_limit(), lp.odd_limit, rtol=0, atol=1e-6)


def test_criterion_4_five_by_six_example(grid_problem):
    start = time.perf_counter()
    a, b, supp = grid_problem.a, grid_problem.b, grid_problem.support

    cause = structure.best_cause(a, b, supp)
    assert cause.rows == (0, 1) and cause.cols == (3, 4, 5)
    assert cause.ratio == pytest.approx(0.5 / 0.2, abs=1e-12)
    # the competing single-row block ties at the same ratio; the union wins
    assert a[0] / b[[0, 1]].sum() == pytest.approx(cause.ratio, abs=1e-12)

    rows, cols = [2, 3, 4], [3, 4, 5]
    a_rest, b_rest = a[rows], b[cols]
    sub = structure.best_cause(a_rest / a_rest.sum(), b_rest / b_rest.sum(),
                               supp[np.ix_(rows, cols)])
    assert sub.rows == (0,) and sub.cols == (1, 2)
    assert sub.ratio * a_rest.sum() / b_rest.sum() == pytest.approx(
        0.25 / 0.2, abs=1e-12)

    bs = structure.block_structure(grid_problem)
    assert bs.r == 3
    assert bs.row_blocks == oracles.GRID_ROW_BLOCKS
    assert bs.col_blocks == oracles.GRID_COL_BLOCKS
    np.testing.assert_allclose(bs.lambdas, [0.4, 0.8, 2.4], rtol=0, atol=1e-12)
    np.testing.assert_allclose(bs.a_prime, [0.1, 0.1, 0.2, 0.36, 0.24],
                               rtol=0, atol=1e-12)

    lp = structure.limit_points(grid_problem)
    assert not lp.sigma[2, 2]
    np.testing.assert_allclose(lp.even_limit, oracles.GRID_EVEN_LIMIT,
                               rtol=0, atol=1e-10)

    assert time.perf_counter() - start < 5.0


def test_criterion_5_restart_acceleration(grid_problem):
    bs = structure.block_structure(grid_problem)
    lp = structure.limit_points(grid_problem)
    restarted = FittingProblem(np.where(lp.sigma, grid_problem.x0, 0.0),
                               bs.a_prime, grid_problem.b)

    trace = run_for(restarted, 2000)
    n_fast = next(
        int(n) for n, m in zip(trace.stored_indices, trace.stored_matrices)
        if n % 2 == 0 and np.abs(m - lp.even_limit).sum() < 1e-6
    )
    assert n_fast <= 200

    direct = run_for(grid_problem, 10 * n_fast)
    best_direct = min(
        np.abs(m - lp.even_limit).sum()
        for n, m in zip(direct.stored_indices, direct.stored_matrices) if n % 2 == 0
    )
    assert best_direct > 1e-6  # ten times the budget and still not there

    rates = engine.rate_estimate(run_for(restarted, 120))
    fitted = rates.source >= 0
    assert fitted.any()
    assert np.all(rates.rates[fitted] < 0)
    assert np.all(rates.r_squared[fitted] > 0.99)
    # every cell either pinned at the limit or cleanly geometric
    assert np.all(rates.converged | fitted)


def test_criterion_6_product_counterexamples():
    ms = products.mr_sequence(60)
    trace = products.product_run(ms)
    limit = products.mr_matrix(np.exp(-1.0))
    np.testing.assert_allclose(trace.final, limit, rtol=0, atol=1e-10)
    assert trace.final.min() > 0
    assert products.is_converged(trace)

    alternating = products.product_run(products.t0t1_sequence(60))
    assert alternating.assumptions.rho == np.inf
    assert not products.is_converged(alternating)
    assert alternating.variations[-1] > 1e-3


def test_criterion_7_property_suites(rng):
    start = time.perf_counter()

    # (a) + (b): marginal error monotone, ratio intervals nested, same corpus
    n_infeasible = 0
    for _ in range(500):
        problem = oracles.random_problem(rng)
        n_infeasible += not oracles.feasible_by_enumeration(
            problem.a, problem.b, problem.support)
        trace = run_for(problem, 60)
        assert np.all(np.diff(trace.errors[1:]) <= 1e-14)
        intervals = engine.nested_ratio_intervals(trace)
        lo, hi = intervals[:, 1], intervals[:, 2]
        assert np.all(np.diff(lo) >= -1e-13) and np.all(np.diff(hi) <= 1e-13)
        assert np.all(lo <= 1 + 1e-13) and np.all(hi >= 1 - 1e-13)
    assert 50 < n_infeasible < 450  # the corpus genuinely mixes both kinds

    # (c): feasibility against the exhaustive zero-block oracle
    n_infeasible = 0
    for _ in range(500):
        a = oracles.random_marginals(rng, 4)
        b = oracles.random_marginals(rng, 4)
        supp = oracles.random_support(rng, 4, 4, density=0.6)
        verdict = structure.feasible(a, b, supp)
        assert verdict.is_feasible == oracles.feasible_by_enumeration(a, b, supp)
        n_infeasible += not verdict.is_feasible
    assert 100 < n_infeasible < 400

    # (d): dispersion-decrease and sorted-partial-sum slacks
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        gamma = float(rng.uniform(0.0, 0.45))
        m = products.random_doubly_stochastic(d, rng, gamma=gamma)
        v = rng.normal(size=d)
        assert products.check_dispersion_decrease(m, v, gamma) >= -1e-12
        assert products.check_sorted_partial_sums(m, v, int(rng.integers(1, d))) >= -1e-12

    # (e): one fitting round acts on the row ratios as a stochastic matrix
    for _ in range(500):
        p, q = (int(rng.integers(2, 6)) for _ in range(2))
        a = oracles.random_marginals(rng, p)
        b = oracles.random_marginals(rng, q)
        x = fit_cols(rng.random((p, q)) + 0.05, b)
        propagator = engine.ratio_update_matrix(x, a, b)
        r_now = x.sum(axis=1) / a
        r_next = fit_cols(fit_rows(x, a), b).sum(axis=1) / a
        assert np.abs(r_next - propagator @ r_now).sum() < 1e-12

    # (f): bounded-ratio sequences have summable variation, hence converge
    for _ in range(100):
        ms = products._random_ratio_bounded_stack(10_000, 3, rng, gamma=0.2, rho=5.0)
        trace = products.product_run(ms)
        assert np.isfinite(trace.variation_sum)
        assert trace.variations[-1] < 1e-10
        assert products.is_converged(trace)

    assert time.perf_counter() - start < 120.0

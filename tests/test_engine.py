import copy
import math
import pickle
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from bipfit import (
    FittingProblem,
    StoppingRule,
    StopReason,
    cross_ratio_check,
    engine,
    io,
    marginal_ratios,
    nested_ratio_intervals,
    rate_estimate,
    ratio_update_matrices,
    ratio_update_matrix,
    run,
    structure,
)
from bipfit.engine import escape_diagnostic

import oracles

LN_HALF = math.log(0.5)


def run_capped(problem, n, **kw):
    """Run exactly n iterations (tolerances out of reach)."""
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=n)
    return run(problem, rule, **kw)


# ---------------------------------------------------------------------------
# golden traces against the closed forms


def test_golden_trace_fast(fast_problem):
    trace = run_capped(fast_problem, 20)
    for n in range(21):
        np.testing.assert_allclose(
            trace.iterate(n), oracles.fast_iterate(n), atol=1e-12,
            err_msg=f"fast iterate {n}",
        )


def test_golden_trace_slow(slow_problem):
    trace = run_capped(slow_problem, 200)
    for n in range(201):
        np.testing.assert_allclose(
            trace.iterate(n), oracles.slow_iterate(n), atol=1e-12,
            err_msg=f"slow iterate {n}",
        )


def test_golden_trace_divergence(divergence_problem):
    trace = run_capped(divergence_problem, 40)
    for n in range(41):
        np.testing.assert_allclose(
            trace.iterate(n), oracles.divergence_iterate(n), atol=1e-12,
            err_msg=f"divergence iterate {n}",
        )


def test_errors_non_increasing_on_reference_instances(
    fast_problem, slow_problem, divergence_problem
):
    for prob in (fast_problem, slow_problem, divergence_problem):
        trace = run_capped(prob, 150)
        diffs = np.diff(trace.errors[1:])
        assert diffs.max() <= 1e-14


# ---------------------------------------------------------------------------
# stopping behavior


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(tol_marginal=0.0)
    with pytest.raises(ValueError):
        StoppingRule(tol_even_odd=-1.0)
    with pytest.raises(ValueError):
        StoppingRule(max_iters=-1)
    # a NaN tolerance would never fire, and a float cap would fail mid-run
    for bad in ({"tol_marginal": math.nan}, {"tol_even_odd": math.nan}, {"max_iters": 2.5},
                {"max_iters": 100.0}, {"max_iters": True}, {"max_iters": "10"}):
        with pytest.raises(ValueError):
            StoppingRule(**bad)
    assert StoppingRule(max_iters=np.int64(7)).max_iters == 7


def test_converged_immediately_on_fitted_seed():
    a = np.array([0.5, 0.5])
    prob = FittingProblem(np.full((2, 2), 0.25), a, a)
    trace = run(prob)
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.n_iters == 0
    np.testing.assert_array_equal(trace.even_limit(), prob.x0)
    with pytest.raises(ValueError):
        trace.odd_limit()


def test_fast_instance_converges(fast_problem):
    trace = run(fast_problem, StoppingRule(tol_marginal=1e-12))
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.errors[-1] < 1e-12
    np.testing.assert_allclose(trace.even_limit(), oracles.FAST_LIMIT, atol=1e-11)


def test_divergent_instance_settles_into_oscillation(divergence_problem):
    trace = run(divergence_problem)
    assert trace.stop_reason is StopReason.EVEN_ODD_CONVERGED
    # the error cannot fall: the instance is infeasible
    assert trace.errors[-1] > 0.1
    np.testing.assert_allclose(trace.even_limit(), oracles.DIV_EVEN_LIMIT, atol=1e-12)
    np.testing.assert_allclose(trace.odd_limit(), oracles.DIV_ODD_LIMIT, atol=1e-12)


def test_iteration_cap(slow_problem):
    trace = run(slow_problem, StoppingRule(max_iters=37))
    assert trace.stop_reason is StopReason.ITERATION_CAP
    assert trace.n_iters == 37


def test_slow_instance_oscillation_detected_late(slow_problem):
    # even/odd differences decay ~ 1/n^2, so a loose Cauchy tolerance fires
    trace = run(slow_problem, StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-7))
    assert trace.stop_reason is StopReason.EVEN_ODD_CONVERGED
    np.testing.assert_allclose(trace.even_limit(), oracles.SLOW_LIMIT, atol=1e-2)


# ---------------------------------------------------------------------------
# scaling form: iterates rebuilt on demand, checked against the matrix form


def test_long_trace_rebuilds_every_iterate(slow_problem):
    # a run of 20k iterates keeps stride 1, and every one of its iterates
    # is rebuilt from the scaling history
    trace = run_capped(slow_problem, 20_001)
    n = trace.n_iters
    np.testing.assert_array_equal(trace.stored_indices, np.arange(n + 1))
    rebuilt = np.stack(list(trace.stored_matrices))
    expected = np.stack([oracles.slow_iterate(k) for k in range(n + 1)])
    np.testing.assert_allclose(rebuilt, expected, atol=1e-12)
    for k in (0, 1, 9_999, 10_000, 10_001, n):
        np.testing.assert_array_equal(trace.iterate(k), rebuilt[k])
    with pytest.raises(KeyError):
        trace.iterate(n + 1)
    assert trace.last_even[0] == n - 1
    assert trace.last_odd[0] == n
    np.testing.assert_array_equal(trace.odd_limit(), rebuilt[n])


def test_full_storage_below_cap(fast_problem):
    trace = run_capped(fast_problem, 50)
    np.testing.assert_array_equal(trace.stored_indices, np.arange(51))
    assert trace.ratio_rows.shape == (51, 2)
    assert trace.ratio_cols.shape == (51, 2)
    assert trace.errors.shape == (51,)


def _assert_matches_reference(problem, rule):
    xs, ratio_rows, ratio_cols, errors, reason = oracles.reference_run(problem, rule)
    trace = run(problem, rule)
    assert trace.n_iters == len(xs) - 1
    assert trace.stop_reason is reason
    np.testing.assert_allclose(trace.errors, errors, rtol=0, atol=1e-13)
    np.testing.assert_allclose(trace.ratio_rows, ratio_rows, rtol=0, atol=1e-13)
    np.testing.assert_allclose(trace.ratio_cols, ratio_cols, rtol=0, atol=1e-13)
    for n in np.unique(np.linspace(0, trace.n_iters, 9).astype(int)):
        np.testing.assert_allclose(trace.iterate(n), xs[n], rtol=0, atol=1e-12)
    # on rebuilt iterates the cross ratios hold by construction; the
    # matrix-form iterates are where the invariant says something
    assert cross_ratio_check(SimpleNamespace(problem=problem, stored_matrices=xs)).ok
    return reason


def test_engine_matches_matrix_form_reference(
    fast_problem, slow_problem, divergence_problem, grid_problem, rng
):
    capped = StoppingRule(max_iters=600)
    cases = [
        (fast_problem, capped),
        (slow_problem, capped),
        (slow_problem, StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-7)),
        (divergence_problem, capped),
        # past ~350 steps products of two dying cells of example-5x6 leave
        # the normal float range, and its cross ratios lose all precision
        (grid_problem, StoppingRule(max_iters=300)),
    ] + [(oracles.random_problem(rng), capped) for _ in range(50)]
    reasons = [_assert_matches_reference(prob, rule) for prob, rule in cases]
    assert set(reasons) == set(StopReason)


def _fold_problem(skew: float = 1.0):
    # On its own divergence-2x2 stops near n=1078 under any positive
    # tolerance: its dying cell underflows to an exact zero and the even/odd
    # test fires.  Beside a slow-2x2 block (block-diagonal seed, half the mass
    # each, so the blocks iterate independently) it keeps dying for 20k steps
    # while the slow block keeps both rules from firing.  Unskewed, u and v
    # leave the fold range in the same group; a skewed seed cell parts them.
    x0 = np.zeros((4, 4))
    x0[:2, :2], x0[2:, 2:] = oracles.DIV_X0 * [[1.0, skew], [1.0, 1.0]], oracles.SLOW_X0
    a = np.concatenate([oracles.DIV_A, oracles.SLOW_A]) / 2
    return FittingProblem(x0, a, a)


def test_scalings_fold_instead_of_overflowing():
    problem = _fold_problem()
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=20_000)
    with np.errstate(over="raise", invalid="raise"):
        trace = run(problem, rule)
        xs = oracles.reference_run(problem, rule)[0]
    assert trace.n_iters == 20_000
    assert np.isfinite(trace.errors).all()
    for n in (1000, 5000, 20_000):
        np.testing.assert_allclose(trace.iterate(n), xs[n], rtol=0, atol=1e-12)
    # around the first folds the log-scalings still give ln X_n - ln X_0
    hist, (i, j) = trace.stored_matrices, np.nonzero(problem.x0)
    for n in {k + s for k in hist.starts[1:5] for s in (-1, 0, 1)}:
        np.testing.assert_allclose(hist.log_scaling(n, i, j),
                                   np.log(xs[n][i, j] / problem.x0[i, j]), rtol=0, atol=1e-12)


def test_slices_and_iteration_equal_single_iterate_reads():
    # hist[n] rebuilds one iterate by its own formula; every stacked read,
    # in any order and across fold points, must give the same bits
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=2000)
    hist = run(_fold_problem(), rule).stored_matrices
    starts = hist.starts[1:4]
    assert len(starts) == 3
    one = np.stack([hist[n] for n in range(len(hist))])
    s0, s2 = starts[0], starts[2]
    slices = [slice(0, 7), slice(None), slice(None, None, -1), slice(None, None, 3),
              slice(s0 - 1, s2 + 2), slice(s2 + 2, s0 - 2, -1), slice(s0 - 5, s2 + 5, 4),
              slice(s2 + 5, s0 - 5, -3), slice(-3, None), slice(5, 5)]
    slices += [slice(s - 3, s + 4) for s in starts] + [slice(s + 3, s - 4, -1) for s in starts]
    for sl in slices:
        got = hist[sl]
        assert got.shape == one[sl].shape, sl
        assert got.tobytes() == one[sl].tobytes(), sl
    assert np.stack(list(hist)).tobytes() == one.tobytes()
    # any index sequence, written into a given buffer
    ns = [s2 + 1, 0, s0, s0 - 1, len(hist) - 1, s0, 2]
    out = np.empty((4, 4, len(ns)))
    assert hist.stack(ns, out) is out
    assert np.moveaxis(out, -1, 0).tobytes() == one[ns].tobytes()


@pytest.mark.parametrize("cap", [19_999, 20_000])
def test_ratios_read_off_the_scalings_are_the_iterates_marginals(cap):
    # rows(X_2k)/a = u_k/u_{k+1} and cols(X_2k+1)/b = v_k/v_{k+1}, with the
    # pre-fold vector at a fold point, the seed's columns at X_0 and one
    # matvec at an even cap, where u_{k+1} is never taken
    problem = _fold_problem()
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=cap)
    trace = run(problem, rule)
    hist = trace.stored_matrices
    assert trace.n_iters == cap and len(hist.starts) > 1
    rows, cols = trace.ratio_rows, trace.ratio_cols
    assert rows.shape == (cap + 1, 4) and cols.shape == (cap + 1, 4)
    ns = {0, 1, 2, cap - 1, cap} | {s + d for s in hist.starts[1:] for d in (-1, 0, 1)}
    for n in sorted(n for n in ns if n <= cap):
        x = trace.iterate(n)
        want = x.sum(axis=1) / problem.a, x.sum(axis=0) / problem.b
        one = trace.ratios(n)
        for got in ((one.rows, one.cols), (rows[n], cols[n])):
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-13, err_msg=f"n={n}")


def _assert_bitwise_equal(trace, ref):
    assert trace.n_iters == ref.n_iters
    assert trace.stop_reason is ref.stop_reason
    # ratios and errors are read off the scalings, the reference multiplies
    # the marginals out: the two agree to rounding, not bit for bit
    for name in ("ratio_rows", "ratio_cols", "errors"):
        got, want = getattr(trace, name), getattr(ref, name)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=name)
    hist, ref_hist = trace.stored_matrices, ref.stored_matrices
    assert hist.k == ref_hist.k and hist.starts == ref_hist.starts
    ks = np.arange(hist.k + 1)
    pairs = [*zip(_every_step(hist), (ref_hist.u[ks], ref_hist.v[ks])),
             *zip(_rebuilt_bases(hist), ref_hist.bases), *zip(hist.folds, ref_hist.folds)]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(hist.folds) + 1 == len(ref_hist.bases) and len(hist.folds) == len(ref_hist.folds)
    # the folds' logs are summed in place, in the order the reference sums them
    i, j = np.indices(hist.seed.shape).reshape(2, -1)
    for n in {0, trace.n_iters} | {s + d for s in hist.starts[1:] for d in (-1, 0)
                                   if s + d <= trace.n_iters}:
        assert hist.log_scaling(n, i, j).tobytes() == ref_hist.log_scaling(n, i, j).tobytes(), n


def _every_step(hist):
    """``u_k`` and ``v_k`` of every double step, replayed by one walk where not kept."""
    pieces = list(hist._walk(2 * np.arange(hist.k + 1), hist.k + 1))
    return [np.concatenate([piece[i] for piece in pieces]) for i in (2, 3)]


def _rebuilt_bases(hist):
    """Every base ``K_0 .. K_j`` of a history, rebuilt forward from the seed."""
    bases = [hist.seed]
    for j in range(1, len(hist.folds) + 1):
        bases.append(hist._fold(bases[-1], j))
    return bases


def _loop_cases(slow_problem, fast_problem, divergence_problem):
    """``(problem, rule)`` pairs whose runs the scaling-loop tests compare bit for bit."""
    critical = oracles.planted_critical(np.random.default_rng(7), 40, 40)
    # FittingProblem stores its seed in C order; the loop's BLAS calls must
    # give the same bits on a Fortran-ordered base all the same
    fortran = copy.copy(critical)
    fortran.x0 = np.asfortranarray(critical.x0)
    assert not fortran.x0.flags.c_contiguous
    capped = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=20_000)
    # caps ending mid fold group and mid chunk, so the last group is short; at 382
    # the fold problem's first fold falls due in that short group
    odd = [StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=n)
           for n in (1, 37, 382, 19_999)]
    return [(slow_problem, capped), (critical, capped), (fortran, capped),
            (_fold_problem(), capped), (_fold_problem(skew=1e-25), capped),
            *[(problem, rule) for rule in odd for problem in (slow_problem, _fold_problem())],
            (fast_problem, StoppingRule()), (divergence_problem, StoppingRule())]


def test_scaling_loop_matches_reference_bitwise(slow_problem, fast_problem,
                                                divergence_problem):
    cases = _loop_cases(slow_problem, fast_problem, divergence_problem)
    traces = [run(problem, rule) for problem, rule in cases]
    for trace, (problem, rule) in zip(traces, cases):
        _assert_bitwise_equal(trace, oracles.reference_scaling_run(problem, rule))
    folded, skewed = traces[3].stored_matrices, traces[4].stored_matrices
    assert len(folded.starts) > 1 and len(folded.folds) == len(folded.starts) - 1
    s1, s2 = skewed.starts[1:3]
    assert s1 % 2 != s2 % 2 and s2 - s1 > 1  # u and v each fold alone, in their own group
    assert traces[-1].stop_reason is StopReason.EVEN_ODD_CONVERGED  # mid-chunk


def test_rules_in_slices_of_four_to_twelve_iterates_change_nothing(
        monkeypatch, slow_problem, fast_problem, divergence_problem):
    # the rules' slices hold _BLOCK // (p + q) iterates, rounded down to a
    # multiple of four (gemv sums rows in groups of four: slices of 7, 11 or
    # 15 iterates change errors' last bits); at four to twelve a chunk is cut
    # into hundreds of slices, and the run keeps every bit
    cases = _loop_cases(slow_problem, fast_problem, divergence_problem)
    default = [run(problem, rule) for problem, rule in cases]
    for k, ((problem, rule), want) in enumerate(zip(cases, default)):
        monkeypatch.setattr(engine, "_BLOCK", (4 * (1 + k % 3) + 3) * sum(problem.shape))
        got = run(problem, rule)
        monkeypatch.undo()
        assert got.n_iters == want.n_iters and got.stop_reason is want.stop_reason, k
        assert got.errors.tobytes() == want.errors.tobytes(), k
        hist, ref_hist = got.stored_matrices, want.stored_matrices
        assert hist.k == ref_hist.k and hist.starts == ref_hist.starts, k
        for x, y in [*zip(_every_step(hist), _every_step(ref_hist)),
                     *zip(_rebuilt_bases(hist), _rebuilt_bases(ref_hist)),
                     *zip(hist.folds, ref_hist.folds)]:
            assert x.tobytes() == y.tobytes(), k


def test_exact_even_odd_distance_reads_the_seed_nonzeros():
    # under a loose tol_even_odd the marginal bound leaves a quarter or more
    # of the iterates to the exact |X_n - X_{n-2}|_1, read off the seed's
    # nonzero cells: across fold points, on a sparse seed, and on seed cells
    # of 1e-20, which are in the support and in the second seed carry most
    # of the mass after one step
    tiny = FittingProblem([[1.0, 1.0], [1e-20, 1.0]], [0.5, 0.5], [0.5, 0.5])
    faint = FittingProblem([[1.0, 1e-20], [1e-20, 1e-20]], [0.5, 0.5], [0.5, 0.5])
    assert tiny.support[1, 0] and faint.support.all()
    sparse = oracles.sparse_critical(np.random.default_rng(5), 40, 0.05)
    for problem, folded in ((_fold_problem(), True), (sparse, False), (tiny, False),
                            (faint, False)):
        rule = StoppingRule(tol_even_odd=1e-7)
        trace, ref = run(problem, rule), oracles.reference_scaling_run(problem, rule)
        assert trace.n_iters == ref.n_iters and trace.stop_reason is ref.stop_reason
        assert trace.stop_reason is StopReason.EVEN_ODD_CONVERGED
        hist, (a, b) = trace.stored_matrices, (problem.a, problem.b)
        rows, cols = trace.ratio_rows, trace.ratio_cols
        bound = np.maximum(np.abs(rows[2:] - rows[:-2]) @ a, np.abs(cols[2:] - cols[:-2]) @ b)
        near = np.flatnonzero(bound < 2 * rule.tol_even_odd) + 2
        assert near.size > trace.n_iters / 4
        # the cells are the stacked iterates' own, each from its own base
        r, c = np.nonzero(problem.x0)
        for ns in (near, near - 2):
            assert hist.stack(ns, cells=(r, c)).tobytes() == hist.stack(ns)[r, c].tobytes()
        if folded:  # some pair reads two bases
            assert any(n - 2 < s <= n for s in hist.starts[1:] for n in near)


# caps 19_999 (ending mid fold group) and 20_000; kept rows of the 4x4 fold
# problem limited to 31, 32 and 33 (248, 256 and 264 floats)
_THINNED = [pytest.param(cap, rows, id=str(cap) if rows == 32 else f"{cap}-{rows}rows")
            for rows in (31, 32, 33) for cap in (19_999, 20_000)]


@pytest.mark.parametrize("cap, rows", _THINNED)
def test_thinned_trace_reads_equal_the_whole_history_bitwise(monkeypatch, cap, rows):
    # a few dozen kept rows of the 4x4 fold problem, so by 20k iterates the
    # stride has doubled at least three times
    monkeypatch.setattr(engine, "_KEEP", 8 * rows)
    problem = _fold_problem()
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=cap)
    trace, ref = run(problem, rule), oracles.reference_scaling_run(problem, rule)
    hist = trace.stored_matrices
    assert trace.n_iters == cap and hist._stride >= 8
    # the steps before the last chunk's window (w0 = 8187) take 32 kept rows at
    # stride 256: 32 rows fill them exactly at that chunk end, 33 leave one
    # free, and 31 are one short, so that they halve once more
    assert hist._w0 == 8187 and hist._stride == (512 if rows == 31 else 256)
    # some fold's step lies in a segment that is neither kept nor in the window
    assert any((s + 1) // 2 % hist._stride and (s + 1) // 2 < hist._w0 for s in hist.starts[1:])
    _assert_bitwise_equal(trace, ref)
    # every public read gives the bits of the same read on the whole history
    whole = engine.IterationTrace(problem, trace.errors, trace.stop_reason, ref.stored_matrices)
    edge = 2 * hist._w0  # the first iterate read wholly from the window
    ns = sorted({0, 1, 2, cap - 1, cap, edge - 2, edge - 1, edge}
                | {s + d for s in hist.starts[1:] for d in (-1, 0, 1)})
    s0, cells = hist.starts[1], np.argwhere(problem.support)
    shuffled = np.random.default_rng(3).permutation(cap + 1)[:3000]
    reads = [lambda t: [(t.iterate(n), t.ratios(n)) for n in ns if n <= cap],
             lambda t: (t.ratio_rows, t.ratio_cols),
             lambda t: [t.stored_matrices[sl] for sl in (
                 slice(None, None, 7), slice(s0 + 40, s0 - 40, -3), slice(cap - 50, None),
                 slice(edge - 5, edge + 5), slice(-1, None, -997), slice(5, 5))],
             lambda t: t.stored_matrices.stack(shuffled),
             lambda t: escape_diagnostic(t, cells), rate_estimate, cross_ratio_check,
             ratio_update_matrices, nested_ratio_intervals]
    for read in reads:
        assert pickle.dumps(read(trace)) == pickle.dumps(read(whole))


def test_run_peak_memory_bounded_in_bytes():
    # the history keeps 2 MB of strided rows and the newest chunk, and the
    # rules run in slices of _BLOCK floats, so the peak barely grows with the run
    problem = oracles.planted_critical(np.random.default_rng(7), 40, 40)
    peaks = {}
    for cap in (20_000, 80_000):
        rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=cap)
        tracemalloc.start()
        try:
            trace = run(problem, rule)
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_iters == cap
    assert peaks[20_000] < 6e6, peaks
    assert peaks[80_000] <= 1.2 * peaks[20_000], peaks


def test_folded_run_peak_memory_does_not_grow_with_its_folds():
    # a fold keeps its vector, not a new base: the grid problem blown up to
    # 50x60 folds 312 times by 50 000 iterations and 624 times by 100 000
    problem = oracles.kron_grid(10)
    peaks = {}
    for cap in (50_000, 100_000):
        tracemalloc.start()
        try:
            trace = run(problem, StoppingRule(max_iters=cap))
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_iters == cap and len(trace.stored_matrices.folds) > cap // 200
    assert peaks[100_000] < 8e6 and peaks[100_000] <= 1.2 * peaks[50_000], peaks


def test_forward_reads_rebuild_each_base_a_few_times(monkeypatch):
    # every read of more than one iterate is one forward walk: it rebuilds
    # base K_j from the base before it and replays each thinned double step
    # at most once, so a read costs the same after any other read; rate_estimate
    # walks each parity from the seed, the other reads walk once
    monkeypatch.setattr(engine, "_KEEP", 22 * 16)  # 16 kept rows of the 10x12 seed
    trace = run(oracles.kron_grid(2), StoppingRule(max_iters=20_000))
    hist = trace.stored_matrices
    assert len(hist.folds) == 124 and hist._stride == 512 and not hasattr(hist, "bases")
    folds, walks = [0], []
    fold, walk = engine._ScalingHistory._fold, engine._ScalingHistory._walk

    def counted(self, base, j):
        folds[0] += 1
        return fold(self, base, j)

    def tallied(self, ns, size):
        walks.append([])
        yield from walk(self, ns, size)

    class Tally(np.ndarray):  # a replayed double step divides a by its row sums once
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
            if inputs[0] is self:
                walks[-1].append(out.tobytes())  # u_k of the replayed step
            return out

    monkeypatch.setattr(engine._ScalingHistory, "_fold", counted)
    monkeypatch.setattr(engine._ScalingHistory, "_walk", tallied)
    hist._ab = hist._ab[0].view(Tally), hist._ab[1]
    reads = {"rate_estimate": rate_estimate, "ratio_update_matrices": ratio_update_matrices,
             "nested_ratio_intervals": nested_ratio_intervals,
             "cross_ratio_check": cross_ratio_check, "ratio_rows": lambda t: t.ratio_rows,
             "stored_matrices[::-1]": lambda t: t.stored_matrices[::-1]}
    counts = []
    for order in (list(reads), list(reads)[::-1]):
        counts.append({})
        for name in order:
            folds[0] = 0
            walks.clear()
            reads[name](trace)
            steps = [k for replayed in walks for k in replayed]
            assert all(len(set(replayed)) == len(replayed) for replayed in walks), name
            assert 0 < folds[0] <= 2 * len(hist.folds), (name, folds[0])
            counts[-1][name] = folds[0], len(steps)
    assert counts[0] == counts[1]
    # a full read replays every double step that is neither kept nor in the window
    assert counts[0]["ratio_rows"][1] == hist._w0 - -(-hist._w0 // hist._stride)


def test_reads_outside_the_run_raise(fast_problem):
    # rows past the run's last iterate, or never computed, are not the run's
    trace = run_capped(oracles.kron_grid(2), 3000)
    hist, (a, b) = trace.stored_matrices, (trace.problem.a, trace.problem.b)
    assert len(hist) == 3001 and 2 * hist.k == 3000
    for ns in ([3001], [-1], [0, 5, 3001], [4, -2]):
        with pytest.raises(IndexError):
            hist.stack(ns)
        with pytest.raises(IndexError):
            next(hist.blocks(sorted(ns)))
    for n0, n1 in ((0, 3002), (-1, 5), (6, 5)):
        with pytest.raises(IndexError):
            next(hist.ratios(n0, n1, a, b, 4))
    with pytest.raises(IndexError, match="computed"):
        next(hist._walk(np.array([0, 3001]), 2))
    # a stop in the middle of a chunk leaves computed rows past the stop
    stopped = run(fast_problem).stored_matrices
    assert 2 * stopped.k + 1 > len(stopped)
    for read in (lambda: stopped.stack([len(stopped)]), lambda: stopped[len(stopped)],
                 lambda: next(stopped.blocks([len(stopped) - 1, len(stopped)]))):
        with pytest.raises(IndexError):
            read()
    with pytest.raises(ValueError, match="start must be >= 0, got -2"):
        ratio_update_matrices(trace, start=-2)


@pytest.mark.parametrize("value", [math.nan, -1e-300])
def test_engine_tolerances_reject_nan_and_negative(slow_problem, value):
    # every comparison with NaN is False: a NaN floor marked every cell converged,
    # a NaN col_tol accepted a row-fitted matrix, a NaN rel_tol failed every check
    trace = run_capped(slow_problem, 200)
    calls = {"noise_floor": lambda: rate_estimate(trace, noise_floor=value),
             "col_tol": lambda: ratio_update_matrix(trace.iterate(1), slow_problem.a,
                                                    slow_problem.b, col_tol=value),
             "rel_tol": lambda: cross_ratio_check(trace, rel_tol=value)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got {value!r}"):
            call()


# ---------------------------------------------------------------------------
# ratio propagation


def test_ratio_update_matrix_hand_value(divergence_problem):
    x2 = oracles.divergence_iterate(2)
    a = divergence_problem.a
    p = ratio_update_matrix(x2, a, a)
    np.testing.assert_allclose(p, oracles.DIV_P_AT_2, atol=1e-14)
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-14)
    r2 = marginal_ratios(x2, a, a).rows
    np.testing.assert_allclose(r2, oracles.DIV_R_AT_2, atol=1e-14)
    np.testing.assert_allclose(p @ r2, oracles.DIV_R_AT_4, atol=1e-14)
    x4 = oracles.divergence_iterate(4)
    np.testing.assert_allclose(
        marginal_ratios(x4, a, a).rows, oracles.DIV_R_AT_4, atol=1e-14
    )


def test_ratio_update_matrix_rejects_column_unfitted(divergence_problem):
    with pytest.raises(ValueError, match="column-fitted"):
        ratio_update_matrix(
            oracles.divergence_iterate(1), divergence_problem.a, divergence_problem.a
        )


def test_ratio_update_matrices_walk_the_even_subsequence(divergence_problem):
    trace = run_capped(divergence_problem, 30)
    ps = ratio_update_matrices(trace)
    assert len(ps) == 15  # evens 2, 4, ..., 30
    prod = np.eye(2)
    for p in ps[:-1]:  # P(X_28) ... P(X_2), backward
        prod = p @ prod
    r2 = trace.ratios(2).rows
    r30 = trace.ratios(30).rows
    np.testing.assert_allclose(prod @ r2, r30, atol=1e-12)


def test_ratio_update_matrices_cover_every_even_iterate(slow_problem):
    # a 20k-iterate trace yields P(X_n) for every even n >= 2, each
    # row-stochastic and equal to the one of the single rebuilt iterate
    trace = run_capped(slow_problem, 20_000)
    ps = ratio_update_matrices(trace)
    assert len(ps) == 10_000
    np.testing.assert_allclose(np.stack(ps).sum(axis=-1), 1.0, atol=1e-12)
    a, b = slow_problem.a, slow_problem.b
    for k, n in ((0, 2), (4_999, 10_000), (9_999, 20_000)):
        np.testing.assert_array_equal(
            ps[k], ratio_update_matrix(trace.iterate(n), a, b)
        )


# ---------------------------------------------------------------------------
# rate estimation


def test_rate_estimate_fast_geometric(fast_problem):
    trace = run(
        fast_problem,
        StoppingRule(tol_marginal=1e-13, tol_even_odd=1e-16, max_iters=200),
    )
    report = rate_estimate(trace)
    supported = [(0, 0), (0, 1), (1, 0)]
    for i, j in supported:
        assert report.rates[i, j] == pytest.approx(LN_HALF, abs=0.02), (i, j)
        assert report.r_squared[i, j] > 0.999
    # the even subsequence pins cell (0, 1) at the limit exactly, so its
    # points must come from the odd parity
    assert report.source[0, 1] == 1
    assert report.source[0, 0] == 0
    # the empty cell never moves
    assert report.converged[1, 1]
    assert report.rates[1, 1] == -np.inf


def test_rate_estimate_slow_is_subgeometric(slow_problem):
    trace = run_capped(slow_problem, 400)
    report = rate_estimate(trace)
    finite = np.isfinite(report.rates)
    assert finite.any()
    # 1/n decay: fitted log-slopes hug zero, nowhere near geometric
    assert np.abs(report.rates[finite]).max() < 0.05


def test_rate_estimate_matches_per_cell_polyfit(fast_problem, slow_problem, rng):
    cases = [
        run(fast_problem, StoppingRule(tol_marginal=1e-13, tol_even_odd=1e-16, max_iters=200)),
        run_capped(slow_problem, 400),
        run_capped(slow_problem, 4001),
        # a positive seed is always feasible; the mixed support adds empty cells
        run_capped(FittingProblem(rng.random((5, 6)) + 0.1, oracles.random_marginals(rng, 5),
                                  oracles.random_marginals(rng, 6)), 60),
        run_capped(oracles.random_problem(rng, 5, 6), 600),
        run_capped(_fold_problem(), 20_000),  # folds inside the window
    ]
    assert any(10_000 < s < 17_500 for s in cases[-1].stored_matrices.starts)
    # a raised noise floor leaves out the tail of a geometric cell's points
    for trace, floor in [(t, 1e-15) for t in cases] + [(cases[0], 1e-9), (cases[3], 1e-9)]:
        got = rate_estimate(trace, noise_floor=floor)
        want = oracles.reference_rate_estimate(trace, noise_floor=floor)
        assert got.window == want.window
        np.testing.assert_array_equal(got.converged, want.converged)
        np.testing.assert_array_equal(got.source, want.source)
        np.testing.assert_allclose(got.rates, want.rates, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.r_squared, want.r_squared, rtol=1e-9, atol=1e-12)


def test_rate_estimate_needs_enough_iterates(fast_problem):
    with pytest.raises(ValueError, match="too short"):
        rate_estimate(run_capped(fast_problem, 8))


# ---------------------------------------------------------------------------
# invariants read off traces


def test_cross_ratios_constant_on_full_support(rng):
    x0 = rng.random((4, 5)) + 0.1
    a = oracles.random_marginals(rng, 4)
    b = oracles.random_marginals(rng, 5)
    trace = run_capped(FittingProblem(x0, a, b), 60)
    report = cross_ratio_check(trace)
    assert report.ok
    assert report.n_minors == 60  # C(4,2) * C(5,2)
    assert report.n_skipped == 0
    assert report.max_rel_deviation < 1e-11


def test_cross_ratios_skip_minors_touching_zeros(fast_problem):
    report = cross_ratio_check(run_capped(fast_problem, 30))
    assert report.ok
    assert report.n_minors == 0
    assert report.n_skipped == 1


def test_cross_ratios_skip_underflowed_cells(grid_problem):
    # past ~350 steps dying cells of example-5x6 fall below the normal float
    # range; their minors are skipped, not flagged as a broken invariant
    trace = run_capped(grid_problem, 3000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cross_ratio_check(trace)
    assert report.ok and report.max_rel_deviation < 1e-11
    # a perturbed supported cell is still caught
    mats = np.array(trace.stored_matrices[:40])
    mats[30, 4, 3] *= 1.001
    broken = cross_ratio_check(SimpleNamespace(problem=grid_problem, stored_matrices=mats))
    assert not broken.ok and broken.max_rel_deviation == pytest.approx(1e-3, rel=1e-6)


def _assert_matches_minor_listing(trace):
    """Counts and verdict as the minor listing; the deviation within its bracket."""
    old, new = oracles.reference_cross_ratio_check(trace), cross_ratio_check(trace)
    assert (new.n_minors, new.n_skipped, new.ok) == (old.n_minors, old.n_skipped, old.ok)
    d, slack = old.max_rel_deviation, 8 * np.finfo(float).eps
    assert d - slack <= new.max_rel_deviation <= d / (1 - d) + slack, (d, new)
    return new


def test_cross_ratios_match_minor_listing(rng, grid_problem, divergence_problem):
    x0 = rng.random((4, 5)) + 0.1
    full = FittingProblem(x0, oracles.random_marginals(rng, 4), oracles.random_marginals(rng, 5))
    assert _assert_matches_minor_listing(run_capped(full, 60)).n_skipped == 0
    planted = oracles.planted_critical(rng, 10, 10)
    crawl = run(planted, StoppingRule(max_iters=4000))
    assert crawl.n_iters == 4000 and _assert_matches_minor_listing(crawl).ok
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _assert_matches_minor_listing(run_capped(grid_problem, 3000)).ok
    assert _assert_matches_minor_listing(run_capped(divergence_problem, 40)).n_minors == 0


def test_cross_ratios_match_minor_listing_rectangular_and_perturbed(rng):
    # 7 x 12 with mixed support: a swapped row and column axis changes the counts
    problem = oracles.random_problem(rng, 7, 12, density=0.6)
    trace = run_capped(problem, 300)
    report = _assert_matches_minor_listing(trace)
    assert report.ok and 0 < report.n_minors < 21 * 66
    xs = np.array(trace.stored_matrices[:50])
    supp = problem.support
    p, q = supp.shape
    first_col, last_col = np.argmax(supp, axis=1), q - 1 - np.argmax(supp[:, ::-1], axis=1)
    first_row, last_row = np.argmax(supp, axis=0), p - 1 - np.argmax(supp[::-1], axis=0)
    cells = [(0, first_col[0]), (0, last_col[0]), (p - 1, first_col[-1]),
             (p - 1, last_col[-1]), (first_row[0], 0), (last_row[0], 0),
             (first_row[-1], q - 1), (last_row[-1], q - 1)]
    for i, j in cells:
        mats = xs.copy()
        mats[37, i, j] *= 1.001
        broken = _assert_matches_minor_listing(
            SimpleNamespace(problem=problem, stored_matrices=mats))
        assert not broken.ok and broken.max_rel_deviation == pytest.approx(1e-3, rel=1e-6)
    # a seed cell of 1e-20 relative is in the support, so its minors are checked
    x0 = problem.x0.copy()
    i, j = np.argwhere(~supp)[0]
    x0[i, j] = 1e-20 * x0.max()
    faint = FittingProblem(x0, problem.a, problem.b)
    assert faint.support[i, j] and faint.support.sum() == supp.sum() + 1
    mats = np.array(run_capped(faint, 50).stored_matrices)
    mats[37, i, j] *= 1.001
    broken = _assert_matches_minor_listing(SimpleNamespace(problem=faint, stored_matrices=mats))
    assert not broken.ok and broken.max_rel_deviation == pytest.approx(1e-3, rel=1e-6)


def test_cross_ratio_memory_bounded_and_fast():
    # listing the minors peaked at 25.6 MB already at 200 iterates of this size
    problem = oracles.planted_critical(np.random.default_rng(11), 40, 40)
    for n in (500, 2000):
        trace = run_capped(problem, n)
        tracemalloc.start()
        try:
            report = cross_ratio_check(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and peak < 6e6, (n, peak)
    start = time.perf_counter()
    cross_ratio_check(trace)
    assert time.perf_counter() - start < 1.0


def test_nested_intervals_slow_hand_values(slow_problem):
    iv = nested_ratio_intervals(run_capped(slow_problem, 3))
    np.testing.assert_allclose(iv[0], [1, 2.0 / 3.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(iv[1], [2, 2.0 / 3.0, 4.0 / 3.0], atol=1e-14)
    np.testing.assert_allclose(iv[2], [3, 4.0 / 5.0, 4.0 / 3.0], atol=1e-14)


def test_nested_intervals_nest_and_contain_one(divergence_problem, slow_problem):
    for prob in (divergence_problem, slow_problem):
        iv = nested_ratio_intervals(run_capped(prob, 120))
        lo, hi = iv[:, 1], iv[:, 2]
        assert (np.diff(lo) >= -1e-13).all()
        assert (np.diff(hi) <= 1e-13).all()
        assert (lo <= 1 + 1e-13).all() and (hi >= 1 - 1e-13).all()


def test_nested_intervals_memory_bounded_in_bytes():
    # the ratios are read slice by slice: the whole (N + 1, p) and (N + 1, q)
    # arrays of this 50x60 run took a 35.6 MB peak
    trace = run_capped(oracles.kron_grid(10), 20_000)
    tracemalloc.start()
    try:
        iv = nested_ratio_intervals(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iv.shape == (20_000, 3) and peak < 4e6, peak


def test_escape_diagnostic_separates_dying_from_settled_cells(
    slow_problem, fast_problem
):
    # cell (0,0) of the slow instance is squeezed out at rate 1/n: its
    # running log-sum is ~ln(n) and keeps climbing
    slow_report = escape_diagnostic(run_capped(slow_problem, 2000), [(0, 0)])[0]
    assert slow_report["cell"] == (0, 0)
    assert slow_report["still_growing"]
    assert slow_report["final_log_sum"] > 3.0
    # the same cell of the fast instance settles at a positive value:
    # the log-sum converges to ln(X0/limit) = ln((1/2)/(1/3))
    fast_report = escape_diagnostic(run_capped(fast_problem, 2000), [(0, 0)])[0]
    assert fast_report["final_log_sum"] == pytest.approx(math.log(1.5), abs=1e-6)


def test_escape_diagnostic_matches_cumulative_sum(slow_problem, divergence_problem):
    capped = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=100_000)
    traces = [run(io.load_problem(io.data_path(name))[0]) for name in
              ("fast-2x2.json", "slow-2x2.json", "divergence-2x2.json", "example-5x6.json")]
    traces += [run(p, StoppingRule(max_iters=n)) for n in (1, 2, 3, 4)
               for p in (slow_problem, divergence_problem)]
    traces += [run(slow_problem, capped), run(_fold_problem(), StoppingRule(
        tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=20_000))]
    assert len(traces[-1].stored_matrices.starts) > 1
    for trace in traces:
        problem = trace.problem
        cells = np.argwhere(problem.support)
        got = escape_diagnostic(trace, cells)
        want = oracles.reference_escape_diagnostic(trace, cells)
        outside = ~structure._limit_structure(problem)[2][tuple(cells.T)]
        for g, w, out in zip(got, want, outside):
            # cells of sigma settle, and their sums may settle near zero
            tol = {"rel": 1e-12} if out else {"rel": 0, "abs": 1e-10}
            assert g["cell"] == w["cell"]
            assert g["final_log_sum"] == pytest.approx(w["final_log_sum"], **tol)
            assert g["still_growing"] == w["still_growing"] or not out
    assert sum(outside) and traces[-2].n_iters == 100_000

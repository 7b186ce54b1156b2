import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bipfit import (
    Behavior,
    FittingProblem,
    StoppingRule,
    best_cause,
    block_structure,
    classify,
    feasible,
    limit_points,
    maximal_support,
    partition_from_ratios,
    rate_estimate,
    run,
)
from bipfit import _certify, io, structure
from bipfit.structure import CauseKind

import oracles
from oracles import critical_causes


def run_capped(problem, n):
    rule = StoppingRule(tol_marginal=1e-300, tol_even_odd=1e-300, max_iters=n)
    return run(problem, rule)


def assert_valid_witness(w, a, b, supp, tol=1e-9):
    assert (w >= 0).all()
    assert not w[~np.asarray(supp, bool)].any()
    np.testing.assert_allclose(w.sum(axis=1), a, atol=tol)
    np.testing.assert_allclose(w.sum(axis=0), b, atol=tol)


# ---------------------------------------------------------------------------
# max flow on row bitsets against the dense reference


def _max_flow_inputs():
    """``(a, b, supp, min_rounds)``: the least number of augmenting rounds the
    max-flow takes on the seed, in both orientations (0: not checked)."""
    for name in ("fast-2x2", "slow-2x2", "divergence-2x2", "example-5x6"):
        problem = io.load_problem(io.data_path(f"{name}.json"))[0]
        yield pytest.param(problem.a, problem.b, problem.support, 0, id=name)
    rng = np.random.default_rng(15)
    for k in range(24):
        p, q = int(rng.integers(9, 33)), int(rng.integers(18, 41))
        supp = oracles.random_support(rng, p, q, density=float(rng.uniform(0.1, 0.95)))
        if k % 2:  # integer marginals: exact ties; otherwise: rounding everywhere
            a, b = oracles.random_marginals(rng, p), oracles.random_marginals(rng, q)
        else:
            a, b = rng.random(p) + 0.01, rng.random(q) + 0.01
        # the first greedy row fills half the columns and keeps spare mass,
        # so its total is a sum of 9 or more takes, which numpy adds pairwise
        supp[0] = rng.permutation(q) < q // 2
        a[0] = 2.0 * a.sum()
        a, b = a / a.sum(), b / b.sum()
        yield pytest.param(a, b, supp, 0, id=f"random-{k}")
    for rows in (30, 100):
        problem = oracles.planted_blocks(np.random.default_rng(rows), rows, rows)[0]
        yield pytest.param(problem.a, problem.b, problem.support, 0, id=f"planted-{rows}")
    problem = oracles.sparse_critical(np.random.default_rng(3), 300, 0.03)
    yield pytest.param(problem.a, problem.b, problem.support, 0, id="sparse-300")
    # many rounds whose paths cross several levels: the parents worked out
    # along the paths must be those of a node-by-node BFS
    problem = oracles.sparse_critical(np.random.default_rng(7), 400, 0.02)
    yield pytest.param(problem.a, problem.b, problem.support, 20, id="sparse-400-many-rounds")


@pytest.mark.parametrize("a, b, supp, min_rounds", list(_max_flow_inputs()))
def test_max_flow_equals_its_dense_reference_bit_for_bit(a, b, supp, min_rounds, monkeypatch):
    # both orientations the library solves: feasibility, and the Dinkelbach
    # cuts on the reversed network at ratios below, at and above the optimum
    cause = structure._best_cause(a, b, supp)
    best = 1.0 if cause is None else cause.ratio
    supp_t = np.ascontiguousarray(supp.T)
    cases = [(a, b, supp)] + [(lam * b, a, supp_t) for lam in (0.9 * best, best, 1.1 * best)]
    levels = []  # the number of column levels of each augmenting round
    paths = structure._augmenting_paths

    def counting(goals, row_levels, col_levels, col_bits, carried):
        levels.append(len(col_levels))
        return paths(goals, row_levels, col_levels, col_bits, carried)

    monkeypatch.setattr(structure, "_augmenting_paths", counting)
    for k, args in enumerate(cases):
        levels.clear()
        got, want = structure._max_flow(*args), oracles.reference_max_flow(*args)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        if min_rounds and k in (0, 2):  # feasibility, and the cut at the optimum
            assert len(levels) >= min_rounds and max(levels) > 2


def test_bit_list_lists_the_set_bits_lowest_first():
    def loop(bits):
        return [j for j in range(bits.bit_length()) if bits >> j & 1]

    rng = np.random.default_rng(0)
    limit = structure._BIT_LIST_LOOP  # from this many set bits on, listed in C
    cases = [0] + [1 << j for j in (0, 63, 64, 1023)]
    cases += [(1 << limit - 1) - 1, (1 << limit) - 1]  # dense, either side of the limit
    for n in (40, 64, 400, 1000):  # sparse ones too, and dense on the C side
        for k in (1, limit - 1, limit, n // 2, n):
            cases.append(sum(1 << int(j) for j in rng.choice(n, size=k, replace=False)))
    for bits in cases:
        assert structure._bit_list(bits) == loop(bits), bits
        mask = np.zeros(bits.bit_length() + 3, bool)
        mask[loop(bits)] = True
        np.testing.assert_array_equal(structure._bit_mask(bits, mask.size), mask)


def test_bitsets_pack_each_row_on_both_sides_of_one_word():
    rng = np.random.default_rng(1)
    for q in (1, 63, 64, 65, 200):
        mask = rng.random((70, q)) < 0.4
        mask[:, -1] = True  # the top bit of a full word
        for m in (mask, mask.T):  # a transposed view too
            want = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in m]
            assert structure._bitsets(m) == want


def _scipy_max_flow(a, b, supp):
    """scipy's max flow from the rows (capacities ``a``) to the columns
    (capacities ``b``) along ``supp``, in units of ``2^-24``, and the rows its
    residual network reaches from the source: the minimal min cut's rows."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    p, q = supp.shape
    n = p + q + 2  # source 0, rows 1 .. p, columns p + 1 .. p + q, sink n - 1
    r, c = np.nonzero(supp)
    units = np.concatenate([a, b]) * 2.0**24
    assert (units == np.round(units)).all() and units.sum() < 2**31
    src = np.concatenate([np.zeros(p, int), 1 + r, 1 + p + np.arange(q)])
    dst = np.concatenate([1 + np.arange(p), 1 + p + c, np.full(q, n - 1)])
    # a support edge outweighs every source edge together: no min cut crosses one
    cap = np.concatenate([units[:p], np.full(r.size, 2.0**25), units[p:]]).astype(np.int32)
    graph = sparse.csr_matrix((cap, (src, dst)), shape=(n, n))
    result = csgraph.maximum_flow(graph, 0, n - 1)
    residual = (graph - result.flow).tocsr()
    residual.data = (residual.data > 0).astype(np.int8)
    residual.eliminate_zeros()
    reached = csgraph.breadth_first_order(residual, 0, return_predecessors=False)
    return result.flow_value, tuple(sorted(int(k) - 1 for k in reached if 1 <= k <= p))


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize("infeasible", [False, True], ids=["feasible", "planted-infeasible"])
def test_feasible_agrees_with_scipy_max_flow(n, infeasible):
    # the seed is zero on A x B (the first halves) with a(A) = b(B^c) exactly;
    # moving 2^-24 of row mass into A makes that block over-demand by it
    problem = oracles.sparse_critical(np.random.default_rng(n), n, 0.02)
    a, b, supp = problem.a.copy(), problem.b, problem.support
    if infeasible:
        a[0] += 2.0**-24
        a[-1] -= 2.0**-24
    res = feasible(a, b, supp)
    flow, rows = _scipy_max_flow(a, b, supp)
    assert res.is_feasible != infeasible
    assert res.max_flow * 2**24 == flow == 2**24 - infeasible
    assert (res.cause.rows if infeasible else ()) == rows


# ---------------------------------------------------------------------------
# feasibility with certificates


def test_feasible_fast(fast_problem):
    res = feasible(fast_problem.a, fast_problem.b, fast_problem.support)
    assert res.is_feasible
    assert res.cause is None
    assert_valid_witness(res.witness, fast_problem.a, fast_problem.b, fast_problem.support)


def test_feasible_slow_needs_rerouting(slow_problem):
    # the only feasible matrix is the anti-diagonal one; finding it requires
    # moving mass off the greedy allocation
    res = feasible(slow_problem.a, slow_problem.b, slow_problem.support)
    assert res.is_feasible
    assert_valid_witness(res.witness, slow_problem.a, slow_problem.b, slow_problem.support)
    np.testing.assert_allclose(res.witness, oracles.SLOW_LIMIT, atol=1e-9)


def test_infeasible_divergence_certificate(divergence_problem):
    res = feasible(divergence_problem.a, divergence_problem.b, divergence_problem.support)
    assert not res.is_feasible
    assert res.witness is None
    assert res.deficit == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.cause.rows == (1,)
    assert res.cause.cols == (1,)
    assert res.cause.kind is CauseKind.INCOMPATIBILITY
    assert res.cause.ratio == pytest.approx(2.0, abs=1e-12)


def test_feasibility_matches_enumeration_oracle(rng):
    n_infeasible = 0
    for _ in range(150):
        prob = oracles.random_problem(rng)
        res = feasible(prob.a, prob.b, prob.support)
        gap, _, _ = oracles.worst_gap(prob.a, prob.b, prob.support)
        assert res.is_feasible == (gap <= 1e-11)
        if res.is_feasible:
            assert_valid_witness(res.witness, prob.a, prob.b, prob.support)
        else:
            n_infeasible += 1
            # min-cut deficit equals the worst enumeration gap
            assert res.deficit == pytest.approx(gap, abs=1e-12)
            # the returned cause must certify: a zero block with mass excess
            rows, cols = list(res.cause.rows), list(res.cause.cols)
            assert not prob.support[np.ix_(rows, cols)].any()
            comp = [j for j in range(prob.shape[1]) if j not in cols]
            assert prob.a[rows].sum() > prob.b[comp].sum()
    assert 10 < n_infeasible < 140  # corpus exercises both verdicts


# ---------------------------------------------------------------------------
# strongest cause


def test_best_cause_divergence(divergence_problem):
    cause = best_cause(divergence_problem.a, divergence_problem.b, divergence_problem.support)
    assert (cause.rows, cause.cols) == ((1,), (1,))
    assert cause.ratio == pytest.approx(2.0, abs=1e-12)


def test_best_cause_grid_first_step_takes_tie_union(grid_problem):
    # two row sets tie at ratio 2.5: {0} (with columns {2..5}) and {0,1}
    # (with columns {3,4,5}); the union wins
    cause = best_cause(grid_problem.a, grid_problem.b, grid_problem.support)
    assert cause.rows == (0, 1)
    assert cause.cols == (3, 4, 5)
    assert cause.ratio == pytest.approx(2.5, abs=1e-12)


def test_best_cause_grid_second_step_on_remainder(grid_problem):
    rows = [2, 3, 4]
    cols = [3, 4, 5]
    a_sub = grid_problem.a[rows] / grid_problem.a[rows].sum()
    b_sub = grid_problem.b[cols] / grid_problem.b[cols].sum()
    supp_sub = grid_problem.support[np.ix_(rows, cols)]
    cause = best_cause(a_sub, b_sub, supp_sub)
    assert cause.rows == (0,)       # row 2 of the full instance
    assert cause.cols == (1, 2)     # columns 4, 5 of the full instance
    # normalization rescales every ratio by the same factor; the original
    # block ratio is a(3)/b(4) = .25/.2
    assert cause.ratio * grid_problem.a[rows].sum() / grid_problem.b[cols].sum() \
        == pytest.approx(1.25, abs=1e-12)


def test_best_cause_requires_infeasibility(fast_problem):
    with pytest.raises(ValueError, match="ratio"):
        best_cause(fast_problem.a, fast_problem.b, fast_problem.support)


def test_best_cause_matches_enumeration_oracle(rng):
    checked = 0
    for _ in range(200):
        prob = oracles.random_problem(rng, density=0.5)
        expected = oracles.best_cause_by_enumeration(prob.a, prob.b, prob.support)
        if expected is None:
            continue
        checked += 1
        rows, cols, ratio = expected
        cause = best_cause(prob.a, prob.b, prob.support)
        assert cause.rows == rows
        assert cause.cols == cols
        assert cause.ratio == pytest.approx(ratio, rel=1e-9)
    assert checked > 30


# ---------------------------------------------------------------------------
# criticality and maximal support


def test_critical_causes_slow(slow_problem):
    causes = critical_causes(slow_problem.a, slow_problem.b, slow_problem.support)
    assert len(causes) == 1
    assert (causes[0].rows, causes[0].cols) == ((1,), (1,))
    assert causes[0].kind is CauseKind.CRITICALITY


def test_maximal_support_reference_instances(fast_problem, slow_problem):
    np.testing.assert_array_equal(
        maximal_support(fast_problem.a, fast_problem.b, fast_problem.support),
        fast_problem.support,
    )
    np.testing.assert_array_equal(
        maximal_support(slow_problem.a, slow_problem.b, slow_problem.support),
        [[False, True], [True, False]],
    )


def test_maximal_support_rejects_infeasible(divergence_problem):
    with pytest.raises(ValueError, match="infeasible"):
        maximal_support(divergence_problem.a, divergence_problem.b, divergence_problem.support)


def test_maximal_support_matches_enumeration_oracle(rng):
    checked = 0
    for _ in range(150):
        prob = oracles.random_problem(rng, density=0.55)
        if not oracles.feasible_by_enumeration(prob.a, prob.b, prob.support):
            continue
        checked += 1
        got = maximal_support(prob.a, prob.b, prob.support)
        want = oracles.maximal_support_by_enumeration(prob.a, prob.b, prob.support)
        np.testing.assert_array_equal(got, want)
    assert checked > 30


def test_maximal_support_idempotent(slow_problem, rng):
    s1 = maximal_support(slow_problem.a, slow_problem.b, slow_problem.support)
    np.testing.assert_array_equal(
        maximal_support(slow_problem.a, slow_problem.b, s1), s1
    )


# ---------------------------------------------------------------------------
# classification


def test_classify_three_regimes(fast_problem, slow_problem, divergence_problem):
    fast = classify(fast_problem)
    assert fast.behavior is Behavior.FAST_CONVERGENCE
    assert fast.cause is None
    np.testing.assert_array_equal(fast.max_support, fast_problem.support)

    slow = classify(slow_problem)
    assert slow.behavior is Behavior.SLOW_CONVERGENCE
    np.testing.assert_array_equal(slow.max_support, [[False, True], [True, False]])

    div = classify(divergence_problem)
    assert div.behavior is Behavior.DIVERGENCE
    assert div.max_support is None
    assert (div.cause.rows, div.cause.cols) == ((1,), (1,))


def test_classify_behavior_values():
    assert Behavior.FAST_CONVERGENCE.value == "FastConvergence"
    assert Behavior.SLOW_CONVERGENCE.value == "SlowConvergence"
    assert Behavior.DIVERGENCE.value == "Divergence"


# ---------------------------------------------------------------------------
# block structure of divergent instances


def test_block_structure_divergence_2x2(divergence_problem):
    bs = block_structure(divergence_problem)
    assert bs.r == 2
    assert bs.row_blocks == ((1,), (0,))
    assert bs.col_blocks == ((0,), (1,))
    np.testing.assert_allclose(bs.lambdas, oracles.DIV_LAMBDAS, atol=1e-14)
    np.testing.assert_allclose(bs.a_prime, oracles.DIV_A_PRIME, atol=1e-14)
    np.testing.assert_allclose(bs.b_prime, oracles.DIV_A_PRIME, atol=1e-14)


def test_block_structure_grid(grid_problem):
    bs = block_structure(grid_problem)
    assert bs.r == 3
    assert bs.row_blocks == oracles.GRID_ROW_BLOCKS
    assert bs.col_blocks == oracles.GRID_COL_BLOCKS
    np.testing.assert_allclose(bs.lambdas, oracles.GRID_LAMBDAS, atol=1e-12)
    np.testing.assert_allclose(bs.a_prime, oracles.GRID_A_PRIME, atol=1e-12)
    np.testing.assert_allclose(bs.b_prime, oracles.GRID_B_PRIME, atol=1e-12)


def test_block_structure_feasible_is_single_block(fast_problem):
    bs = block_structure(fast_problem)
    assert bs.r == 1
    assert bs.row_blocks == ((0, 1),)
    np.testing.assert_allclose(bs.lambdas, [1.0], atol=1e-14)
    np.testing.assert_allclose(bs.a_prime, fast_problem.a, atol=1e-14)


def test_block_structure_matches_peeling_oracle(rng):
    depths = []
    for _ in range(80):
        p, q = (int(v) for v in rng.integers(2, 11, size=2))
        prob = oracles.random_problem(rng, p, q, density=float(rng.uniform(0.3, 0.6)))
        bs = block_structure(prob)
        want = oracles.block_structure_by_enumeration(prob.a, prob.b, prob.support)
        assert (bs.row_blocks, bs.col_blocks) == want
        depths.append(bs.r)
    assert max(depths) >= 3  # the corpus peels more than one cause


def test_adjusted_marginals_recover_unit_scaling(rng):
    # a' and b' keep total mass 1 and per-block mass equality by construction
    for _ in range(50):
        prob = oracles.random_problem(rng)
        bs = block_structure(prob)
        assert bs.a_prime.sum() == pytest.approx(1.0, abs=1e-10)
        assert bs.b_prime.sum() == pytest.approx(1.0, abs=1e-10)
        for rows, cols in zip(bs.row_blocks, bs.col_blocks):
            assert bs.a_prime[list(rows)].sum() == pytest.approx(
                prob.b[list(cols)].sum(), abs=1e-10
            )
        if bs.r > 1:
            assert (np.diff(bs.lambdas) > 0).all()


# ---------------------------------------------------------------------------
# limit points


def test_limit_points_divergence_2x2(divergence_problem):
    lp = limit_points(divergence_problem)
    np.testing.assert_allclose(lp.even_limit, oracles.DIV_EVEN_LIMIT, atol=1e-12)
    np.testing.assert_allclose(lp.odd_limit, oracles.DIV_ODD_LIMIT, atol=1e-12)
    np.testing.assert_array_equal(lp.sigma, [[False, True], [True, False]])


def test_limit_points_grid(grid_problem):
    lp = limit_points(grid_problem)
    np.testing.assert_allclose(lp.even_limit, oracles.GRID_EVEN_LIMIT, atol=1e-10)
    np.testing.assert_array_equal(lp.sigma, oracles.GRID_SIGMA)
    expected_odd = oracles.GRID_EVEN_LIMIT * (
        oracles.GRID_A / oracles.GRID_A_PRIME
    )[:, None]
    np.testing.assert_allclose(lp.odd_limit, expected_odd, atol=1e-10)


def test_limit_points_feasible_coincide(fast_problem):
    lp = limit_points(fast_problem)
    np.testing.assert_allclose(lp.even_limit, oracles.FAST_LIMIT, atol=1e-10)
    np.testing.assert_allclose(lp.odd_limit, lp.even_limit, atol=1e-14)


def test_limit_points_agree_with_long_run(divergence_problem):
    lp = limit_points(divergence_problem)
    trace = run(divergence_problem)
    np.testing.assert_allclose(trace.even_limit(), lp.even_limit, atol=1e-10)
    np.testing.assert_allclose(trace.odd_limit(), lp.odd_limit, atol=1e-10)


def _pipeline_problems():
    for name in ("fast-2x2", "slow-2x2", "divergence-2x2", "example-5x6"):
        yield pytest.param(io.load_problem(io.data_path(f"{name}.json"))[0], id=name)
    for rows in (30, 100):
        problem = oracles.planted_blocks(np.random.default_rng(rows), rows, rows)[0]
        yield pytest.param(problem, id=f"planted-{rows}")


@pytest.mark.parametrize("problem", list(_pipeline_problems()))
def test_limit_points_agrees_with_the_standalone_functions(problem):
    lp = limit_points(problem)

    cls, expected = lp.classification, classify(problem)
    assert cls.behavior is expected.behavior
    assert cls.cause == expected.cause
    for field in ("witness", "max_support"):
        got, want = getattr(cls, field), getattr(expected, field)
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)

    bs, expected = lp.blocks, block_structure(problem)
    assert (bs.r, bs.row_blocks, bs.col_blocks) == (
        expected.r, expected.row_blocks, expected.col_blocks)
    for field in ("lambdas", "a_prime", "b_prime"):
        np.testing.assert_array_equal(getattr(bs, field), getattr(expected, field))

    x0 = np.where(lp.sigma, problem.x0, 0.0)
    np.testing.assert_array_equal(lp.restricted.x0, x0 / x0.sum())

    # the structural stage alone gives the same arrays, bit for bit
    _, bs, sigma, restricted = structure._limit_structure(problem)
    assert (bs.r, bs.row_blocks, bs.col_blocks) == (
        lp.blocks.r, lp.blocks.row_blocks, lp.blocks.col_blocks)
    pairs = [(getattr(bs, f), getattr(lp.blocks, f)) for f in ("lambdas", "a_prime", "b_prime")]
    pairs += [(sigma, lp.sigma)]
    pairs += [(getattr(restricted, f), getattr(lp.restricted, f)) for f in ("x0", "a", "b")]
    for got, want in pairs:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@st.composite
def _ill_scaled_problems(draw):
    """Seeds of 2-11 rows and columns with entries from 1e-15 to 1, on a
    random support with no empty line, and integer-ratio marginals."""
    p, q = draw(st.integers(2, 11)), draw(st.integers(2, 11))
    exponents = draw(arrays(np.float64, (p, q), elements=st.floats(-15.0, 0.0)))
    mask = draw(arrays(np.bool_, (p, q)))
    line = np.arange(max(p, q))
    mask[line % p, line % q] = True
    a = draw(arrays(np.int64, p, elements=st.integers(1, 40)))
    b = draw(arrays(np.int64, q, elements=st.integers(1, 40)))
    return FittingProblem(np.where(mask, 10.0 ** exponents, 0.0), a / a.sum(), b / b.sum())


@settings(max_examples=150, deadline=None)
@given(problem=_ill_scaled_problems())
def test_limit_points_solves_ill_scaled_seeds(problem):
    lp = limit_points(problem)
    even = lp.even_limit
    error = (np.abs(even.sum(axis=1) - lp.blocks.a_prime).sum()
             + np.abs(even.sum(axis=0) - problem.b).sum())
    assert error <= 1e-12


@pytest.mark.parametrize("g", [1e-3, 1e-4, 1e-6, 1e-8, 1e-10])
def test_limit_points_near_criticality(g):
    # feasible with full support, and the limit's corner cell is g: the
    # iteration's rate tends to 1 with g, Newton's step count barely moves
    problem = FittingProblem([[1, 1], [1, 0]], [0.5 + g, 0.5 - g], [0.5, 0.5])
    even = limit_points(problem).even_limit
    np.testing.assert_allclose(even.sum(axis=1), problem.a, rtol=0, atol=1e-13)
    np.testing.assert_allclose(even.sum(axis=0), problem.b, rtol=0, atol=1e-13)
    assert even[0, 0] == pytest.approx(g, rel=1e-5)


@pytest.mark.parametrize("check", [feasible, best_cause, maximal_support])
@pytest.mark.parametrize("supp, message", [
    pytest.param([True, True], "support pattern must be a 2-D boolean mask", id="1-D"),
    pytest.param(np.ones((3, 2), bool), "support shape (3, 2) does not match marginals (2, 2)",
                 id="shape"),
    pytest.param([[True, True], [False, False]],
                 "support row 1 is empty; every row needs an allowed cell", id="empty-row"),
    pytest.param([[True, False], [True, False]],
                 "support column 1 is empty; every column needs an allowed cell", id="empty-column"),
])
def test_support_checks_name_what_failed(check, supp, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check([0.5, 0.5], [0.5, 0.5], supp)


def test_structure_does_not_import_the_engine():
    # the structure layer decides everything, limits included, without
    # iterating, and the certificate rules it calls stand apart from the code
    # they check: no import of the engine module, relative or absolute, nor
    # of structure from _certify
    for module, banned in ((structure, ("engine",)), (_certify, ("engine", "structure"))):
        tree = ast.parse(Path(module.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
        assert names and not any(word in name for name in names for word in banned)


def _certify_everything(problem):
    """Check what ``classify``, ``block_structure`` and ``limit_points`` return
    by every rule of ``_certify``, the limits' scaling form on sigma included."""
    a, b, supp = problem.a, problem.b, problem.support
    lp = limit_points(problem)
    for cls in (classify(problem), lp.classification):
        causes = [(c.rows, c.cols, c.kind.value, c.ratio) for c in [cls.cause] if c]
        _certify.classification(a, b, supp, cls.behavior.value, causes, cls.witness,
                                cls.max_support)
    for bs in (block_structure(problem), lp.blocks):
        _certify.blocks(a, b, supp, bs.lambdas, bs.row_blocks, bs.col_blocks, bs.a_prime,
                        bs.b_prime)
    _certify.support_mask(lp.sigma, supp, "sigma")
    _certify.limits(a, b, lp.sigma, lp.blocks.a_prime, lp.blocks.b_prime, lp.even_limit,
                    lp.odd_limit)
    _certify.scaling_form(problem.x0, lp.sigma, lp.even_limit, lp.odd_limit)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 11), q=st.integers(2, 11))
def test_library_results_pass_every_certificate_rule(seed, p, q):
    _certify_everything(oracles.random_problem(np.random.default_rng(seed), p, q))


@pytest.mark.parametrize("make", [
    pytest.param(lambda rng: oracles.planted_blocks(rng, 30, 30)[0], id="planted-30"),
    pytest.param(lambda rng: oracles.planted_blocks(rng, 100, 100)[0], id="planted-100"),
    pytest.param(lambda rng: oracles.planted_blocks(rng, 300, 300)[0], id="planted-300"),
    pytest.param(lambda rng: oracles.sparse_critical(rng, 300, 0.05), id="sparse-critical-300"),
])
def test_large_library_results_pass_every_certificate_rule(make):
    _certify_everything(make(np.random.default_rng(1)))


# ---------------------------------------------------------------------------
# numerics recovering the structure


def test_partition_from_ratios_recovers_row_blocks(divergence_problem, grid_problem):
    trace = run(divergence_problem)
    ratios = trace.ratios(trace.last_even[0]).rows
    assert partition_from_ratios(ratios) == ((1,), (0,))

    trace = run(grid_problem, StoppingRule(tol_marginal=1e-300, max_iters=4000))
    ratios = trace.ratios(trace.last_even[0]).rows
    assert partition_from_ratios(ratios, gap=0.05) == oracles.GRID_ROW_BLOCKS


@pytest.mark.parametrize("values", [[], [math.nan, 1.0, 2.0], [1.0, math.inf]])
def test_partition_from_ratios_rejects_empty_or_non_finite_input(values):
    with pytest.raises(ValueError, match="partition_from_ratios needs"):
        partition_from_ratios(values)


@pytest.mark.parametrize("gap", [math.nan, -0.5])
def test_partition_from_ratios_rejects_a_nan_or_negative_gap(gap):
    # a NaN gap split nowhere: [0.1, 5, 9] came back as one block
    with pytest.raises(ValueError, match=f"gap must be >= 0, got {gap!r}"):
        partition_from_ratios([0.1, 5.0, 9.0], gap=gap)


def test_cross_block_cell_decays_at_scaling_gap_rate(divergence_problem):
    # cell (0, 0) couples the last row block with the first column block;
    # its even-iterate decay rate is half the log-gap of the scaling factors
    trace = run_capped(divergence_problem, 80)
    report = rate_estimate(trace)
    bound = math.log(oracles.DIV_LAMBDAS[0] / oracles.DIV_LAMBDAS[1]) / 2.0
    assert bound == pytest.approx(math.log(0.5), abs=1e-12)
    assert report.rates[0, 0] == pytest.approx(bound, abs=0.03)

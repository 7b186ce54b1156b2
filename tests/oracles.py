"""Hand-checked reference values and brute-force oracles for the test suite.

Closed-form iterates
--------------------
The three 2x2 reference instances admit closed-form iterates.  One shared
convention covers all of them: the displayed formula gives the row-fitted
(odd-index) iterates, and the column-fitted (even-index) iterates are its
transpose.  Each instance is invariant under transposing the matrix while
swapping the two marginal roles, and a column fit is a row fit of the
transpose, so a single formula serves both parities.

For the fast instance the formula argument runs one ahead of the iterate
index (``X_n`` uses ``m = n + 1``); the first row fit was verified by hand:
``fit_rows((1/4)[[2,1],[1,0]], (2/3,1/3)) = [[4/9, 2/9], [1/3, 0]]``, which
is the ``m = 2`` matrix.  The slow and divergent forms use the iterate index
directly; their ``n = 1`` and ``n = 2`` matrices were likewise checked by
hand against explicit row/column fits.

Matrix-form reference loop
--------------------------
:func:`reference_run` is the fitting loop on whole matrices, every stopping
rule tested after every step: the engine, which iterates scaling vectors and
tests the rules chunk by chunk, is compared against it.

Backward-product reference loop
-------------------------------
:func:`reference_product_run` multiplies and measures one factor at a time,
and :func:`reference_birkhoff_sequence` averages permutation matrices drawn
one ``rng.permutation`` call at a time: ``products.product_run`` and the
stacked Birkhoff generator are compared against them.

Indented JSON
-------------
:func:`reference_dumps` is the formulation ``io.dumps`` replaced: the
pure-Python indent-2 encoder run over ``io.jsonify``'s output.  Every
JSON file and every stdout payload must come out byte for byte the same.

Brute-force oracles
-------------------
The structural verdicts (feasibility, strongest cause, critical blocks,
maximal support, block peeling) have independent oracles that enumerate every
zero block ``A x B(A)`` over row subsets ``A`` — exponential, fine for the
small random instances used in tests, and sharing no code with the max-flow
implementation under test.  :func:`planted_blocks` builds divergent instances
of any size whose block structure is known by construction, so large
instances are checked through their certificates instead.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np

from bipfit import FittingProblem, StopReason, io
from bipfit.structure import Cause, CauseKind

# ---------------------------------------------------------------------------
# the three 2x2 reference instances

FAST_A = np.array([2.0, 1.0]) / 3.0
FAST_X0 = np.array([[2.0, 1.0], [1.0, 0.0]]) / 4.0
FAST_LIMIT = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0

SLOW_A = np.array([0.5, 0.5])
SLOW_X0 = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0
SLOW_LIMIT = np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0

DIV_A = np.array([1.0, 2.0]) / 3.0
DIV_X0 = SLOW_X0
DIV_EVEN_LIMIT = np.array([[0.0, 2.0], [1.0, 0.0]]) / 3.0
DIV_ODD_LIMIT = np.array([[0.0, 1.0], [2.0, 0.0]]) / 3.0
DIV_LAMBDAS = np.array([0.5, 2.0])
DIV_A_PRIME = np.array([2.0, 1.0]) / 3.0

# Ratio-propagation matrix of the divergent instance at iterate 2, computed
# by hand from P(i,k) = sum_j y(i,j) y(k,j) / (a_i b_j c_j) with
# y = fit_rows(X_2, a): all entries are 23rds.
DIV_P_AT_2 = np.array([[21.0, 2.0], [1.0, 22.0]]) / 23.0
DIV_R_AT_2 = np.array([11.0 / 5.0, 2.0 / 5.0])
DIV_R_AT_4 = np.array([47.0, 11.0]) / 23.0


def _parity_form(n, printed):
    return printed if n % 2 else printed.T


def fast_iterate(n: int) -> np.ndarray:
    """Iterate ``X_n`` of the fast instance (geometric convergence)."""
    if n == 0:
        return FAST_X0.copy()
    m = n + 1
    top = 2.0 ** m
    printed = np.array([[top, top - 2.0], [top - 1.0, 0.0]]) / (3.0 * (top - 1.0))
    return _parity_form(n, printed)


def slow_iterate(n: int) -> np.ndarray:
    """Iterate ``X_n`` of the slow instance (1/n convergence)."""
    if n == 0:
        return SLOW_X0.copy()
    printed = np.array([[1.0, float(n)], [n + 1.0, 0.0]]) / (2.0 * n + 2.0)
    return _parity_form(n, printed)


def divergence_iterate(n: int) -> np.ndarray:
    """Iterate ``X_n`` of the divergent instance (two oscillation limits)."""
    if n == 0:
        return DIV_X0.copy()
    g = 3.0 * 2.0 ** (n - 1)
    printed = np.array([[1.0, g - 2.0], [2.0 * (g - 1.0), 0.0]]) / (3.0 * (g - 1.0))
    return _parity_form(n, printed)


# ---------------------------------------------------------------------------
# matrix-form reference loop


def reference_run(problem: FittingProblem, rule):
    """The fitting loop on whole matrices, testing every rule after every step.

    Returns ``(iterates, ratio_rows, ratio_cols, errors, stop_reason)``; the
    engine's scaling-vector form must reproduce all of it.
    """
    a, b, x = problem.a, problem.b, problem.x0
    xs, rr, cc, ee, dd = [], [], [], [], [np.inf, np.inf]
    while True:
        n = len(xs)
        xs.append(x)
        rows, cols = x.sum(axis=1), x.sum(axis=0)
        rr.append(rows / a)
        cc.append(cols / b)
        ee.append(np.abs(rows - a).sum() + np.abs(cols - b).sum())
        if n >= 2:
            dd.append(np.abs(x - xs[n - 2]).sum())
        if ee[-1] < rule.tol_marginal:
            reason = StopReason.CONVERGED
        elif max(dd[-16:]) < rule.tol_even_odd:  # last 8 distances of each parity
            reason = StopReason.EVEN_ODD_CONVERGED
        elif n >= rule.max_iters:
            reason = StopReason.ITERATION_CAP
        else:
            x = x * (a / rows)[:, None] if n % 2 == 0 else x * (b / cols)[None, :]
            continue
        return np.array(xs), np.array(rr), np.array(cc), np.array(ee), reason


# ---------------------------------------------------------------------------
# backward-product reference loops


def reference_assumptions(ms):
    """``(gamma, rho, doubly_stochastic)`` of a factor sequence, factor by factor."""
    gamma, rho, doubly = np.inf, 1.0, True
    for m in ms:
        gamma = min(gamma, float(np.diag(m).min()))
        pos = m > 0
        if np.any(pos & (m.T == 0)):
            rho = float("inf")
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                ratios = np.where(pos, m / np.where(m.T > 0, m.T, 1.0), 1.0)
            rho = max(rho, float(ratios.max()))
        doubly = doubly and float(np.abs(m.sum(axis=0) - 1.0).max()) <= 1e-12
    return float(gamma), rho, doubly


def reference_product_run(ms, tracked_vectors=()):
    """The backward product ``M_n ... M_1`` multiplied and measured one factor at a time.

    Returns the fields of a ``ProductTrace`` (partial products as a list,
    running factor sums stored) plus ``assumptions`` as
    :func:`reference_assumptions` gives them.
    """
    ms = [np.asarray(m, dtype=float) for m in ms]
    tracked = [np.asarray(v, dtype=float).ravel() for v in tracked_vectors]
    partials, variations, disp, sums = [], [], [], []
    prod, running = None, 0.0
    for m in ms:
        prod = m.copy() if prod is None else m @ prod
        if partials:
            variations.append(float(np.abs(prod - partials[-1]).sum()))
        partials.append(prod)
        running = running + m
        sums.append(running)
        ws = [prod @ v for v in tracked]
        disp.append([float(np.abs(w[:, None] - w[None, :]).sum()) for w in ws])
    return SimpleNamespace(
        partial_products=partials,
        final=partials[-1],
        variations=np.array(variations),
        dispersion_history=np.array(disp).reshape(len(ms), len(tracked)),
        offdiag_partial_sums=np.array(sums),
        assumptions=reference_assumptions(ms),
    )


def reference_birkhoff_sequence(count: int, d: int, seed: int, gamma: float = 0.0,
                                n_perms: int | None = None) -> list[np.ndarray]:
    """What a ``birkhoff`` sequence spec draws, one permutation at a time."""
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    out = []
    for _ in range(count):
        avg = np.zeros((d, d))
        for _ in range(n_perms or d):
            avg += eye[rng.permutation(d)]
        avg /= n_perms or d
        out.append(gamma * eye + (1 - gamma) * avg)
    return out


# ---------------------------------------------------------------------------
# indented JSON


def reference_dumps(obj) -> str:
    """``json.dumps(io.jsonify(obj), indent=2)``: what ``io.dumps`` must write."""
    return json.dumps(io.jsonify(obj), indent=2)


# ---------------------------------------------------------------------------
# the 5x6 worked instance

GRID_A = np.array([0.25, 0.25, 0.25, 0.15, 0.10])
GRID_B = np.array([0.05, 0.05, 0.1, 0.2, 0.2, 0.4])
GRID_SUPPORT = np.array(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [1, 1, 1, 1, 0, 1],
        [1, 0, 1, 1, 1, 1],
    ],
    dtype=bool,
)
GRID_X0 = GRID_SUPPORT / GRID_SUPPORT.sum()

GRID_ROW_BLOCKS = ((0, 1), (2,), (3, 4))
GRID_COL_BLOCKS = ((0, 1, 2), (3,), (4, 5))
GRID_LAMBDAS = np.array([0.4, 0.8, 2.4])
GRID_A_PRIME = np.array([0.1, 0.1, 0.2, 0.36, 0.24])
GRID_B_PRIME = np.array([0.125, 0.125, 0.25, 0.25, 1.0 / 12.0, 1.0 / 6.0])
GRID_EVEN_LIMIT = np.array(
    [
        [0.05, 0.05, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.1, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.2, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.36],
        [0.0, 0.0, 0.0, 0.0, 0.2, 0.04],
    ]
)
# The limit support.  Under the adjusted row marginals every block boundary
# is critical, so all cells coupling different blocks are forced to zero and
# sigma collapses to the block diagonal — the support of the even limit
# (notably dropping cell (1, 1), which sits inside the first block but is
# squeezed out by the criticality of row 0 against columns {0, 1} there).
GRID_SIGMA = GRID_EVEN_LIMIT > 0


def grid_problem() -> FittingProblem:
    return FittingProblem(GRID_X0, GRID_A, GRID_B)


# ---------------------------------------------------------------------------
# brute-force structural oracles


def zero_blocks(supp):
    """Every zero block: ``(rows A, cols B(A))`` with both parts nonempty.

    ``B(A)`` is the full set of columns vanishing on every row of ``A`` —
    the maximal column block for that row set, which is the only one that
    matters for feasibility gaps and criticality.
    """
    supp = np.asarray(supp, dtype=bool)
    p = supp.shape[0]
    for mask in range(1, 1 << p):
        rows = tuple(i for i in range(p) if mask >> i & 1)
        live = supp[list(rows)].any(axis=0)
        cols = tuple(int(j) for j in np.flatnonzero(~live))
        if cols:
            yield rows, cols


def worst_gap(a, b, supp):
    """``max a(A) - b(B(A)^c)`` over zero blocks, with its argmax block.

    Positive gap = infeasibility certificate; zero gap = criticality.
    Returns ``(-inf, None, None)`` when the support has no zero block.
    """
    a = np.asarray(a, dtype=float) / np.sum(a)
    b = np.asarray(b, dtype=float) / np.sum(b)
    q = b.size
    best, best_rows, best_cols = -np.inf, None, None
    for rows, cols in zero_blocks(supp):
        comp = [j for j in range(q) if j not in cols]
        gap = a[list(rows)].sum() - b[comp].sum()
        if gap > best:
            best, best_rows, best_cols = gap, rows, cols
    return best, best_rows, best_cols


def feasible_by_enumeration(a, b, supp, tol: float = 1e-11) -> bool:
    gap, _, _ = worst_gap(a, b, supp)
    return gap <= tol


def best_cause_by_enumeration(a, b, supp, rel_tol: float = 1e-9):
    """Strongest incompatibility cause: the ratio-maximizing zero block.

    Ties within ``rel_tol`` are resolved by taking the union of the tied row
    sets (with its own full column block), mirroring the documented contract
    of the function under test.  Returns ``(rows, cols, ratio)`` or ``None``
    if no block has ratio above 1.
    """
    a = np.asarray(a, dtype=float) / np.sum(a)
    b = np.asarray(b, dtype=float) / np.sum(b)
    supp = np.asarray(supp, dtype=bool)
    q = b.size
    scored = []
    for rows, cols in zero_blocks(supp):
        comp = [j for j in range(q) if j not in cols]
        scored.append((a[list(rows)].sum() / b[comp].sum(), rows, cols))
    if not scored:
        return None
    top = max(s[0] for s in scored)
    if top <= 1.0 + 1e-12:
        return None
    union: set[int] = set()
    for ratio, rows, cols in scored:
        if ratio >= top * (1.0 - rel_tol):
            union |= set(rows)
    rows = tuple(sorted(union))
    live = supp[list(rows)].any(axis=0)
    cols = tuple(int(j) for j in np.flatnonzero(~live))
    comp = [j for j in range(q) if j not in cols]
    return rows, cols, a[list(rows)].sum() / b[comp].sum()


def block_structure_by_enumeration(a, b, supp):
    """Row and column blocks peeled off by iterated :func:`best_cause_by_enumeration`."""
    supp = np.asarray(supp, dtype=bool)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows_left, cols_left = list(range(a.size)), list(range(b.size))
    row_blocks, col_blocks = [], []
    while True:
        cause = best_cause_by_enumeration(a[rows_left], b[cols_left],
                                          supp[np.ix_(rows_left, cols_left)])
        if cause is None:
            return (tuple(row_blocks) + (tuple(rows_left),),
                    tuple(col_blocks) + (tuple(cols_left),))
        rows, cols, _ = cause
        row_blocks.append(tuple(rows_left[i] for i in rows))
        col_blocks.append(tuple(j for k, j in enumerate(cols_left) if k not in cols))
        rows_left = [i for k, i in enumerate(rows_left) if k not in rows]
        cols_left = [cols_left[k] for k in cols]


def critical_causes(a, b, supp, crit_tol: float = 1e-12) -> list[Cause]:
    """Every critical zero block ``A x B(A)`` (``a(A) = b(B(A)^c)`` within tolerance)."""
    a = np.asarray(a, dtype=float) / np.sum(a)
    b = np.asarray(b, dtype=float) / np.sum(b)
    q = b.size
    out = []
    for rows, cols in zero_blocks(supp):
        comp = [j for j in range(q) if j not in cols]
        a_mass, b_mass = a[list(rows)].sum(), b[comp].sum()
        if abs(a_mass - b_mass) <= crit_tol * max(1.0, a_mass):
            out.append(Cause(rows=rows, cols=cols, kind=CauseKind.CRITICALITY,
                             ratio=a_mass / b_mass))
    return out


def maximal_support_by_enumeration(a, b, supp, crit_tol: float = 1e-12):
    """Seed support minus the forced zeros of every critical zero block.

    A block with ``a(A) = b(B(A)^c)`` forces every feasible matrix to vanish
    on ``A^c x B(A)^c``; the maximal support is what survives all of them.
    Only valid on feasible instances.
    """
    a = np.asarray(a, dtype=float) / np.sum(a)
    b = np.asarray(b, dtype=float) / np.sum(b)
    supp = np.asarray(supp, dtype=bool)
    p, q = supp.shape
    out = supp.copy()
    for rows, cols in zero_blocks(supp):
        comp = [j for j in range(q) if j not in cols]
        a_mass = a[list(rows)].sum()
        if abs(a_mass - b[comp].sum()) <= crit_tol * max(1.0, a_mass):
            dead_rows = [i for i in range(p) if i not in rows]
            out[np.ix_(dead_rows, comp)] = False
    return out


# ---------------------------------------------------------------------------
# random instance generators (rational marginals keep criticality decidable)


def random_marginals(rng: np.random.Generator, size: int, max_int: int = 12):
    """Marginals with small integer numerators: gaps are either exactly zero
    or at least ``1/(max_int * size)^2``-ish, far above every tolerance."""
    ints = rng.integers(1, max_int + 1, size=size)
    return ints / ints.sum()


def random_support(rng: np.random.Generator, p: int, q: int, density: float = 0.65):
    while True:
        supp = rng.random((p, q)) < density
        if supp.any(axis=1).all() and supp.any(axis=0).all():
            return supp


def planted_blocks(rng: np.random.Generator, p: int, q: int, r: int = 3):
    """A divergent seed that is lower block triangular, with its planted blocks.

    Rows and columns are split at random into ``r`` blocks ``I_k``, ``J_k``;
    the seed is dense on ``I_k x J_k'`` for ``k' <= k`` and zero elsewhere.
    Block masses give ``lambda_k = b(J_k) / a(I_k)`` strictly increasing with
    ``lambda_(r-1) < 1 < lambda_r``, so the cumulative ratios
    ``a(I_1..I_k) / b(J_1..J_k)`` strictly decrease, every peeling step
    takes the next planted block, and the block structure is the planted
    one.  Marginals are integers over ``2^30``: every partial sum is exact.

    Returns ``(problem, row_blocks, col_blocks, lambdas)``.
    """
    denom = 1 << 30
    row_blocks = [tuple(sorted(int(i) for i in blk))
                  for blk in np.array_split(rng.permutation(p), r)]
    col_blocks = [tuple(sorted(int(j) for j in blk))
                  for blk in np.array_split(rng.permutation(q), r)]
    alpha = np.full(r, denom // r)
    alpha[-1] += denom - alpha.sum()
    beta = np.empty(r, dtype=np.int64)
    beta[:-1] = np.round(np.linspace(0.3, 0.9, r - 1) * alpha[:-1])
    beta[-1] = denom - beta[:-1].sum()

    def split(total, size):
        return rng.multinomial(total - size, np.full(size, 1.0 / size)) + 1

    a, b = np.zeros(p), np.zeros(q)
    mask = np.zeros((p, q), dtype=bool)
    for k in range(r):
        a[list(row_blocks[k])] = split(alpha[k], len(row_blocks[k])) / denom
        b[list(col_blocks[k])] = split(beta[k], len(col_blocks[k])) / denom
        mask[np.ix_(row_blocks[k], [j for blk in col_blocks[:k + 1] for j in blk])] = True
    x0 = np.where(mask, rng.uniform(0.5, 2.0, size=(p, q)), 0.0)
    return (FittingProblem(x0, a, b), tuple(row_blocks), tuple(col_blocks),
            beta / alpha)


def random_problem(rng: np.random.Generator, p: int | None = None,
                   q: int | None = None, density: float = 0.65) -> FittingProblem:
    p = int(rng.integers(2, 7)) if p is None else p
    q = int(rng.integers(2, 7)) if q is None else q
    a = random_marginals(rng, p)
    b = random_marginals(rng, q)
    supp = random_support(rng, p, q, density)
    x0 = np.where(supp, rng.random((p, q)) + 0.05, 0.0)
    return FittingProblem(x0, a, b)

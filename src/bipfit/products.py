"""Backward products of stochastic matrices and their convergence checks.

The iteration engine's ratio vectors evolve by left-multiplication with
stochastic matrices, so the convergence theory of backward products
``P_n = M_n ... M_2 M_1`` is studied here in its own right.  Two structural
assumptions drive everything: a uniform lower bound ``gamma`` on the
diagonals and a uniform bound ``rho`` on the ratios ``M(i,j)/M(j,i)``.
Under both, partial products have finite total variation and converge; the
module provides the run harness, the assumption checks, three elementary
inequality checkers (diameter contraction, dispersion decrease, sorted
partial sums), a convergence report for off-diagonal entry series, and the
generator families used by tests and the command line (the commuting
symmetric 2x2 family ``mr``, the alternating 3x3 counterexample pair
``t0t1``, and random doubly stochastic matrices by permutation averaging).

Stochasticity is never repaired silently: a partial product whose row sums
drift beyond tolerance is an error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _check_tolerance
from .engine import _BLOCK
from .errors import InternalCheckError

#: Row sums of an input stochastic matrix may deviate from 1 by this much.
ROW_SUM_TOL = 1e-12

#: Row-sum drift tolerance for partial products along a run, on top of the
#: drift that the factors' own row sums and rounding explain (see
#: :func:`product_run`).
DRIFT_TOL = 1e-10

#: Unit roundoff of float64.
_U = 2.0 ** -53

#: Guard band of the whole-block screens, in units of ``d u``.  The screens
#: take row sums from one BLAS ``gemv`` with a ones vector and column sums
#: from ``einsum``, not in the order of numpy's ``sum`` (which adds a row
#: pairwise from 8 entries on).  Over nonnegative entries any order lies
#: within ``(d - 1) u`` times the exact sum, so a block that passes its
#: screen this far inside the tolerance passes numpy's per-row test too.
_GUARD = 4


def _first_violation(ms: np.ndarray, tol: float):
    """``(k, reason)`` for the first matrix ``ms[k]`` of a stack that is not stochastic.

    ``None`` when every matrix has nonnegative entries and row sums within
    ``tol`` of 1 (a NaN entry makes its row sum fail).
    """
    dev = np.abs(ms.sum(axis=2) - 1.0).max(axis=1)
    neg = (ms < 0).any(axis=(1, 2))
    bad = np.flatnonzero(neg | ~(dev <= tol))
    if not bad.size:
        return None
    k = int(bad[0])
    if neg[k]:
        i, j = np.unravel_index(int(np.argmin(ms[k])), ms[k].shape)
        return k, f"entry ({i},{j}) is negative: {float(ms[k, i, j])!r}"
    return k, f"row sums deviate from 1 by {dev[k]:g} (tol {tol:g})"


def _check_stochastic(m, tol: float = ROW_SUM_TOL, square: bool = True) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("stochastic matrix must be 2-D")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    bad = _first_violation(m[None], tol)
    if bad:
        raise ValueError(bad[1])
    return m


def _check_doubly_stochastic(m, tol: float = ROW_SUM_TOL) -> np.ndarray:
    m = _check_stochastic(m, tol=tol, square=True)
    dev = float(np.abs(m.sum(axis=0) - 1.0).max())
    if dev > tol:
        raise ValueError(f"column sums deviate from 1 by {dev:g}; not doubly stochastic")
    return m


def dispersion(v) -> float:
    """``sum_{i,j} |v_i - v_j|`` over all ordered pairs.

    For example ``dispersion([0, 1]) == 2`` and
    ``dispersion([1, 2, 4]) == 12``.
    """
    v = np.asarray(v, dtype=float).ravel()
    return float(np.abs(v[:, None] - v[None, :]).sum())


def _operand(m: np.ndarray, v) -> np.ndarray:
    """``v`` as a flat float vector, checked to have one entry per column of ``m``."""
    v = np.asarray(v, dtype=float).ravel()
    if m.shape[1] != v.size:
        raise ValueError(f"shape mismatch: {m.shape} vs vector of {v.size}")
    return v


def check_diameter_contraction(m, v):
    """Slacks of the three min/max/diameter bounds for one application of ``m``.

    With ``mu = min entry of m`` and ``w = m @ v``:

    * ``min w >= (1 - mu) min v + mu max v``
    * ``max w <= mu min v + (1 - mu) max v``
    * ``diam w <= (1 - 2 mu) diam v``

    Returns the three slacks (each nonnegative when the bounds hold).  A
    genuinely negative slack means a stochasticity violation upstream and
    raises, reporting the offending pair.
    """
    m = _check_stochastic(m, square=False)
    v = _operand(m, v)
    mu = float(m.min())
    w = m @ v
    lo, hi = float(v.min()), float(v.max())
    slack_min = float(w.min()) - ((1 - mu) * lo + mu * hi)
    slack_max = (mu * lo + (1 - mu) * hi) - float(w.max())
    slack_diam = (1 - 2 * mu) * (hi - lo) - float(w.max() - w.min())
    slacks = (slack_min, slack_max, slack_diam)
    if min(slacks) < -1e-12:
        raise InternalCheckError(
            f"diameter contraction violated (slacks {slacks}) for m={m!r}, v={v!r}"
        )
    return slacks


def check_dispersion_decrease(m, v, gamma: float) -> float:
    """Slack of ``D(v) - D(m @ v) >= gamma * ||m @ v - v||_1``.

    Requires ``m`` doubly stochastic with every diagonal entry at least
    ``gamma`` (precondition errors raise ``ValueError``); the returned slack
    is the caller's to assert on.
    """
    m = _check_doubly_stochastic(m)
    v = _operand(m, v)
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    if float(np.diag(m).min()) < gamma - 1e-15:
        raise ValueError(
            f"diagonal entries fall below gamma={gamma!r}: min is "
            f"{float(np.diag(m).min())!r}"
        )
    w = m @ v
    return dispersion(v) - dispersion(w) - gamma * float(np.abs(w - v).sum())


def check_sorted_partial_sums(m, v, k: int) -> float:
    """Slack of "the k smallest entries can only gain mass": doubly stochastic ``m``.

    Returns ``sum of k smallest entries of (m @ v)`` minus the same for
    ``v``; nonnegative for every ``1 <= k <= dim``.
    """
    m = _check_doubly_stochastic(m)
    v = _operand(m, v)
    if not 1 <= k <= v.size:
        raise ValueError(f"k must be in 1..{v.size}, got {k}")
    w = np.sort(m @ v)
    s = np.sort(v)
    return float(w[:k].sum() - s[:k].sum())


# ---------------------------------------------------------------------------
# product runs


@dataclass
class AssumptionCheck:
    """Sequence-wide assumption summary.

    ``gamma`` is the smallest diagonal entry over all factors; ``rho`` the
    largest ratio ``M(i,j)/M(j,i)`` with the conventions ``0/0 = 1`` and
    ``positive/0 = +inf``; ``doubly_stochastic`` says whether every factor
    has unit column sums too.
    """

    gamma: float
    rho: float
    doubly_stochastic: bool


def _stack(ms) -> np.ndarray:
    """The factors as one ``(n, d, d)`` float array.

    A float64 array is returned as it is, without a copy; any other
    iterable is stacked once.  An empty input gives a ``(0, 0, 0)`` array.
    """
    if not isinstance(ms, np.ndarray):
        ms = list(ms)
        if not ms:
            return np.empty((0, 0, 0))
        try:
            ms = np.asarray(ms, dtype=float)
        except ValueError:
            if len({np.shape(m) for m in ms}) > 1:
                raise ValueError("matrix sequence mixes dimensions") from None
            raise
    elif ms.ndim != 3:
        raise ValueError(f"expected an (n, d, d) stack of factors, got shape {ms.shape}")
    stack = np.asarray(ms, dtype=float)
    if stack.ndim != 3:
        raise ValueError("stochastic matrix must be 2-D")
    if stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a square matrix, got {stack.shape[1:]}")
    return stack


def _blocks(n: int, per_item: int):
    """Slices of ``range(n)`` covering about :data:`_BLOCK` numbers of ``per_item`` each."""
    step = max(1, _BLOCK // max(1, per_item))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _deviation(sums: np.ndarray) -> float:
    """``max |s - 1|`` over ``sums``, computed in place (NaN when a sum is NaN)."""
    sums -= 1.0
    return float(np.abs(sums, out=sums).max())


@functools.cache
def _pair_cells(d: int) -> np.ndarray:
    """Flat cells ``(i, j)`` then ``(j, i)`` of every pair ``i < j`` of a ``d x d`` matrix."""
    i, j = np.triu_indices(d, 1)
    cells = np.concatenate([i * d + j, j * d + i])
    cells.flags.writeable = False
    return cells


def _check_factors(stack: np.ndarray) -> tuple[AssumptionCheck, list[float]]:
    """:func:`assumption_check` of a stack, and each block's largest row-sum deviation.

    Every block of :func:`_blocks` is screened whole: one ``gemv`` for its
    row sums and one ``min`` over its entries.  Only a block whose
    screen fails, or falls within ``_GUARD d u`` of :data:`ROW_SUM_TOL`, is
    scanned factor by factor with :func:`_first_violation`, so verdicts and
    messages are those of the per-factor test.  ``rho`` is taken over the
    off-diagonal pairs of :func:`_pair_cells`; column sums decide
    ``doubly_stochastic`` the same way, numpy's own ``sum`` settling a
    block near the tolerance.
    """
    n, d, _ = stack.shape
    guard, ones = _GUARD * d * _U, np.ones(d)
    gamma, rho, doubly = np.inf, 1.0, True
    deltas = []
    for blk in _blocks(n, d * d):
        m = stack[blk]
        delta = _deviation(m.reshape(len(m) * d, d) @ ones)
        if not (delta <= ROW_SUM_TOL - guard and m.min() >= 0):
            bad = _first_violation(m, ROW_SUM_TOL)
            if bad:
                raise ValueError(f"factor {blk.start + bad[0]}: {bad[1]}")
        deltas.append(delta)
        gamma = min(gamma, float(np.diagonal(m, axis1=1, axis2=2).min()))
        if rho < np.inf and d > 1:
            # |.| turns -0.0 into a zero that divides to +inf like any other
            pairs = np.abs(m.reshape(len(m), d * d)[:, _pair_cells(d)])
            x, y = pairs[:, :d * (d - 1) // 2], pairs[:, d * (d - 1) // 2:]
            with np.errstate(invalid="ignore", divide="ignore"):
                ratios = np.fmax(x / y, y / x)  # NaN only at a 0/0 pair
            top = np.fmax.reduce(ratios, axis=None)
            if top > rho:
                rho = float(top)
        if doubly and _deviation(np.einsum("kij->kj", m)) > ROW_SUM_TOL - guard:
            doubly = float(np.abs(m.sum(axis=1) - 1.0).max()) <= ROW_SUM_TOL
    return AssumptionCheck(gamma=float(gamma), rho=rho, doubly_stochastic=doubly), deltas


def assumption_check(ms) -> AssumptionCheck:
    """Validate every factor and summarize the sequence-wide assumptions.

    ``ms`` is any iterable of square matrices or an ``(n, d, d)`` array.
    A factor with a negative entry or a row sum off 1 by more than
    :data:`ROW_SUM_TOL` raises ``ValueError`` naming its index (from 0).
    An empty sequence gives ``gamma = inf``, ``rho = 1`` and
    ``doubly_stochastic = True``.
    """
    return _check_factors(_stack(ms))[0]


@dataclass
class ProductTrace:
    """Record of one backward-product run ``P_n = M_n ... M_1``.

    ``factors`` is the ``(n, d, d)`` factor stack (the caller's own array
    when that was already a float64 stack: it is kept by reference, not
    copied); ``partial_products`` is the ``(n, d, d)`` stack whose entry
    ``[n]`` is ``P_{n+1}``; ``variations[n]`` is ``||P_{n+2} - P_{n+1}||_1``
    (entrywise); ``dispersion_history`` has one column per tracked vector
    with ``D(P_n v)`` down the rows (shape ``(n, 0)`` when none is tracked).
    ``offdiag_partial_sums[n]``, the running factor sum
    ``sum_{m <= n+1} M_m``, is computed from ``factors`` each time it is read.
    """

    partial_products: np.ndarray
    variations: np.ndarray
    variation_sum: float
    dispersion_history: np.ndarray
    factors: np.ndarray
    assumptions: AssumptionCheck
    tracked_vectors: list[np.ndarray]

    @property
    def final(self) -> np.ndarray:
        return self.partial_products[-1]

    @property
    def offdiag_partial_sums(self) -> np.ndarray:
        return np.cumsum(self.factors, axis=0)


#: Largest factor dimension, and fewest factors, whose backward products
#: are formed in blocks.  The blocked order does two ``d x d`` products per
#: factor where the chain does one, and about ``2 sqrt(n)`` ``matmul``
#: calls of ~2.5 us each where the chain does ``n`` ``dot`` calls of
#: ~0.8 us.  Forming 10 000 partials on a 2-core Xeon VM (OpenBLAS 0.3.31,
#: one thread), best of 15, it was 3.5x faster than the chain at d = 3,
#: 2.2x at d = 8 and 1.3-1.7x at d = 16; from d = 17 to 20 runs read
#: 0.94-1.3x, and 0.87x at d = 24.  Against the number of factors it broke
#: even near 100 for d <= 8 (0.83x at 60, 1.3x at 200) and near 200 for
#: d = 16.
_BLOCKED_MAX_DIM = 16
_BLOCKED_MIN_FACTORS = 256


def _block_length(n: int, d: int) -> int:
    """Factors per block when :func:`product_run` multiplies ``n`` ``d x d`` factors.

    ``ceil(sqrt(n))`` from :data:`_BLOCKED_MIN_FACTORS` factors and up to
    dimension :data:`_BLOCKED_MAX_DIM`; otherwise 1, which is the
    one-factor-at-a-time chain.
    """
    if n < _BLOCKED_MIN_FACTORS or d > _BLOCKED_MAX_DIM:
        return 1
    return math.isqrt(n - 1) + 1


def _backward_partials(stack: np.ndarray) -> np.ndarray:
    """The partial products ``P_t = M_t ... M_0`` of a factor stack, in blocks.

    With ``s = _block_length(n, d)``, block ``b`` holds factors
    ``b0 = b s`` to ``b0 + s - 1``.  The local prefixes ``M_t ... M_b0`` of
    all blocks are formed first, ``s - 1`` batched ``matmul`` calls over the
    block axis; then, block by block, ``P_t = (M_t ... M_b0) P_{b0-1}``, the
    block's first factor by its bound ``dot`` and the rest by one ``matmul``
    in place.  That is about ``3 sqrt(n)`` numpy calls in place of
    ``n - 1``; with ``s = 1`` it is the plain chain ``P_t = M_t P_{t-1}``,
    bit for bit.  A batched ``matmul`` runs one BLAS ``gemm`` per matrix,
    as ``dot`` does, so the result equals per-factor ``dot`` calls in the
    same order.
    """
    n, d, _ = stack.shape
    s = _block_length(n, d)
    partials = np.empty((n, d, d))
    partials[0] = stack[0]
    for t in range(1, s):
        out = partials[t::s]
        prefix = stack[0::s] if t == 1 else partials[t - 1::s]
        np.matmul(stack[t::s], prefix[:len(out)], out=out)
    prev = partials[s - 1]
    b0 = s
    # bound `dot` over views calls BLAS without numpy's dispatch per factor
    for m, out in zip(list(stack[s::s]), list(partials[s::s])):
        m.dot(prev, out)
        if s > 1:  # the block's other local prefixes, overwritten in place
            local = partials[b0 + 1:b0 + s]
            # `matmul` buffers an input that overlaps `out` itself
            np.matmul(local, prev, out=local)
            out = partials[b0 + len(local)]
            b0 += s
        prev = out
    return partials


def product_run(ms, tracked_vectors=()) -> ProductTrace:
    """Multiply out a stochastic sequence, recording everything testable.

    ``ms[0]`` is the first factor applied; each new factor multiplies from
    the left.  ``ms`` is any iterable of square matrices or an ``(n, d, d)``
    array; a float64 array is used without a copy.  Row-sum drift of a
    partial product ``P_t`` beyond what its factors and rounding explain
    raises — it would mean the products silently stopped being stochastic,
    which no downstream bound survives.  The allowance is
    ``DRIFT_TOL + (prod_{s <= t} (1 + delta_s) - 1) + t d u``, where
    ``delta_s`` is the largest row-sum deviation in factor ``s``'s block of
    :func:`_blocks` (each accepted factor may be off by up to
    :data:`ROW_SUM_TOL`).  Each block of partials is screened with one
    ``gemv`` against the allowance of its first partial; only a block that
    fails the screen is scanned partial by partial.

    The partial products are associated in blocks of ``ceil(sqrt(n))``
    factors, ``P_t = (M_t ... M_b0) P_{b0-1}`` (see
    :func:`_backward_partials`), for ``d`` up to :data:`_BLOCKED_MAX_DIM`
    and ``n`` from :data:`_BLOCKED_MIN_FACTORS`; otherwise they are formed
    one factor at a time.  Only the rounding
    differs between the two orders: each product of stochastic matrices
    adds at most about ``d u`` (``u = 2**-53``) in the max-row-sum norm,
    and stochastic factors do not amplify earlier errors, so either order
    is within ``t d u`` of the exact ``P_t``.  Seen in practice: 1.2e-14
    apart after 200 000 ratio-bounded 3x3 factors, 1.9e-14 after 10 000
    Birkhoff 8x8 ones.
    """
    stack = _stack(ms)
    if not len(stack):
        raise ValueError("empty matrix sequence")
    assumptions, deltas = _check_factors(stack)
    n, d, _ = stack.shape
    tracked = [np.asarray(v, dtype=float).ravel() for v in tracked_vectors]
    for v in tracked:
        if v.size != d:
            raise ValueError(f"tracked vector of size {v.size}, expected {d}")

    partials = _backward_partials(stack)
    variations = np.empty(n - 1)
    disp = np.empty((n, len(tracked)))
    guard, ones = _GUARD * d * _U, np.ones(d)
    growth = 0.0  # log of prod (1 + delta_s) over the factors of earlier blocks
    for blk, delta in zip(_blocks(n, d * d), deltas):
        prods = partials[blk]
        t = np.arange(blk.start + 1, blk.stop + 1)
        g = math.log1p(delta)
        allowed = DRIFT_TOL + np.expm1(growth + (t - blk.start) * g) + t * (d * _U)
        growth += len(t) * g
        if not _deviation(prods.reshape(len(prods) * d, d) @ ones) <= allowed[0] - guard:
            drift = np.abs(prods.sum(axis=2) - 1.0).max(axis=1)
            bad = np.flatnonzero(drift > allowed)
            if bad.size:
                k = int(bad[0])
                raise InternalCheckError(
                    f"partial product {blk.start + k + 1} drifted off stochasticity "
                    f"by {drift[k]:g}"
                )
        lo = max(blk.start, 1)
        steps = partials[lo:blk.stop] - partials[lo - 1:blk.stop - 1]
        variations[lo - 1:blk.stop - 1] = np.abs(steps, out=steps).reshape(-1, d * d).sum(axis=1)
        for j, v in enumerate(tracked):
            # `dispersion` of each `P_n v`, summed the same way: bitwise equal
            w = prods @ v
            gaps = w[:, :, None] - w[:, None, :]
            disp[blk, j] = np.abs(gaps, out=gaps).reshape(-1, d * d).sum(axis=1)
    return ProductTrace(
        partial_products=partials,
        variations=variations,
        variation_sum=float(variations.sum()),
        dispersion_history=disp,
        factors=stack,
        assumptions=assumptions,
        tracked_vectors=tracked,
    )


def is_converged(trace: ProductTrace, tol: float = 1e-6) -> bool:
    """Cauchy tail test: variation accumulated over the last third below ``tol``."""
    _check_tolerance("tol", tol)
    n = len(trace.variations)
    if n == 0:
        return True
    return float(trace.variations[2 * n // 3:].sum()) < tol


@dataclass
class OffdiagPairReport:
    """Partial-sum behaviour of ``M_m(i,j)`` for one pair of distinct limit rows."""

    i: int
    j: int
    sum_ij: float
    sum_ji: float
    tail_ij: float
    tail_ji: float
    bounded_ij: bool
    bounded_ji: bool


def offdiag_convergence_report(trace: ProductTrace, limit=None,
                               row_diff_tol: float = 1e-6,
                               tail_tol: float = 1e-6) -> list[OffdiagPairReport]:
    """Partial sums ``sum_m M_m(i,j)`` for pairs whose limit rows differ.

    When the backward product converges and rows ``i`` and ``j`` of the
    limit differ (L1 gap above ``row_diff_tol``), the factor series in both
    directions between ``i`` and ``j`` must converge; the report carries the
    final partial sums and a bounded/growing flag per direction (Cauchy tail
    over the last third of the sequence).

    Raises
    ------
    ValueError
        If the trace has not converged — the hypothesis is about limits —
        or ``limit`` is not a ``d x d`` matrix for the trace's ``d x d``
        factors, or a tolerance is NaN or negative.
    """
    _check_tolerance("row_diff_tol", row_diff_tol)
    _check_tolerance("tail_tol", tail_tol)
    if not is_converged(trace):
        raise ValueError("product trace has not converged; report is undefined")
    if limit is None:
        limit = trace.final
    limit = np.asarray(limit, dtype=float)
    if limit.shape != trace.final.shape:
        raise ValueError(f"limit of shape {limit.shape} for products of shape "
                         f"{trace.final.shape}")
    # offdiag_partial_sums[cut] and [-1], without the whole cumsum stack
    cut = 2 * len(trace.factors) // 3
    head = trace.factors[:cut + 1].sum(axis=0)
    total = trace.factors.sum(axis=0)
    out = []
    d = limit.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            if float(np.abs(limit[i] - limit[j]).sum()) <= row_diff_tol:
                continue
            tail_ij = float(total[i, j] - head[i, j])
            tail_ji = float(total[j, i] - head[j, i])
            out.append(
                OffdiagPairReport(
                    i=i, j=j,
                    sum_ij=float(total[i, j]),
                    sum_ji=float(total[j, i]),
                    tail_ij=tail_ij,
                    tail_ji=tail_ji,
                    bounded_ij=tail_ij < tail_tol,
                    bounded_ji=tail_ji < tail_tol,
                )
            )
    return out


# ---------------------------------------------------------------------------
# generator families


def mr_matrix(r: float) -> np.ndarray:
    """The symmetric 2x2 family ``(1/2) [[1+r, 1-r], [1-r, 1+r]]``.

    Closed under multiplication with parameters multiplying:
    ``mr_matrix(r2) @ mr_matrix(r1) == mr_matrix(r2 * r1)``.
    """
    if not 0 <= r <= 1:
        raise ValueError(f"r must lie in [0, 1], got {r!r}")
    return 0.5 * np.array([[1 + r, 1 - r], [1 - r, 1 + r]])


def mr_sequence(count: int, r_values=None) -> list[np.ndarray]:
    """``count`` factors of the ``mr`` family.

    Default parameters ``r_n = exp(-2^-n)`` (n = 1..count), whose running
    products converge to ``exp(-1)``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if r_values is None:
        r_values = [float(np.exp(-(2.0 ** -n))) for n in range(1, count + 1)]
    else:
        r_values = [float(r) for r in r_values]
        if len(r_values) != count:
            raise ValueError(f"need {count} r values, got {len(r_values)}")
    return [mr_matrix(r) for r in r_values]


#: The two 3x3 factors whose alternating backward product oscillates forever.
T0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
T1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])


def t0t1_sequence(count: int) -> list[np.ndarray]:
    """Alternating factors ``T1, T0, T1, T0, ...`` (first-applied first).

    Every factor has diagonal at least 1/2, yet the backward products
    diverge: the ratio assumption fails outright (``rho = +inf``).
    """
    return [T1.copy() if n % 2 == 0 else T0.copy() for n in range(count)]


def random_doubly_stochastic(d: int, rng: np.random.Generator,
                             gamma: float = 0.0,
                             n_perms: int | None = None) -> np.ndarray:
    """Average ``n_perms >= d`` random permutation matrices, then mix in ``gamma * I``.

    Birkhoff's theorem makes the average doubly stochastic; the identity
    mixing knob guarantees a diagonal floor of ``gamma``.
    """
    return _random_doubly_stochastic_stack(1, d, rng, gamma, n_perms)[0]


def _random_doubly_stochastic_stack(count: int, d: int, rng: np.random.Generator,
                                    gamma: float = 0.0,
                                    n_perms: int | None = None) -> np.ndarray:
    """``count`` factors of :func:`random_doubly_stochastic` as one ``(count, d, d)`` stack.

    Equal, bitwise, to ``count`` calls of it on the same generator: row by
    row, ``rng.permuted`` draws the same stream as one ``rng.permutation``
    call per permutation, and the cell counts are exact.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    if n_perms is None:
        n_perms = d
    if n_perms < d:
        raise ValueError(f"need at least d={d} permutations, got {n_perms}")
    out = np.empty((count, d, d))
    eye = np.eye(d)
    cells = np.arange(d) * d
    for blk in _blocks(count, n_perms * d):
        k = blk.stop - blk.start
        perms = rng.permuted(np.broadcast_to(np.arange(d), (k * n_perms, d)), axis=1)
        flat = (np.arange(k)[:, None, None] * (d * d) + cells
                + perms.reshape(k, n_perms, d)).ravel()
        avg = np.bincount(flat, minlength=k * d * d).reshape(k, d, d) / n_perms
        out[blk] = gamma * eye + (1 - gamma) * avg
    return out


def random_ratio_bounded_stochastic(d: int, rng: np.random.Generator,
                                    gamma: float = 0.2, rho: float = 5.0) -> np.ndarray:
    """Random stochastic matrix with diagonal >= ``gamma`` and ratio bound ``rho``.

    Row-normalizing a symmetric positive matrix with entries in
    ``[1/rho, 1]`` keeps every ratio ``M(i,j)/M(j,i)`` equal to a row-sum
    quotient, hence within ``rho``; identity mixing then installs the
    diagonal floor without touching off-diagonal ratios.
    """
    return _random_ratio_bounded_stack(1, d, rng, gamma, rho)[0]


def _random_ratio_bounded_stack(count, d, rng, gamma, rho) -> np.ndarray:
    """``count`` factors of :func:`random_ratio_bounded_stochastic`, bitwise, as one stack."""
    if not rho >= 1:  # NaN fails too
        raise ValueError(f"rho must be >= 1, got {rho!r}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    w = rng.uniform(1.0 / rho, 1.0, size=(count, d, d))
    w = (w + np.swapaxes(w, 1, 2)) / 2
    m = w / w.sum(axis=2, keepdims=True)
    return gamma * np.eye(d) + (1 - gamma) * m

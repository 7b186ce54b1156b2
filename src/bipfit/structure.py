"""Structural analysis: feasibility, causes, block partitions, limit points.

Everything the iteration's fate depends on is combinatorial and decidable
up front from the seed's support pattern and the marginals:

* ``feasible`` solves the transportation feasibility problem by max-flow and
  returns either a witness matrix or a certificate ``(A, B)`` — a zero block
  of the seed whose row set demands more mass than the complementary columns
  can supply.
* ``maximal_support`` finds which support cells can carry mass at all under
  the marginal constraints; cells forced to zero by a tight (critical) block
  are exactly what separates slow from fast convergence.
* ``classify`` combines the two into the three-way verdict.
* ``best_cause`` / ``block_structure`` peel ratio-maximizing causes off an
  infeasible instance until the remainder is feasible, yielding the row and
  column blocks, their scaling factors, and the adjusted marginals that the
  oscillating iteration actually honours in the limit.
* ``limit_points`` turns that into the two exact limit matrices.

Index convention: all row/column sets are 0-based throughout the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import FittingProblem, as_marginals, support_of
from .engine import StoppingRule, StopReason, run
from .errors import InternalCheckError

#: Flow deficits at or below this are treated as "the instance is feasible".
FEAS_TOL = 1e-11

#: |a(A) - b(B^c)| <= CRIT_TOL * max(1, a(A)) declares a block critical.
CRIT_TOL = 1e-12

#: A feasibility witness must reproduce the marginals this tightly.
WITNESS_TOL = 1e-10

#: Subset enumeration refuses instances with more rows than this.
BEST_CAUSE_MAX_ROWS = 25

#: Up to this many rows, maximal_support cross-checks the per-cell probe
#: against the exhaustive critical-block enumeration at runtime.
PROBE_CROSSCHECK_MAX_ROWS = 12

#: Gap threshold for clustering limiting row ratios into blocks.
CLUSTER_GAP = 1e-4

_EPS_FLOW = 1e-15


class CauseKind(Enum):
    INCOMPATIBILITY = "Incompatibility"
    CRITICALITY = "Criticality"


class Behavior(Enum):
    FAST_CONVERGENCE = "FastConvergence"
    SLOW_CONVERGENCE = "SlowConvergence"
    DIVERGENCE = "Divergence"


@dataclass(frozen=True)
class Cause:
    """A zero block ``A x B`` of the seed with its mass ratio ``a(A)/b(B^c)``.

    ``ratio > 1`` is a certificate of infeasibility (the rows of ``A`` need
    more mass than the columns outside ``B`` can accept); ``ratio = 1`` is a
    critical block, which forces zeros on ``A^c x B^c`` in every solution.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    kind: CauseKind
    ratio: float


@dataclass
class Feasibility:
    """Outcome of the transportation feasibility check.

    Exactly one of ``witness`` (a matrix with the target marginals, supported
    inside the allowed pattern) and ``cause`` is set.
    """

    witness: np.ndarray | None
    cause: Cause | None
    max_flow: float
    deficit: float

    @property
    def is_feasible(self) -> bool:
        return self.witness is not None


@dataclass
class Classification:
    behavior: Behavior
    witness: np.ndarray | None
    max_support: np.ndarray | None
    cause: Cause | None


@dataclass
class BlockStructure:
    """Row/column blocks with their scaling factors and adjusted marginals.

    Blocks are listed in the order the peeling recursion finds them, which
    is also ascending order of ``lambdas``.  ``a_prime`` scales the rows of
    block ``k`` by ``lambdas[k]``; ``b_prime`` divides the columns by it.
    A feasible instance has one block and ``lambdas = (1,)``.
    """

    r: int
    row_blocks: tuple[tuple[int, ...], ...]
    col_blocks: tuple[tuple[int, ...], ...]
    lambdas: np.ndarray
    a_prime: np.ndarray
    b_prime: np.ndarray


@dataclass
class LimitPair:
    """The two oscillation limits and their common support pattern."""

    even_limit: np.ndarray
    odd_limit: np.ndarray
    sigma: np.ndarray


# ---------------------------------------------------------------------------
# max flow


def _check_support(supp, p: int | None = None, q: int | None = None) -> np.ndarray:
    supp = np.asarray(supp, dtype=bool)
    if supp.ndim != 2:
        raise ValueError("support pattern must be a 2-D boolean mask")
    if p is not None and supp.shape != (p, q):
        raise ValueError(
            f"support shape {supp.shape} does not match marginals ({p}, {q})"
        )
    if not supp.any(axis=1).all():
        raise ValueError(
            f"support row {int(np.argmin(supp.any(axis=1)))} is empty; every "
            "row needs an allowed cell"
        )
    if not supp.any(axis=0).all():
        raise ValueError(
            f"support column {int(np.argmin(supp.any(axis=0)))} is empty; "
            "every column needs an allowed cell"
        )
    return supp


def _max_flow(a, b, supp):
    """Max flow on source -> rows -> cols -> sink with supports as free edges.

    Source edges carry ``a``, sink edges ``b``, support edges are unbounded.
    Shortest augmenting paths (BFS); each augmentation saturates a source or
    sink edge exactly, so float capacities terminate cleanly.

    Returns ``(f, flow_value, reach_rows, reach_cols)`` where ``f`` is the
    flow on support cells and the reach masks describe residual reachability
    from the source on termination (i.e. the min cut).
    """
    p, q = supp.shape
    f = np.zeros((p, q))
    fa = np.zeros(p)
    fb = np.zeros(q)
    while True:
        row_par = np.full(p, -2, dtype=int)  # -2 unvisited, -1 source, else col
        col_par = np.full(q, -2, dtype=int)
        start_rows = np.nonzero(a - fa > _EPS_FLOW)[0]
        row_par[start_rows] = -1
        queue = deque(start_rows)
        is_row_phase = deque([True] * len(start_rows))
        goal = -1
        while queue and goal < 0:
            u = queue.popleft()
            if is_row_phase.popleft():
                new_cols = np.nonzero(supp[u] & (col_par == -2))[0]
                col_par[new_cols] = u
                open_cols = new_cols[b[new_cols] - fb[new_cols] > _EPS_FLOW]
                if open_cols.size:
                    goal = int(open_cols[0])
                    break
                queue.extend(new_cols)
                is_row_phase.extend([False] * len(new_cols))
            else:
                new_rows = np.nonzero((f[:, u] > _EPS_FLOW) & (row_par == -2))[0]
                row_par[new_rows] = u
                queue.extend(new_rows)
                is_row_phase.extend([True] * len(new_rows))
        if goal < 0:
            return f, float(fa.sum()), row_par != -2, col_par != -2
        # backtrack: forward middle edges are unbounded, backward ones carry f
        path_fwd = []
        path_bwd = []
        j = goal
        delta = b[j] - fb[j]
        while True:
            i = col_par[j]
            path_fwd.append((i, j))
            if row_par[i] == -1:
                delta = min(delta, a[i] - fa[i])
                source_row = i
                break
            j2 = row_par[i]
            delta = min(delta, f[i, j2])
            path_bwd.append((i, j2))
            j = j2
        fb[goal] += delta
        fa[source_row] += delta
        for i, j in path_fwd:
            f[i, j] += delta
        for i, j in path_bwd:
            f[i, j] -= delta


def _cause_from_cut(a, b, reach_rows, reach_cols) -> Cause:
    rows = np.nonzero(reach_rows)[0]
    cols_b = np.nonzero(~reach_cols)[0]
    b_comp = float(b[reach_cols].sum())
    a_rows = float(a[rows].sum())
    return Cause(
        rows=tuple(int(i) for i in rows),
        cols=tuple(int(j) for j in cols_b),
        kind=CauseKind.INCOMPATIBILITY,
        ratio=a_rows / b_comp if b_comp > 0 else float("inf"),
    )


def _verify_cause(a, b, supp, cause: Cause) -> None:
    """Re-check a cause certificate from scratch; raise if it does not hold."""
    rows = np.asarray(cause.rows, dtype=int)
    cols = np.asarray(cause.cols, dtype=int)
    if rows.size == 0 or cols.size == 0:
        raise InternalCheckError("cause has an empty row or column set")
    if supp[np.ix_(rows, cols)].any():
        raise InternalCheckError("cause block is not a zero block of the seed")
    a_rows = float(a[rows].sum())
    comp = np.setdiff1d(np.arange(b.size), cols)
    b_comp = float(b[comp].sum())
    gap = a_rows - b_comp
    if cause.kind is CauseKind.INCOMPATIBILITY:
        if gap <= CRIT_TOL * max(1.0, a_rows):
            raise InternalCheckError(
                f"incompatibility cause fails to verify: a(A)={a_rows!r} vs "
                f"b(B^c)={b_comp!r}; instance is numerically ill-conditioned"
            )
    else:
        if abs(gap) > CRIT_TOL * max(1.0, a_rows):
            raise InternalCheckError(
                f"criticality cause fails to verify: |a(A)-b(B^c)|={abs(gap)!r}"
            )


def feasible(a, b, supp, feas_tol: float = FEAS_TOL) -> Feasibility:
    """Decide whether any matrix with marginals ``(a, b)`` fits inside ``supp``.

    Returns a :class:`Feasibility` carrying either a witness matrix (row and
    column sums within ``WITNESS_TOL`` of the targets, support inside
    ``supp``) or an incompatibility :class:`Cause` extracted from the min
    cut and re-verified from scratch.

    Raises
    ------
    ValueError
        On malformed inputs (empty support rows/columns, bad marginals).
    InternalCheckError
        If the verdict cannot be certified at float precision.
    """
    a = as_marginals(a, min_size=1)
    b = as_marginals(b, min_size=1)
    supp = _check_support(supp, a.size, b.size)
    f, flow, reach_rows, reach_cols = _max_flow(a, b, supp)
    deficit = 1.0 - flow
    if deficit <= feas_tol:
        f = np.where(supp, f, 0.0)
        if (
            np.abs(f.sum(axis=1) - a).max() > WITNESS_TOL
            or np.abs(f.sum(axis=0) - b).max() > WITNESS_TOL
            or f.min() < -1e-15
        ):
            raise InternalCheckError(
                "max-flow witness fails marginal verification; instance is "
                "numerically ill-conditioned"
            )
        return Feasibility(witness=np.maximum(f, 0.0), cause=None,
                           max_flow=flow, deficit=deficit)
    cause = _cause_from_cut(a, b, reach_rows, reach_cols)
    _verify_cause(a, b, supp, cause)
    return Feasibility(witness=None, cause=cause, max_flow=flow, deficit=deficit)


# ---------------------------------------------------------------------------
# cause enumeration


def _column_row_masks(supp) -> np.ndarray:
    """Per-column bitmask (over rows) of the support."""
    p, q = supp.shape
    weights = (1 << np.arange(p, dtype=np.int64))
    return (supp * weights[:, None]).sum(axis=0).astype(np.int64)


def _enumerate_zero_blocks(a, b, supp, chunk: int = 1 << 16):
    """Yield ``(mask, a_sum, b_comp_sum)`` for every row subset with a zero block.

    ``mask`` is the bit mask of the row subset ``A``; the paired column set
    is always the maximal one ``B(A) = {j : supp[i,j] = 0 for all i in A}``
    (nonempty, or the subset is skipped).
    """
    p, q = supp.shape
    col_masks = _column_row_masks(supp)
    weights = 1 << np.arange(p, dtype=np.int64)
    total_b = float(b.sum())
    for lo in range(1, 1 << p, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << p), dtype=np.int64)
        bits = (masks[:, None] & weights[None, :]) != 0
        a_sums = bits @ a
        in_block = (masks[:, None] & col_masks[None, :]) == 0
        has_block = in_block.any(axis=1)
        if not has_block.any():
            continue
        b_comp = total_b - in_block @ b
        for m, asum, bc in zip(masks[has_block], a_sums[has_block],
                               b_comp[has_block]):
            yield int(m), float(asum), float(bc)


def _mask_to_rows(mask: int, p: int) -> tuple[int, ...]:
    return tuple(i for i in range(p) if mask >> i & 1)


def _block_cols(supp, rows) -> tuple[int, ...]:
    mask = ~supp[list(rows)].any(axis=0)
    return tuple(int(j) for j in np.nonzero(mask)[0])


def best_cause(a, b, supp, max_rows: int = BEST_CAUSE_MAX_ROWS,
               ratio_rel_tol: float = 1e-9) -> Cause:
    """The ratio-maximizing cause of incompatibility, by subset enumeration.

    Among all zero blocks ``A x B(A)`` the one maximizing ``a(A)/b(B^c)`` is
    returned; when several subsets tie (within ``ratio_rel_tol`` relative),
    their union is taken — the union of ratio maximizers must itself be a
    maximizer, and that fact is asserted at runtime rather than trusted.

    Raises
    ------
    ValueError
        If the instance has no cause with ratio > 1 (it is feasible), or has
        more than ``max_rows`` rows (enumeration refused).
    InternalCheckError
        If the union of tied maximizers fails to be a maximizer itself.
    """
    a = as_marginals(a, min_size=1)
    b = as_marginals(b, min_size=1)
    supp = _check_support(supp, a.size, b.size)
    p = a.size
    if p > max_rows:
        raise ValueError(
            f"best_cause enumerates 2^rows subsets; {p} rows exceeds the "
            f"hard cap of {max_rows}"
        )
    best_ratio = 0.0
    ties: list[tuple[int, float]] = []
    for mask, asum, bcomp in _enumerate_zero_blocks(a, b, supp):
        ratio = asum / bcomp if bcomp > 0 else float("inf")
        if ratio > best_ratio:
            best_ratio = ratio
            ties = [(m, r) for m, r in ties if r >= best_ratio * (1 - ratio_rel_tol)]
        if ratio >= best_ratio * (1 - ratio_rel_tol):
            ties.append((mask, ratio))
    if best_ratio <= 1.0 + CRIT_TOL:
        raise ValueError(
            "instance has no cause of incompatibility (it is feasible or "
            "merely critical); best ratio found was "
            f"{best_ratio!r}"
        )
    union_mask = 0
    for m, _ in ties:
        union_mask |= m
    rows = _mask_to_rows(union_mask, p)
    cols = _block_cols(supp, rows)
    if not cols:
        raise InternalCheckError(
            "union of ratio-maximizing row sets has no common zero block"
        )
    comp = np.setdiff1d(np.arange(b.size), cols)
    ratio = float(a[list(rows)].sum() / b[comp].sum())
    if ratio < best_ratio * (1 - ratio_rel_tol):
        raise InternalCheckError(
            "union of ratio-maximizing causes is not itself ratio-maximizing "
            f"({ratio!r} < {best_ratio!r}); ill-conditioned tie structure"
        )
    return Cause(rows=rows, cols=cols, kind=CauseKind.INCOMPATIBILITY,
                 ratio=max(ratio, best_ratio))


def critical_causes(a, b, supp, max_rows: int = BEST_CAUSE_MAX_ROWS) -> list[Cause]:
    """All critical zero blocks ``A x B(A)`` (``a(A) = b(B^c)`` within tolerance).

    Only meaningful on feasible instances; used to cross-check the maximal
    support and to report which incompatibility causes turn critical under
    the adjusted marginals.
    """
    a = as_marginals(a, min_size=1)
    b = as_marginals(b, min_size=1)
    supp = _check_support(supp, a.size, b.size)
    p = a.size
    if p > max_rows:
        raise ValueError(f"{p} rows exceeds the enumeration cap of {max_rows}")
    out = []
    for mask, asum, bcomp in _enumerate_zero_blocks(a, b, supp):
        if abs(asum - bcomp) <= CRIT_TOL * max(1.0, asum):
            rows = _mask_to_rows(mask, p)
            out.append(
                Cause(rows=rows, cols=_block_cols(supp, rows),
                      kind=CauseKind.CRITICALITY, ratio=asum / bcomp)
            )
    return out


# ---------------------------------------------------------------------------
# maximal support


def _support_by_enumeration(a, b, supp) -> np.ndarray:
    """Maximal support via the union-of-critical-blocks formula (oracle path)."""
    s0 = supp.copy()
    p, q = supp.shape
    for cause in critical_causes(a, b, supp):
        rows_c = np.setdiff1d(np.arange(p), cause.rows)
        cols_c = np.setdiff1d(np.arange(q), cause.cols)
        s0[np.ix_(rows_c, cols_c)] = False
    return s0


def maximal_support(a, b, supp, feas_tol: float = FEAS_TOL) -> np.ndarray:
    """Cells that can carry positive mass in some matrix of ``Gamma(a, b, supp)``.

    Works off one max-flow witness: a supported cell either already carries
    flow, or it can only ever carry mass if a positive augmenting cycle
    through it exists — equivalently, if the residual graph of the witness
    (forward along every supported cell, backward along every flow-carrying
    cell) contains a path from the cell's column back to its row.  On small
    instances (up to :data:`PROBE_CROSSCHECK_MAX_ROWS` rows) the result is
    cross-checked against the exhaustive critical-block enumeration;
    disagreement means an ill-conditioned instance and raises.

    Raises
    ------
    ValueError
        If called on an infeasible instance.
    """
    a = as_marginals(a, min_size=1)
    b = as_marginals(b, min_size=1)
    supp = _check_support(supp, a.size, b.size)
    base = feasible(a, b, supp, feas_tol=feas_tol)
    if not base.is_feasible:
        raise ValueError(
            "maximal_support called on an infeasible instance; its cause: "
            f"{base.cause}"
        )
    p, q = supp.shape
    carrying = base.witness > _EPS_FLOW * max(1.0, float(base.witness.max()))
    # Per column: rows reachable by alternating backward (flow-carrying)
    # and forward (supported) arcs, computed as a joint fixed point over
    # all column starting points at once.
    reach_rows = carrying.T.copy()  # reach_rows[j, i]: row i reachable from col j
    reach_cols = np.eye(q, dtype=bool)
    while True:
        new_cols = reach_cols | (reach_rows @ supp)
        new_rows = reach_rows | (new_cols @ carrying.T)
        if new_rows.sum() == reach_rows.sum() and new_cols.sum() == reach_cols.sum():
            break
        reach_rows, reach_cols = new_rows, new_cols
    s0 = supp & (carrying | reach_rows.T)
    if not (s0.any(axis=1).all() and s0.any(axis=0).all()):
        raise InternalCheckError("maximal support lost a whole row or column")
    if p <= PROBE_CROSSCHECK_MAX_ROWS:
        s0_enum = _support_by_enumeration(a, b, supp)
        if not np.array_equal(s0, s0_enum):
            raise InternalCheckError(
                "probe and critical-block enumeration disagree on the "
                "maximal support; instance is numerically ill-conditioned"
            )
    return s0


# ---------------------------------------------------------------------------
# classification


def classify(problem: FittingProblem) -> Classification:
    """Three-way verdict on the iteration's fate, with verified certificates.

    Feasible with full maximal support -> geometric convergence; feasible
    with a strictly smaller maximal support -> slow convergence (some seed
    cells must die, and they die polynomially); infeasible -> divergence
    into two oscillating limits.
    """
    a, b, supp = problem.a, problem.b, problem.support
    feas = feasible(a, b, supp)
    if not feas.is_feasible:
        cause = feas.cause
        if a.size <= BEST_CAUSE_MAX_ROWS:
            cause = best_cause(a, b, supp)
        _verify_cause(a, b, supp, cause)
        return Classification(
            behavior=Behavior.DIVERGENCE, witness=None,
            max_support=None, cause=cause,
        )
    s0 = maximal_support(a, b, supp)
    if np.array_equal(s0, supp):
        behavior = Behavior.FAST_CONVERGENCE
    else:
        behavior = Behavior.SLOW_CONVERGENCE
    return Classification(
        behavior=behavior, witness=feas.witness, max_support=s0, cause=None,
    )


# ---------------------------------------------------------------------------
# block structure and limit points


def block_structure(problem: FittingProblem) -> BlockStructure:
    """Peel ratio-maximizing causes until feasible; return the block partition.

    Each step removes the maximizing rows ``I_k`` together with the columns
    ``J_k`` they are allowed to reach; the scaling factors
    ``lambda_k = b(J_k)/a(I_k)`` come out strictly increasing (asserted),
    and the adjusted marginals ``a'`` / ``b'`` scale each block to mutual
    consistency.
    """
    a, b, supp = problem.a, problem.b, problem.support
    p, q = supp.shape
    rows_left = np.arange(p)
    cols_left = np.arange(q)
    row_blocks: list[tuple[int, ...]] = []
    col_blocks: list[tuple[int, ...]] = []
    while True:
        sub = supp[np.ix_(rows_left, cols_left)]
        try:
            sub = _check_support(sub)
        except ValueError as exc:
            raise InternalCheckError(
                f"peeling produced an empty support line: {exc}"
            ) from exc
        a_sub = a[rows_left] / a[rows_left].sum()
        b_sub = b[cols_left] / b[cols_left].sum()
        feas = feasible(a_sub, b_sub, sub)
        if feas.is_feasible:
            row_blocks.append(tuple(int(i) for i in rows_left))
            col_blocks.append(tuple(int(j) for j in cols_left))
            break
        cause = best_cause(a_sub, b_sub, sub)
        block_rows = rows_left[list(cause.rows)]
        kept_cols = np.setdiff1d(np.arange(cols_left.size), cause.cols)
        block_cols = cols_left[kept_cols]
        row_blocks.append(tuple(int(i) for i in block_rows))
        col_blocks.append(tuple(int(j) for j in block_cols))
        rows_left = np.setdiff1d(rows_left, block_rows)
        cols_left = cols_left[list(cause.cols)]

    r = len(row_blocks)
    lambdas = np.array(
        [b[list(J)].sum() / a[list(I)].sum() for I, J in zip(row_blocks, col_blocks)]
    )
    if np.any(np.diff(lambdas) <= 1e-10 * lambdas[:-1]):
        raise InternalCheckError(
            f"block scaling factors are not strictly increasing: {lambdas!r}"
        )
    for k in range(r):
        for k2 in range(k + 1, r):
            if supp[np.ix_(row_blocks[k], col_blocks[k2])].any():
                raise InternalCheckError(
                    f"seed has support in forbidden block I_{k} x J_{k2}"
                )
    a_prime = np.empty(p)
    b_prime = np.empty(q)
    for lam, I, J in zip(lambdas, row_blocks, col_blocks):
        a_prime[list(I)] = lam * a[list(I)]
        b_prime[list(J)] = b[list(J)] / lam
    return BlockStructure(
        r=r,
        row_blocks=tuple(row_blocks),
        col_blocks=tuple(col_blocks),
        lambdas=lambdas,
        a_prime=a_prime,
        b_prime=b_prime,
    )


def limit_points(problem: FittingProblem, rule: StoppingRule | None = None) -> LimitPair:
    """Exact limits of the even and odd iterate subsequences.

    The even limit lives in ``Gamma(a', b)`` and is computed by restarting
    the iteration from the seed restricted to the common limit support
    ``sigma`` — feasible with full support, hence geometrically convergent.
    The odd limit is the even one with row ``i`` scaled by ``a_i / a'_i``.
    On a feasible instance both limits coincide with the plain fit.
    """
    bs = block_structure(problem)
    a, b = problem.a, problem.b
    sigma = maximal_support(bs.a_prime, b, problem.support)
    x0_restricted = np.where(sigma, problem.x0, 0.0)
    restarted = FittingProblem(x0_restricted, bs.a_prime, b)
    if rule is None:
        # Keep the even/odd criterion near rounding level so the marginal
        # criterion decides; on a restriction this tight the two iterate
        # parities share one limit and stalls only happen at float precision.
        rule = StoppingRule(tol_marginal=1e-13, tol_even_odd=1e-16,
                            max_iters=50_000)
    trace = run(restarted, rule)
    stalled = (
        trace.stop_reason is StopReason.EVEN_ODD_CONVERGED
        and float(trace.errors[-1]) <= 1e-10
    )
    if trace.stop_reason is not StopReason.CONVERGED and not stalled:
        raise InternalCheckError(
            "restricted restart failed to converge geometrically "
            f"(stop reason {trace.stop_reason.value}, final marginal error "
            f"{float(trace.errors[-1]):g}); this contradicts the "
            "full-support feasibility of the restriction"
        )
    even = trace.iterate(trace.n_iters)
    odd = even * (a / bs.a_prime)[:, None]
    checks = (
        ("even limit row sums vs a'", np.abs(even.sum(axis=1) - bs.a_prime).max()),
        ("even limit col sums vs b", np.abs(even.sum(axis=0) - b).max()),
        ("odd limit row sums vs a", np.abs(odd.sum(axis=1) - a).max()),
        ("odd limit col sums vs b'", np.abs(odd.sum(axis=0) - bs.b_prime).max()),
    )
    for label, dev in checks:
        if dev > 1e-8:
            raise InternalCheckError(f"{label} deviate by {dev:g}")
    if not np.array_equal(support_of(even), sigma):
        raise InternalCheckError("even limit's support is not sigma")
    return LimitPair(even_limit=even, odd_limit=odd, sigma=sigma)


def partition_from_ratios(values, gap: float = CLUSTER_GAP) -> tuple[tuple[int, ...], ...]:
    """Cluster limiting row ratios into blocks separated by more than ``gap``.

    Numerical fallback for recovering the row partition from an engine trace:
    the limiting ratios concentrate at the block scaling factors, so sorting
    and splitting at gaps larger than ``gap`` recovers ``I_1, ..., I_r`` in
    ascending order.
    """
    v = np.asarray(values, dtype=float).ravel()
    order = np.argsort(v, kind="stable")
    blocks: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if v[cur] - v[prev] > gap:
            blocks.append([])
        blocks[-1].append(int(cur))
    return tuple(tuple(sorted(blk)) for blk in blocks)

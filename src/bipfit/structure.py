"""Structural analysis: feasibility, causes, block partitions, limit points.

Everything the iteration's fate depends on is combinatorial and decidable
up front from the seed's support pattern and the marginals:

* ``feasible`` solves the transportation feasibility problem by max-flow and
  returns either a witness matrix or a certificate ``(A, B)`` — a zero block
  of the seed whose row set demands more mass than the complementary columns
  can supply.
* ``maximal_support`` finds which support cells can carry mass at all under
  the marginal constraints, as the strongly connected components of the
  witness's residual graph; cells forced to zero by a tight (critical) block
  are exactly what separates slow from fast convergence.
* ``classify`` combines the two into the three-way verdict.
* ``best_cause`` finds the ratio-maximizing cause by Dinkelbach iterations
  over min cuts; ``block_structure`` peels such causes off an infeasible
  instance until the remainder is feasible, yielding the row and column
  blocks, their scaling factors, and the adjusted marginals that the
  oscillating iteration actually honours in the limit.
* ``limit_points`` turns that into the two exact limit matrices, solving
  the seed's scaling on their support by Newton's method.

Every step but the Newton solve is a polynomial number of max-flows; no
subset of rows is ever enumerated, and no step runs the fitting iteration.

Index convention: all row/column sets are 0-based throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _certify
from ._certify import CRIT_TOL, WITNESS_TOL  # noqa: F401 (read as structure.*)
from .core import FittingProblem, _check_tolerance, as_marginals
from .errors import InternalCheckError

#: Flow deficits at or below this are treated as "the instance is feasible".
FEAS_TOL = 1e-11

#: Gap threshold for clustering limiting row ratios into blocks.
CLUSTER_GAP = 1e-4

#: Newton's limit solve: L1 error to stop at, largest log move, halvings per step, steps.
_NEWTON_TOL, _NEWTON_MOVE, _NEWTON_HALVINGS, _NEWTON_STEPS = 1e-13, 8.0, 60, 500

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
    """The two oscillation limits, their common support pattern, and the
    classification, blocks and restricted problem they were computed from."""

    even_limit: np.ndarray
    odd_limit: np.ndarray
    sigma: np.ndarray
    blocks: BlockStructure
    classification: Classification
    restricted: FittingProblem


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


def _max_flow(a, c, supp):
    """Max flow on source -> rows -> cols -> sink with supports as free edges.

    Source edges carry ``a``, sink edges ``c``, support edges are unbounded.
    A greedy row-by-row allocation comes first.  Each round then grows a
    breadth-first forest from the rows with spare source capacity, one level
    at a time (to columns along support cells, back to rows along cells
    carrying flow), until a level reaches columns with spare sink capacity,
    and augments along the forest to every such column.  Each augmentation
    saturates a source, sink or backward edge exactly, so float capacities
    terminate cleanly.

    The sets are Python ints used as bitsets: each row's support columns,
    the columns with spare sink capacity, the rows with spare source
    capacity, for each column the rows carrying flow there, and for each
    row the columns it carries flow to.  A BFS level is a union, one
    big-int OR per frontier node: the next columns are the frontier rows'
    support columns less the columns seen, the next rows the carrying rows
    of those columns less the rows seen.  A round keeps only its levels.
    Parents are worked out only along its augmenting paths, walking back
    from every goal column before the first augmentation: a column's parent
    is the lowest row of the level before whose support holds it, a row's
    the lowest column of the level before that it carries flow to.  That is
    the tree a node-by-node BFS grows when a node reached from several goes
    to the lowest-numbered one.  Each column's support rows are packed
    only when a round first reaches a goal.

    Capacities and flows are Python floats.  A greedy row's takes are cut
    from a running sum of its columns' capacities, and its total is summed
    in numpy's order (sequentially below 8 terms, by ``np.add.reduce`` from
    8 on), so every augmentation is bitwise that of the dense formulation
    kept as ``reference_max_flow`` in ``tests/oracles.py``.

    Returns ``(f, flow_value, reach_rows, reach_cols)`` where ``f`` is the
    flow on support cells and the reach masks describe residual reachability
    from the source on termination (i.e. the minimal min cut).
    """
    p, q = supp.shape
    row_bits = _bitsets(supp)
    col_bits = None  # each column's support rows, once a round reaches a goal
    ra = a.astype(float).tolist()  # spare source capacity
    rc = c.astype(float).tolist()  # spare sink capacity
    spare = 0  # columns with rc > _EPS_FLOW
    for j, cap in enumerate(rc):
        if cap > _EPS_FLOW:
            spare |= 1 << j
    flows: list[dict[int, float]] = [{} for _ in range(p)]  # row -> {col: f}
    carry = [0] * q  # column -> rows with f > _EPS_FLOW there
    carried = [0] * p  # row -> columns with f > _EPS_FLOW, the mirror of carry
    sources = 0  # rows with ra > _EPS_FLOW
    for i in range(p):
        eligible = row_bits[i] & spare
        r, acc, takes = ra[i], 0.0, []
        flow_i, bit_i, held = flows[i], 1 << i, 0
        bits = eligible
        while bits:
            low = bits & -bits
            bits ^= low
            j = low.bit_length() - 1
            cap = rc[j]
            acc += cap
            take = min(cap, max(r - (acc - cap), 0.0))
            if take == 0.0:  # so is every later take
                break
            takes.append(take)
            flow_i[j] = take
            rc[j] = cap - take
            if rc[j] <= _EPS_FLOW:
                spare ^= low
            if take > _EPS_FLOW:
                carry[j] |= bit_i
                held |= low
        carried[i] = held
        n = eligible.bit_count()
        if n < 8:
            total = 0.0
            for take in takes:
                total += take
        else:
            total = float(np.add.reduce(np.array(takes + [0.0] * (n - len(takes)))))
        ra[i] = max(r - total, 0.0)
        if ra[i] > _EPS_FLOW:
            sources |= bit_i
    while True:
        rows = _bit_list(sources)
        seen_rows, seen_cols, goals = sources, 0, 0
        row_levels, col_levels = [sources], []
        while rows:
            level = 0
            for i in rows:
                level |= row_bits[i]
            level &= ~seen_cols
            seen_cols |= level
            col_levels.append(level)
            goals = level & spare
            if goals or not level:
                break
            found = 0
            for j in _bit_list(level):
                found |= carry[j]
            found &= ~seen_rows
            seen_rows |= found
            row_levels.append(found)
            rows = _bit_list(found)
        if not goals:
            break
        if col_bits is None:
            col_bits = _bitsets(supp.T)
        for goal, source, ahead, back in _augmenting_paths(
                goals, row_levels, col_levels, col_bits, carried):
            delta = rc[goal]
            for i, j in back:
                delta = min(delta, flows[i][j])
            delta = min(delta, ra[source])
            if delta <= _EPS_FLOW:  # a bottleneck shared with an earlier goal
                continue
            rc[goal] -= delta
            if rc[goal] <= _EPS_FLOW:
                spare &= ~(1 << goal)
            ra[source] -= delta
            if ra[source] <= _EPS_FLOW:
                sources &= ~(1 << source)
            for i, j in ahead:
                flows[i][j] = flows[i].get(j, 0.0) + delta
                if flows[i][j] > _EPS_FLOW:
                    carry[j] |= 1 << i
                    carried[i] |= 1 << j
            for i, j in back:
                flows[i][j] -= delta
                if flows[i][j] <= _EPS_FLOW:
                    carry[j] &= ~(1 << i)
                    carried[i] &= ~(1 << j)
    f = np.zeros(p * q)
    f[[i * q + j for i, flow_i in enumerate(flows) for j in flow_i]] = [
        v for flow_i in flows for v in flow_i.values()]
    return (f.reshape(p, q), float((a - np.array(ra)).sum()),
            _bit_mask(seen_rows, p), _bit_mask(seen_cols, q))


def _augmenting_paths(goals, row_levels, col_levels, col_bits, carried):
    """Each goal column's path back to a source row, by ascending goal.

    A path is ``(goal, source, ahead, back)``: the first-level row it
    starts from, the ``(row, col)`` support cells it adds flow to (goal
    first), and the cells carrying flow that it cancels.  A column of
    level ``k`` has as parent the lowest row of row level ``k`` whose
    support holds it; a row of level ``k > 0`` the lowest column of column
    level ``k - 1`` that it carries flow to.
    """
    paths = []
    for goal in _bit_list(goals):
        ahead, back, j = [], [], goal
        for k in range(len(col_levels) - 1, 0, -1):
            held = col_bits[j] & row_levels[k]
            i = (held & -held).bit_length() - 1
            ahead.append((i, j))
            held = carried[i] & col_levels[k - 1]
            j = (held & -held).bit_length() - 1
            back.append((i, j))
        held = col_bits[j] & row_levels[0]
        i = (held & -held).bit_length() - 1
        ahead.append((i, j))
        paths.append((goal, i, ahead, back))
    return paths


_WORD_BITS = 1 << np.arange(64, dtype=np.uint64)


def _bitsets(mask: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean mask as a Python int, bit ``j`` for column ``j``."""
    if mask.shape[1] <= 64:  # a machine word per row, summed from its bits by numpy
        return (mask @ _WORD_BITS[:mask.shape[1]]).tolist()
    packed = np.packbits(np.ascontiguousarray(mask), axis=1, bitorder="little")
    width = packed.shape[1]
    packed = packed.tobytes()
    return [int.from_bytes(packed[k:k + width], "little")
            for k in range(0, len(packed), width)]


#: Below this many set bits, ``_bit_list`` loops in Python; from it on it unpacks in C.
_BIT_LIST_LOOP = 24


def _bit_list(bits: int) -> list[int]:
    """The set bits of ``bits``, lowest first."""
    if bits.bit_count() >= _BIT_LIST_LOOP:
        return _bit_mask(bits, bits.bit_length()).nonzero()[0].tolist()
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _bit_mask(bits: int, n: int) -> np.ndarray:
    """The boolean mask of length ``n`` whose ``True`` entries are the set bits."""
    packed = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


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
        _certify.witness(a, b, supp, f)
        return Feasibility(witness=np.maximum(f, 0.0), cause=None,
                           max_flow=flow, deficit=deficit)
    cause = _cause_from_cut(a, b, reach_rows, reach_cols)
    _certify.cause(a, b, supp, cause.rows, cause.cols, cause.kind.value, cause.ratio)
    return Feasibility(witness=None, cause=cause, max_flow=flow, deficit=deficit)


# ---------------------------------------------------------------------------
# strongest cause


def _best_cause(a, b, supp, lam: float = 1.0) -> Cause | None:
    """Dinkelbach iterations from ratio ``lam`` up to the ratio-maximizing cause.

    At ratio ``lam`` a min cut of the network with sink capacities
    ``lam * b`` has as source side a row set ``A`` maximizing
    ``a(A) - lam * b(N(A))`` (``N(A)``: the columns ``A`` reaches).  While
    that maximum is positive, ``A`` has a larger ratio and becomes the next
    ``lam``.  The cuts are solved on the reversed network (columns feed
    rows): the rows its flow cannot reach are the source side of the
    original's maximal min cut, the union of every maximizer.  These sets
    shrink as ``lam`` grows (at most one iteration per row), and at the
    optimum the set is the union of the tied ratio maximizers.

    ``lam`` must be 1 or the ratio of some zero block; returns ``None``
    when no zero block has a ratio above 1 (the instance is feasible).
    """
    supp_t = np.ascontiguousarray(supp.T)
    for _ in range(a.size + 1):
        g, flow, reach_cols, reach_rows = _max_flow(lam * b, a, supp_t)
        if 1.0 - flow > FEAS_TOL:
            lam = float(a[~reach_rows].sum() / b[~reach_cols].sum())
            continue
        if lam <= 1.0:
            return None
        rows = tuple(int(i) for i in np.flatnonzero(~reach_rows))
        cols = tuple(int(j) for j in np.flatnonzero(~supp[list(rows)].any(axis=0))) if rows else ()
        ratio = float(a[list(rows)].sum() / np.delete(b, cols).sum())
        _certify.cause(a, b, supp, rows, cols, "Incompatibility", ratio)
        _certify.ratio_bound(a, b, supp, g.T, lam, ratio)
        return Cause(rows=rows, cols=cols, kind=CauseKind.INCOMPATIBILITY, ratio=ratio)
    raise InternalCheckError("Dinkelbach iterations on the cause ratio did not settle")


def best_cause(a, b, supp) -> Cause:
    """The ratio-maximizing cause of incompatibility, by parametric min cuts.

    Among all zero blocks ``A x B(A)`` the one maximizing ``a(A)/b(B^c)`` is
    returned; when several row sets tie, their union is taken (the union of
    ratio maximizers is itself a maximizer).  The ratio's optimality is
    re-checked through a flow whose column sums stay within ``ratio * b``.

    Raises
    ------
    ValueError
        If the instance has no cause with ratio > 1 (it is feasible).
    InternalCheckError
        If the verdict cannot be certified at float precision.
    """
    a = as_marginals(a, min_size=1)
    b = as_marginals(b, min_size=1)
    supp = _check_support(supp, a.size, b.size)
    cause = _best_cause(a, b, supp)
    if cause is None:
        raise ValueError(
            "instance has no cause of incompatibility (it is feasible); no "
            "zero block has a ratio above 1"
        )
    return cause


# ---------------------------------------------------------------------------
# maximal support


def _strong_components(forward, backward) -> np.ndarray:
    """Strongly connected component label of every row ``0..p-1`` and column
    ``p..p+q-1`` (iterative Tarjan), with arcs row -> column on the cells of
    ``forward`` and column -> row on the cells of ``backward``.
    """
    p = forward.shape[0]
    degree = np.concatenate([forward.sum(axis=1), backward.sum(axis=0)])
    indptr = np.concatenate([[0], np.cumsum(degree)]).tolist()
    heads = np.concatenate([p + np.nonzero(forward)[1], np.nonzero(backward.T)[1]]).tolist()
    n = len(indptr) - 1
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    nxt = indptr[:-1]
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [root]
        while calls:
            v = calls[-1]
            k = nxt[v]
            if k < indptr[v + 1]:
                nxt[v] = k + 1
                w = heads[k]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append(w)
                elif comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
                continue
            calls.pop()
            if calls and low[v] < low[calls[-1]]:
                low[calls[-1]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return np.array(comp)


def _support_from_witness(supp, witness) -> np.ndarray:
    """Maximal support from one feasible witness, via strong components.

    A supported cell can carry mass in some feasible matrix exactly when it
    lies on a cycle of the witness's residual graph: arcs row -> column on
    every supported cell, column -> row on every cell carrying mass.  Since
    ``(i, j)`` supplies the arc ``i -> j``, that means row ``i`` and column
    ``j`` share a strongly connected component.
    """
    p = supp.shape[0]
    carrying = witness > _EPS_FLOW * max(1.0, float(witness.max()))
    comp = _strong_components(supp, carrying)
    s0 = supp & (comp[:p, None] == comp[None, p:])
    _certify.support_mask(s0, supp, "maximal support")
    return s0


def maximal_support(a, b, supp, feas_tol: float = FEAS_TOL) -> np.ndarray:
    """Cells that can carry positive mass in some matrix of ``Gamma(a, b, supp)``.

    Works off one max-flow witness: a supported cell either already carries
    flow, or it can only ever carry mass if a positive augmenting cycle
    through it exists in the witness's residual graph, i.e. if its row and
    column share a strongly connected component there.

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
    return _support_from_witness(supp, base.witness)


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
        return Classification(
            behavior=Behavior.DIVERGENCE, witness=None,
            max_support=None, cause=_best_cause(a, b, supp, feas.cause.ratio),
        )
    s0 = _support_from_witness(supp, feas.witness)
    fast = np.array_equal(s0, supp)
    return Classification(
        behavior=Behavior.FAST_CONVERGENCE if fast else Behavior.SLOW_CONVERGENCE,
        witness=feas.witness, max_support=s0, cause=None,
    )


# ---------------------------------------------------------------------------
# block structure and limit points


def _peel(problem: FittingProblem, cause: Cause | None) -> BlockStructure:
    """The block structure peeled from ``cause``, the instance's
    ratio-maximizing cause (``None`` if it is feasible)."""
    a, b, supp = problem.a, problem.b, problem.support
    p, q = supp.shape
    rows_left = np.arange(p)
    cols_left = np.arange(q)
    row_blocks: list[tuple[int, ...]] = []
    col_blocks: list[tuple[int, ...]] = []
    while cause is not None:
        block_rows = rows_left[list(cause.rows)]
        block_cols = np.delete(cols_left, cause.cols)
        row_blocks.append(tuple(int(i) for i in block_rows))
        col_blocks.append(tuple(int(j) for j in block_cols))
        rows_left = np.delete(rows_left, cause.rows)
        cols_left = cols_left[list(cause.cols)]
        sub = supp[np.ix_(rows_left, cols_left)]
        _certify.support_mask(sub, sub, "seed support left after peeling")
        cause = _best_cause(a[rows_left] / a[rows_left].sum(),
                            b[cols_left] / b[cols_left].sum(), sub)
    row_blocks.append(tuple(int(i) for i in rows_left))
    col_blocks.append(tuple(int(j) for j in cols_left))

    lambdas = np.array(
        [b[list(J)].sum() / a[list(I)].sum() for I, J in zip(row_blocks, col_blocks)]
    )
    _certify.block_order(supp, lambdas, row_blocks, col_blocks)
    a_prime = np.empty(p)
    b_prime = np.empty(q)
    for lam, I, J in zip(lambdas, row_blocks, col_blocks):
        a_prime[list(I)] = lam * a[list(I)]
        b_prime[list(J)] = b[list(J)] / lam
    return BlockStructure(
        r=len(row_blocks),
        row_blocks=tuple(row_blocks),
        col_blocks=tuple(col_blocks),
        lambdas=lambdas,
        a_prime=a_prime,
        b_prime=b_prime,
    )


def block_structure(problem: FittingProblem) -> BlockStructure:
    """Peel ratio-maximizing causes until feasible; return the block partition.

    Each step removes the maximizing rows ``I_k`` together with the columns
    ``J_k`` they are allowed to reach; the scaling factors
    ``lambda_k = b(J_k)/a(I_k)`` come out strictly increasing (asserted),
    and the adjusted marginals ``a'`` / ``b'`` scale each block to mutual
    consistency.
    """
    return _peel(problem, _best_cause(problem.a, problem.b, problem.support))


def _limit_structure(problem: FittingProblem):
    """``(classification, blocks, sigma, restricted)``, from the zero pattern
    and the marginals alone (no iteration): ``sigma`` is the maximal support
    under ``(a', b)``, and ``restricted`` the seed zeroed outside it."""
    cls = classify(problem)
    bs = _peel(problem, cls.cause)
    sigma = cls.max_support
    if sigma is None:
        sigma = maximal_support(bs.a_prime, problem.b, problem.support)
    restricted = FittingProblem(np.where(sigma, problem.x0, 0.0), bs.a_prime, problem.b)
    return cls, bs, sigma, restricted


def _scale_newton(x, a, b, sigma) -> np.ndarray:
    """``diag(u) x diag(v)`` with marginals ``(a, b)``, ``x`` positive on ``sigma``."""
    if x.shape[0] > x.shape[1]:
        return _scale_newton(x.T, b, a, sigma.T).T
    comp = _strong_components(sigma, sigma)[:x.shape[0]]
    gauge = comp[:, None] == np.unique(comp)  # row i in component k of sigma

    def fitted(u):
        y = u[:, None] * x * (b / (u @ x))
        return y, float(np.abs(y.sum(axis=1) - a).sum() + np.abs(y.sum(axis=0) - b).sum())
    u = a / (x @ (b / x.sum(axis=0)))  # one sweep from u = 1
    y, err = fitted(u)
    for steps in range(_NEWTON_STEPS):
        if err <= _NEWTON_TOL:
            return y
        # Schur complement as a Laplacian, a rounding-level ridge, a gauge per component
        r, z = y.sum(axis=1), y / np.sqrt(b)
        lap, rc = z @ z.T, gauge * r[:, None]
        np.fill_diagonal(lap, 0.0)
        hess = np.diag(lap.sum(axis=1) + np.finfo(float).eps * r) - lap + rc @ rc.T
        step = np.linalg.solve(hess, a - r)
        step *= min(1.0, _NEWTON_MOVE / np.abs(step).max())  # exp overflows past it
        for _ in range(_NEWTON_HALVINGS):
            if (trial := fitted(u * np.exp(step)))[1] <= err:
                break
            step /= 2
        else:
            break
        u, (y, err) = u * np.exp(step), trial
    raise InternalCheckError(f"limit solve gave up in Newton step {steps + 1}, error {err:g}")


def limit_points(problem: FittingProblem) -> LimitPair:
    """Exact limits of the even and odd iterate subsequences.

    The even limit is ``D1 X0 D2`` on the common limit support ``sigma`` with
    marginals ``(a', b)``, by Newton's method on the log row potentials; the
    odd limit is it with row ``i`` scaled by ``a_i / a'_i``, and on a feasible
    instance the plain fit.  The rest comes from :func:`_limit_structure`.
    """
    cls, bs, sigma, restricted = _limit_structure(problem)
    a, b = problem.a, problem.b
    even = _scale_newton(restricted.x0, restricted.a, restricted.b, sigma)
    odd = even * (a / bs.a_prime)[:, None]
    _certify.limits(a, b, sigma, bs.a_prime, bs.b_prime, even, odd)
    return LimitPair(even_limit=even, odd_limit=odd, sigma=sigma, blocks=bs,
                     classification=cls, restricted=restricted)


def partition_from_ratios(values, gap: float = CLUSTER_GAP) -> tuple[tuple[int, ...], ...]:
    """Cluster limiting row ratios into blocks separated by more than ``gap``.

    Numerical fallback for recovering the row partition from an engine trace:
    the limiting ratios concentrate at the block scaling factors, so sorting
    and splitting at gaps larger than ``gap`` recovers ``I_1, ..., I_r`` in
    ascending order.

    Raises
    ------
    ValueError
        If ``values`` is empty or holds a NaN or an infinity, or ``gap`` is
        NaN or negative.
    """
    _check_tolerance("gap", gap)
    v = np.asarray(values, dtype=float).ravel()
    if not v.size:
        raise ValueError("partition_from_ratios needs at least one ratio")
    if not np.isfinite(v).all():
        raise ValueError("partition_from_ratios needs finite ratios")
    order = np.argsort(v, kind="stable")
    blocks: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if v[cur] - v[prev] > gap:
            blocks.append([])
        blocks[-1].append(int(cur))
    return tuple(tuple(sorted(blk)) for blk in blocks)

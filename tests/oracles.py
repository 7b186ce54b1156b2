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

Scaling-loop reference
----------------------
:func:`reference_scaling_run` is the engine as it was before its double step
was cut to four allocation-free numpy calls: each step allocates its
matrix-vector products (``np.divide(a, base @ v, out=u)``), and the rules
read the marginals of every iterate from two more matrix-vector products,
divided into ratios once, after the run.  The engine must reproduce its
history, stop index and reason bitwise; it reads ratios and errors off the
scalings instead, so those agree to rounding.  Its :class:`ReferenceHistory`
keeps every double step's ``u_k``, ``v_k`` in arrays that double without
limit, with the read methods the engine had before its history kept only
strided rows and replayed the rest: every read of a thinned engine trace
must give the same bits as the same read on it.
:func:`reference_escape_diagnostic` sums the log-ratios along the whole
trace with a cumulative sum; ``engine.escape_diagnostic`` reads the
telescoped sum from the scalings instead.
:func:`reference_cross_ratio_check` lists every supported 2x2 minor;
``engine.cross_ratio_check`` takes one max/min spread per row pair instead.
:func:`reference_rate_estimate` fits each cell's line with ``np.polyfit``;
``engine.rate_estimate`` sums the least-squares terms of all cells at once.

Backward-product reference loop
-------------------------------
:func:`reference_product_run` multiplies and measures one factor at a time,
with a per-factor ``dot`` in the blocked order ``product_run`` uses: the
local prefixes ``M_t ... M_b0`` of each block of ``block`` factors, each
then multiplied by the partial product that ends the block before it.
With ``block=1`` that is the plain chain ``P_t = M_t P_{t-1}``.
:func:`reference_birkhoff_sequence` averages permutation matrices drawn
one ``rng.permutation`` call at a time, and :func:`reference_ratio_bounded`
draws one ratio-bounded factor per call: ``products.product_run`` and the
stacked generators are compared against them.

Indented JSON
-------------
:func:`reference_dumps` is the formulation ``io.dumps`` replaced: the
pure-Python indent-2 encoder run over ``io.jsonify``'s output.  Every
JSON file and every stdout payload must come out byte for byte the same.

Dense max-flow reference
------------------------
:func:`reference_max_flow` is the max-flow as it was before it ran on row
bitsets: the same greedy allocation and breadth-first rounds on dense numpy
masks, one level at a time.  ``structure._max_flow`` must return the same
flow, flow value and reach masks bitwise, in both orientations the library
solves.

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
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np

from bipfit import FittingProblem, StopReason, engine, io
from bipfit.structure import _EPS_FLOW, Cause, CauseKind

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


class ReferenceHistory:
    """The scaling history with every double step's ``u_k``, ``v_k`` kept whole."""

    def __init__(self, x0: np.ndarray):
        self.bases, self.starts, self.folds = [x0], [0], []  # folds: the folded vectors
        self.u, self.v = (np.ones((engine._FOLD_EVERY + 1, m)) for m in x0.shape)
        self.k = 0  # double steps taken
        self.count = 1  # iterates readable as a sequence, set by the run

    def advance(self, k_end, a, b):
        while self.k < k_end:
            k0, k1 = self.k + 1, min(self.k + 1 + engine._FOLD_EVERY, k_end + 1)
            if k1 > len(self.u):
                self.u, self.v = (np.concatenate([h, np.ones_like(h)]) for h in (self.u, self.v))
            base, us, vs, v = self.bases[-1], self.u, self.v, self.v[self.k]
            for k in range(k0, k1):
                u = us[k]
                np.divide(a, base @ v, out=u)
                v = vs[k]
                np.divide(b, u @ base, out=v)
            for n, vec in ((2 * k - 1, u), (2 * k, v)):
                if not 1.0 / engine._FOLD_AT < vec.min() <= vec.max() < engine._FOLD_AT:
                    base = base * (vec[:, None] if n % 2 else vec)
                    self.starts.append(n)
                    self.bases.append(base)
                    self.folds.append(vec.copy())
                    vec[:] = 1.0
            self.k = k

    def ratios(self, n0: int, n1: int, a: np.ndarray, b: np.ndarray, width: int):
        """``rows(X_n)/a`` and ``cols(X_n)/b`` for ``n0 <= n < n1``, in slices of ``width``.

        The next scaling divides the marginal it fits, so
        ``rows(X_2k)/a = u_k/u_{k+1}`` and ``cols(X_2k+1)/b = v_k/v_{k+1}``; at
        a fold point the next vector is the recorded pre-fold one.  The fitted
        side of an iterate reads 1; ``X_0``'s columns are summed from the seed.
        ``u_{k+1}`` of an even final iterate is not taken: one matvec gives it.
        """
        for s0 in range(n0, n1, width):
            s1 = min(s0 + width, n1)
            rows, cols = np.ones((s1 - s0, a.size)), np.ones((s1 - s0, b.size))
            k0, k1 = (s0 + 1) // 2, (s1 + 1) // 2  # even n = 2k
            kt = min(k1, self.k)
            evens = rows[s0 % 2::2]
            np.divide(self.u[k0:kt], self.u[k0 + 1:kt + 1], out=evens[:kt - k0])
            if kt < k1:
                base = self.bases[bisect_right(self.starts, 2 * kt) - 1]
                np.divide(self.u[kt] * base.dot(self.v[kt]), a, out=evens[-1])
            np.divide(self.v[s0 // 2:s1 // 2], self.v[s0 // 2 + 1:s1 // 2 + 1],
                      out=cols[1 - s0 % 2::2])
            for s, f in zip(self.starts[1:], self.folds):
                if s0 < s <= s1:  # iterate s - 1 reads the folded vector's pre-fold value
                    side, h = (rows, self.u) if s % 2 else (cols, self.v)
                    np.divide(h[(s - 1) // 2], f, out=side[s - 1 - s0])
            if s0 == 0 < s1:
                np.divide(self.bases[0].sum(axis=0), b, out=cols[0])
            yield rows, cols

    def log_scaling(self, n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``ln X_n(i,j) - ln X_0(i,j)`` from the logs of the scalings; no entry is read."""
        fs = [f[i] if s % 2 else f[j] for s, f in zip(self.starts[1:], self.folds) if s <= n]
        return np.log(self.u[(n + 1) // 2, i]) + np.log(self.v[n // 2, j]) + sum(map(np.log, fs))

    def stack(self, ns, out: np.ndarray | None = None) -> np.ndarray:
        """Iterates ``X_n`` for ``n`` in ``ns``, shape ``(p, q, len(ns))``, into ``out`` if given.

        The iterates lie on the last, contiguous axis, in the order of ``ns``.
        Each run of indices reading one base is written in one pass.
        """
        ns = np.asarray(ns, dtype=int)
        if out is None:
            out = np.empty(self.bases[0].shape + ns.shape)
        if len(self.bases) == 1:  # the common case: one run, nothing to search
            seg, cut = [0], [0, ns.size]
        else:
            seg = np.searchsorted(self.starts, ns, side="right") - 1
            cut = [0, *np.flatnonzero(seg[1:] != seg[:-1]) + 1, ns.size] if ns.size else []
        for lo, hi in zip(cut, cut[1:]):
            m, x = ns[lo:hi], out[:, :, lo:hi]
            # contiguous copies of u and v keep numpy's inner loops on the iterate axis
            u, v = self.u[(m + 1) // 2].T.copy(), self.v[m // 2].T.copy()
            np.multiply(self.bases[seg[lo]][:, :, None], u[:, None], out=x)
            x *= v
        return out

    def blocks(self, ns):
        """``(indices, stacked iterates)`` for the index sequence ``ns``, in blocks."""
        ns, step = np.asarray(ns, dtype=int), max(1, engine._BLOCK // self.bases[0].size)
        for lo in range(0, len(ns), step):
            yield ns[lo:lo + step], self.stack(ns[lo:lo + step])

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(self.count)[i]
            return np.moveaxis(self.stack(np.arange(r.start, r.stop, r.step)), -1, 0)
        n = range(self.count)[i]  # one iterate, by its own formula
        base = self.bases[bisect_right(self.starts, n) - 1]
        return self.u[(n + 1) // 2, :, None] * base * self.v[n // 2]

    def __iter__(self):
        for _, x in self.blocks(np.arange(self.count)):
            yield from np.moveaxis(x, -1, 0)


def reference_scaling_run(problem: FittingProblem, rule) -> SimpleNamespace:
    """``engine.run`` with per-step temporaries and marginals multiplied out.

    Returns the trace's fields: ``n_iters``, ``stop_reason``, ``errors``,
    ``ratio_rows``, ``ratio_cols`` and the history as ``stored_matrices``.
    """
    a, b = problem.a, problem.b
    hist = ReferenceHistory(problem.x0)
    parts = []
    tail_r, tail_c = np.full((2, a.size), np.inf), np.full((2, b.size), np.inf)
    last_bad = 1
    n0, size = 0, engine._CHUNKS[0]
    while True:
        n1 = min(n0 + size, rule.max_iters + 1)
        hist.advance(n1 // 2, a, b)
        ns = np.arange(n0, n1)
        rows, cols = np.empty((len(ns), a.size)), np.empty((len(ns), b.size))
        seg = np.searchsorted(hist.starts, ns, side="right") - 1
        for j, base in enumerate(hist.bases):
            at = seg == j
            u, v = hist.u[(ns[at] + 1) // 2], hist.v[ns[at] // 2]
            rows[at], cols[at] = u * (v @ base.T), v * (u @ base)
        errors = np.abs(rows - a).sum(axis=1) + np.abs(cols - b).sum(axis=1)
        r2, c2 = np.concatenate([tail_r, rows]), np.concatenate([tail_c, cols])
        d = np.maximum(np.abs(r2[2:] - r2[:-2]).sum(axis=1),
                       np.abs(c2[2:] - c2[:-2]).sum(axis=1))
        near = np.flatnonzero(d < 2.0 * rule.tol_even_odd)
        d[near] = np.concatenate([np.empty(0)] + [
            np.abs(x - hist.stack(n - 2)).sum(axis=(0, 1)) for n, x in hist.blocks(ns[near])])
        last = np.maximum.accumulate(np.where(d < rule.tol_even_odd, last_bad, ns))
        converged, cauchy = errors < rule.tol_marginal, ns - last >= 2 * engine._CAUCHY_WINDOW
        hits = np.flatnonzero(converged | cauchy | (ns >= rule.max_iters))
        parts.append((rows, cols, errors))
        if hits.size:
            break
        tail_r, tail_c, last_bad = rows[-2:], cols[-2:], int(last[-1])
        n0, size = n1, min(2 * size, engine._CHUNKS[1])
    m = int(hits[0])
    reason = (StopReason.CONVERGED if converged[m] else StopReason.EVEN_ODD_CONVERGED
              if cauchy[m] else StopReason.ITERATION_CAP)
    hist.count = n0 + m + 1
    rows, cols, errors = (np.concatenate(z)[:hist.count] for z in zip(*parts))
    return SimpleNamespace(n_iters=hist.count - 1, stop_reason=reason, errors=errors,
                           ratio_rows=rows / a, ratio_cols=cols / b, stored_matrices=hist)


def reference_escape_diagnostic(trace, cells) -> list[dict]:
    """The escape log-sums as one cumulative sum of ``ln R_i`` and ``ln C_j`` over the trace."""
    ij = np.array([(int(i), int(j)) for i, j in cells], dtype=int).reshape(-1, 2)
    even = (np.arange(trace.n_iters) % 2 == 0)[:, None]  # factors: iterates 0 .. N-1
    partial = np.cumsum(np.where(even, np.log(trace.ratio_rows[:-1, ij[:, 0]]),
                                 np.log(trace.ratio_cols[:-1, ij[:, 1]])), axis=0)
    tail = partial[-max(2, len(partial) // 3):]
    return [{"cell": (int(i), int(j)), "final_log_sum": float(partial[-1, k]),
             "still_growing": bool(tail[-1, k] > tail[0, k])} for k, (i, j) in enumerate(ij)]


def reference_cross_ratio_check(trace, rel_tol: float = 1e-10) -> engine.CrossRatioReport:
    """The cross-ratio check with every supported 2x2 minor listed.

    Each minor ``(i, i', j, j')`` is read in index order as
    ``X(i,j)/X(i,j') * X(i',j')/X(i',j)``, divided by its value at ``X_0``,
    and its deviation is ``|rho - 1|``; a minor with a cell below the
    smallest normal float reads NaN and is skipped in that iterate.
    O(p^2 q^2) work and index memory per iterate.
    """
    supp = trace.problem.support
    p, q = supp.shape
    i, i2 = (t[:, None] for t in np.triu_indices(p, 1))
    j, j2 = (t[None, :] for t in np.triu_indices(q, 1))
    full = supp[i, j] & supp[i, j2] & supp[i2, j] & supp[i2, j2]
    n_minors = int(full.sum())
    if not n_minors:
        return engine.CrossRatioReport(True, 0.0, 0, full.size)
    r, c = np.nonzero(full)
    ii, kk, jj, ll = i[r, 0], i2[r, 0], j[0, c], j2[0, c]

    def cross(x):
        x = np.where(x < np.finfo(float).tiny, np.nan, x)
        out = x[..., ii, jj] / x[..., ii, ll]
        out *= x[..., kk, ll] / x[..., kk, jj]
        return out

    mats = trace.stored_matrices
    step = max(1, min((1 << 15) // supp.size, (3 << 16) // n_minors))
    inv_ref, dev = 1.0 / cross(mats[0]), 0.0
    for lo in range(0, len(mats), step):  # fmax skips the NaN minors
        rel = cross(mats[lo:lo + step])
        rel *= inv_ref
        rel -= 1.0
        dev = float(np.fmax(dev, np.fmax.reduce(np.abs(rel, out=rel), axis=None)))
    return engine.CrossRatioReport(dev <= rel_tol, dev, n_minors, full.size - n_minors)


def reference_rate_estimate(trace, noise_floor: float = 1e-15) -> engine.RateReport:
    """Per-cell rates fitted one cell at a time with ``np.polyfit``.

    Same window ``[0.5 N, 0.875 N]`` (N the final even index), same points
    ``(n, ln |X_n(i,j) - L(i,j)|)`` with the differences at or below
    ``noise_floor`` left out, and the same fallback: the even subsequence
    against the final even iterate, then the odd one against the final odd
    iterate, for cells with fewer than three points.  Iterates are read one
    by one, ``r_squared`` is one minus the residual over the total sum of
    squares (1 for a flat line).
    """
    n_last, p, q = trace.n_iters - trace.n_iters % 2, *trace.problem.shape
    rates, r2s = np.full((p, q), -np.inf), np.full((p, q), np.nan)
    source, undecided = np.full((p, q), -1, dtype=np.int8), np.ones((p, q), dtype=bool)
    first, last = int(np.ceil(0.5 * n_last)), int(0.875 * n_last)
    for parity, limit in ((0, trace.even_limit()), (1, trace.odd_limit())):
        ns = np.arange(first + (first - parity) % 2, last + 1, 2)
        d = np.abs(np.array([trace.iterate(int(n)) for n in ns]).reshape(-1, p, q) - limit)
        for i, j in zip(*np.nonzero(undecided)):
            w = d[:, i, j] > noise_floor
            if w.sum() < 3:
                continue
            x, y = ns[w], np.log(d[w, i, j])
            slope, icept = np.polyfit(x, y, 1)
            ss = ((y - y.mean()) ** 2).sum()
            r2s[i, j] = 1.0 if ss == 0.0 else 1.0 - ((y - (slope * x + icept)) ** 2).sum() / ss
            rates[i, j], source[i, j], undecided[i, j] = slope, parity, False
    return engine.RateReport(rates=rates, r_squared=r2s, converged=undecided,
                             source=source, window=(first, last))


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


def reference_product_run(ms, tracked_vectors=(), block: int = 1):
    """The backward product ``M_n ... M_1`` multiplied and measured one factor at a time.

    Factor ``t`` of a block starting at ``b0`` (blocks of ``block``
    factors) gives ``L = M_t L_prev`` with ``L = M_b0`` at the block's
    start, and the partial product ``L P_{b0-1}`` (``L`` itself in the
    first block).  Returns the fields of a ``ProductTrace`` (partial
    products as a list, running factor sums stored) plus ``assumptions`` as
    :func:`reference_assumptions` gives them.
    """
    ms = [np.asarray(m, dtype=float) for m in ms]
    tracked = [np.asarray(v, dtype=float).ravel() for v in tracked_vectors]
    partials, variations, disp, sums = [], [], [], []
    running, local, head = 0.0, None, None
    for t, m in enumerate(ms):
        if t % block == 0:
            local, head = m.copy(), (partials[-1] if partials else None)
        else:
            local = m.dot(local)
        prod = local if head is None else local.dot(head)
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


def reference_ratio_bounded(d: int, rng: np.random.Generator, gamma: float,
                            rho: float) -> np.ndarray:
    """One ratio-bounded factor, drawn on its own: the per-call generator."""
    w = rng.uniform(1.0 / rho, 1.0, size=(d, d))
    w = (w + w.T) / 2
    m = w / w.sum(axis=1, keepdims=True)
    return gamma * np.eye(d) + (1 - gamma) * m


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


def kron_grid(k: int) -> FittingProblem:
    """The grid problem blown up ``k``-fold: each seed cell a ``k x k`` block of
    ``U(0.5, 2)`` cells (``default_rng(0)``), each marginal entry split in ``k``.

    It diverges with crawling cells, and under the default rule it folds 624
    times before its 100 000-iteration cap.
    """
    x0 = np.kron(GRID_X0, np.random.default_rng(0).uniform(0.5, 2.0, (k, k)))
    return FittingProblem(x0, np.repeat(GRID_A, k) / k, np.repeat(GRID_B, k) / k)


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
# dense max-flow reference


def reference_max_flow(a, c, supp):
    """Max flow on source -> rows -> cols -> sink with supports as free edges.

    Source edges carry ``a``, sink edges ``c``, support edges are unbounded.
    A greedy row-by-row allocation comes first.  Each round then grows a
    breadth-first tree from the rows with spare source capacity, one level
    at a time (to columns along support cells, back to rows along cells
    carrying flow), until a level reaches columns with spare sink capacity,
    and augments along the tree to every such column.  Each augmentation
    saturates a source, sink or backward edge exactly, so float capacities
    terminate cleanly.

    Returns ``(f, flow_value, reach_rows, reach_cols)`` where ``f`` is the
    flow on support cells and the reach masks describe residual reachability
    from the source on termination (i.e. the minimal min cut).
    """
    p, q = supp.shape
    f = np.zeros((p, q))
    ra = a.astype(float)  # spare source capacity
    rc = c.astype(float)  # spare sink capacity
    for i in range(p):
        cols = (supp[i] & (rc > _EPS_FLOW)).nonzero()[0]
        caps = rc[cols]
        take = np.minimum(caps, np.maximum(ra[i] - (caps.cumsum() - caps), 0.0))
        f[i, cols] = take
        rc[cols] -= take
        ra[i] = max(ra[i] - take.sum(), 0.0)
    while True:
        row_par = np.full(p, -2)  # -2 unvisited, -1 source, else parent col
        col_par = np.full(q, -2)  # parent row
        rows = (ra > _EPS_FLOW).nonzero()[0]
        row_par[rows] = -1
        goals = rows[:0]
        while rows.size:
            step = supp[rows] & (col_par == -2)
            cols = step.any(axis=0).nonzero()[0]
            col_par[cols] = rows[step[:, cols].argmax(axis=0)]
            goals = cols[rc[cols] > _EPS_FLOW]
            if goals.size or not cols.size:
                break
            back = (f[:, cols] > _EPS_FLOW) & (row_par == -2)[:, None]
            rows = back.any(axis=1).nonzero()[0]
            row_par[rows] = cols[back[rows].argmax(axis=1)]
        if not goals.size:
            return f, float((a - ra).sum()), row_par != -2, col_par != -2
        for goal in goals.tolist():
            # walk the tree back: forward middle edges are unbounded,
            # backward ones carry f
            path = []
            j, delta = goal, rc[goal]
            while True:
                i = int(col_par[j])
                path.append((i, j))
                if row_par[i] == -1:
                    delta = min(delta, ra[i])
                    break
                j = int(row_par[i])
                delta = min(delta, f[i, j])
            if delta <= _EPS_FLOW:  # a bottleneck shared with an earlier goal
                continue
            rc[goal] -= delta
            ra[i] -= delta
            for i, j in path:
                f[i, j] += delta
            for (i, _), (_, j) in zip(path[:-1], path[1:]):
                f[i, j] -= delta


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


def planted_critical(rng: np.random.Generator, p: int, q: int) -> FittingProblem:
    """A feasible seed with one critical zero block: it crawls at rate ``1/n``.

    The seed is zero on ``A x B`` (the first half of the rows and of the
    columns) and positive elsewhere.  The marginals are the sums of an integer
    witness on ``A x B^c`` and ``A^c x B`` over ``2^14``, so ``a(A) = b(B^c)``
    exactly, and the seed cells on ``A^c x B^c`` are squeezed out.
    """
    in_a, in_b = np.arange(p)[:, None] < p // 2, np.arange(q)[None, :] < q // 2
    w = np.where(in_a != in_b, rng.integers(1, 9, size=(p, q)), 0)
    w[0, -1] += (1 << 14) - w.sum()
    x0 = np.where(in_a & in_b, 0.0, rng.uniform(0.5, 2.0, size=(p, q)))
    return FittingProblem(x0, w.sum(axis=1) / (1 << 14), w.sum(axis=0) / (1 << 14))


def sparse_critical(rng: np.random.Generator, n: int, density: float) -> FittingProblem:
    """A sparse ``n x n`` seed (``n`` even) with one critical zero block.

    As in :func:`planted_critical`, ``A`` and ``B`` are the first halves of
    the rows and columns, the seed is zero on ``A x B``, and an integer
    witness on ``A x B^c`` and ``A^c x B`` over ``2^20`` gives the marginals,
    so ``a(A) = b(B^c)`` exactly and the seed cells on ``A^c x B^c`` are
    squeezed out.  The other three quadrants hold about ``density`` of their
    cells, plus the diagonals of ``A x B^c`` and ``A^c x B``, which keep a
    witness cell in every row and column.
    """
    half = n // 2
    in_a, in_b = np.arange(n)[:, None] < half, np.arange(n)[None, :] < half
    cover = ((rng.random((n, n)) < density) | np.eye(n, k=half, dtype=bool)
             | np.eye(n, k=-half, dtype=bool))
    w = np.where(cover & (in_a != in_b), rng.integers(1, 9, size=(n, n)), 0)
    w[0, half] += (1 << 20) - w.sum()
    x0 = np.where(cover & ~(in_a & in_b), rng.uniform(0.5, 2.0, size=(n, n)), 0.0)
    return FittingProblem(x0, w.sum(axis=1) / (1 << 20), w.sum(axis=0) / (1 << 20))


def random_problem(rng: np.random.Generator, p: int | None = None,
                   q: int | None = None, density: float = 0.65) -> FittingProblem:
    p = int(rng.integers(2, 7)) if p is None else p
    q = int(rng.integers(2, 7)) if q is None else q
    a = random_marginals(rng, p)
    b = random_marginals(rng, q)
    supp = random_support(rng, p, q, density)
    x0 = np.where(supp, rng.random((p, q)) + 0.05, 0.0)
    return FittingProblem(x0, a, b)

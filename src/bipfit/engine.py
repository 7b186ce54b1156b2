"""Alternating-fitting iteration engine.

Runs the row/column rescaling loop from a :class:`~bipfit.core.FittingProblem`
and records everything the downstream diagnostics need: every L1 marginal
error and the scaling history.  Odd iterates are row-fitted, even iterates
(from index 2 on) are column-fitted.  Every iterate is
``X_n = diag(u) X_0 diag(v)``, so the loop iterates only the scaling vectors
and the trace keeps their history, from which any iterate is rebuilt and any
marginal-ratio vector read off without a matrix product.

Three stopping outcomes exist.  ``CONVERGED`` means the marginal error fell
below tolerance; ``EVEN_ODD_CONVERGED`` means both parity subsequences went
Cauchy while the error stayed up — the signature of a divergent instance
settling into its two oscillation limits; ``ITERATION_CAP`` speaks for
itself.  The engine never thresholds small entries to zero mid-run: the
support is fixed by the seed and preserved exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

import numpy as np

from .core import FittingProblem, MarginalRatios, _check_tolerance, fit_rows


class StopReason(Enum):
    CONVERGED = "Converged"
    EVEN_ODD_CONVERGED = "EvenOddConverged"
    ITERATION_CAP = "IterationCap"


@dataclass(frozen=True)
class StoppingRule:
    """Stopping thresholds for :func:`run`.

    ``tol_marginal`` bounds the L1 marginal error for plain convergence;
    ``tol_even_odd`` bounds the last-8 window of consecutive same-parity
    iterate differences for oscillation detection; ``max_iters`` caps the
    iteration count.
    """

    tol_marginal: float = 1e-10
    tol_even_odd: float = 1e-12
    max_iters: int = 100_000

    def __post_init__(self):
        if not (self.tol_marginal > 0 and self.tol_even_odd > 0):  # NaN fails too
            raise ValueError("stopping tolerances must be positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


#: Width of the sliding window used for the even/odd Cauchy test.
_CAUCHY_WINDOW = 8

#: Rules are evaluated per chunk of iterates, its length doubling between
#: these sizes: early stops overshoot little, long runs pay little per chunk.
_CHUNKS = (8, 4096)

#: Every ``_FOLD_EVERY`` double steps a scaling vector leaving ``[1/_FOLD_AT,
#: _FOLD_AT]`` is folded into a new base, with ~800 binary orders to spare.
_FOLD_EVERY, _FOLD_AT = 16, 2.0 ** 192

#: Floats per block of iterates rebuilt for a vectorized read, per ratio
#: array of one slice of the stopping rules, and per block of the seed's
#: nonzero cells read for the exact even/odd distance.
_BLOCK = 1 << 15

#: Floats per buffer of :func:`cross_ratio_check` (1 MB): a block of iterates
#: stacked on their last axis, and the column ratios of a chunk of row pairs
#: over that block.  The buffers are reused from block to block, since fresh
#: MB-sized temporaries can page-fault on every block of a long trace.
_PAIR_BLOCK = 1 << 17

#: Floats the scaling history keeps of its rows ``[u | v]`` before the window
#: of the newest chunk (2 MB): every ``K``-th row, ``K`` doubling as needed.
_KEEP = 1 << 18


class _ScalingHistory:
    """Scaling vectors of one run, read as the sequence of iterates ``X_n``.

    ``X_n = diag(u_{(n+1)//2}) K_j diag(v_{n//2})``: double step ``k`` writes
    ``u_k`` (row fit, first read by ``X_{2k-1}``) and ``v_k`` (column fit,
    first read by ``X_{2k}``).  ``K_0`` is the seed.  A fold multiplies an
    overgrown newest vector into a new base and resets it to ones (Schmitzer's
    absorption step); iterates from fold point ``starts[j]`` on read ``K_j``.
    Only the seed, the newest base and each fold's vector are kept.  One
    array of ``[u | v]`` rows holds the kept rows, steps ``0, K, 2K, ...``
    below ``w0`` in at most :data:`_KEEP` floats, then the window, steps
    ``w0 .. k`` (step ``k`` in row ``k + held - w0``).  Reads go through
    :meth:`_walk`, which replays the other rows and rebuilds the bases.
    """

    def __init__(self, x0: np.ndarray, max_iters: int):
        self.seed, self.starts, self.folds = x0, [0], []  # folds: the folded vectors
        self._newest = x0  # the newest base, whose bound `dot`s the loop calls
        self._rows = np.ones((_FOLD_EVERY + 1, sum(x0.shape)))  # [u | v]: kept rows, window
        self.u, self.v = np.split(self._rows, [len(x0)], axis=1)
        self.k = 0  # double steps taken
        self.count = max_iters + 1  # iterates readable, cut by the run at its stop
        # row i of the block is [u | v] of a fold group's step i; bound `dot`s skip dispatch
        block = self._block = np.ones((_FOLD_EVERY + 1, sum(x0.shape)))
        self._steps = list(zip(block[:, :len(x0)], block[:, len(x0):]))
        self._dots = x0.dot, x0.T.dot
        # window's first double step, stride K, kept rows and their limit
        self._w0, self._stride, self._held = 0, 1, 0
        self._cap = max(1, _KEEP // sum(x0.shape))
        # rows once the start rows are outgrown: the kept rows and the largest
        # window, 2050 rows of a 4096-iterate chunk, or every step of the run
        self._size = min(self._cap + _CHUNKS[1] // 2 + 2, max_iters // 2 + 2)
        self._ab, self._kept = None, (0, x0)  # the marginals; [j, K_j] kept between walks

    def advance(self, k_end: int, a: np.ndarray, b: np.ndarray) -> None:
        """Take allocation-free double steps up to ``k_end``; test for a fold per group."""
        self._ab = a, b
        self._make_room(k_end)
        block, steps, p = self._block, self._steps, a.size
        off = self._held - self._w0  # step k lies in row k + off
        while self.k < k_end:
            k0, k1 = self.k + 1, min(self.k + 1 + _FOLD_EVERY, k_end + 1)
            (row_dot, col_dot), g = self._dots, k1 - self.k  # g rows: carried v, the steps
            block[0, p:] = self.v[self.k + off]  # from the history, where a fold resets it
            for (_, v_in), (u, v) in zip(steps, steps[1:g]):
                row_dot(v_in, u)
                np.divide(a, u, u)
                col_dot(u, v)
                np.divide(b, v, v)
            self._rows[k0 + off:k1 + off] = block[1:g]
            last = block[g - 1]  # one joint test; the per-vector one only if it fails
            if not 1 / _FOLD_AT < np.minimum.reduce(last) <= np.maximum.reduce(last) < _FOLD_AT:
                r = k1 - 1 + off  # the group's last row
                for n, vec in ((2 * k1 - 3, self.u[r]), (2 * k1 - 2, self.v[r])):
                    if not 1 / _FOLD_AT < vec.min() <= vec.max() < _FOLD_AT:
                        self.starts.append(n)
                        self.folds.append(vec.copy())
                        vec[:] = 1.0
                        base = self._newest = self._fold(self._newest, len(self.folds))
                        self._dots = base.dot, base.T.dot
            self.k = k1 - 1

    def _fold(self, base: np.ndarray, j: int) -> np.ndarray:
        """``K_j`` from ``K_{j-1}``: fold ``j``'s vector times its rows (odd start) or columns."""
        f = self.folds[j - 1]
        return base * (f[:, None] if self.starts[j] % 2 else f)

    def _make_room(self, k_end: int) -> None:
        """Make the window hold double steps ``k - 1 .. k_end``, ``k`` the last one taken."""
        h, stride, held, w0, k = self._rows, self._stride, self._held, self._w0, self.k
        lo = max(k - 1, 0)
        if stride > 1 or lo > self._cap:  # else every row stays at its own index
            kept = -(-lo // stride)  # the multiples of the stride below lo
            h[held:kept] = h[held * stride + held - w0:lo + held - w0:stride]
            while kept > self._cap:  # full: every other kept row goes
                kept, stride = (kept + 1) // 2, 2 * stride
                h[:kept] = h[:2 * kept:2]
            h[kept:kept + k + 1 - lo] = h[lo + held - w0:k + 1 + held - w0]  # k - 1, k
            self._held, self._w0, self._stride = kept, lo, stride
        off = self._held - self._w0  # step k lies in row k + off
        if k_end + off >= len(h):  # once: no later step copies the rows again
            self._rows = np.empty((self._size, h.shape[1]))
            self._rows[:k + 1 + off] = h[:k + 1 + off]
            self.u, self.v = np.split(self._rows, [self.u.shape[1]], axis=1)

    def _walk(self, ns: np.ndarray, size: int):
        """``(lo, hi, u, v, base)`` for pieces ``ns[lo:hi]`` of ascending iterates.

        ``u[i]``, ``v[i]`` are ``u_{(n+1)//2}``, ``v_{n//2}`` of ``n = ns[lo + i]``
        and ``base`` the ``K_j`` they read; pieces end at multiples of ``size``
        and where the base changes.  A row not in place is replayed once from
        the kept row before it.  One base goes forward, folding at each fold
        point, from the seed, the newest or the one kept between walks (where
        the last replay started, or the last walk ended), the latest in reach.
        """
        if ns.size and not (0 <= ns[0] and ns[-1] <= 2 * self.k):
            raise IndexError(f"iterates {ns[0]} .. {ns[-1]}, of 0 .. {2 * self.k} computed")
        w0, stride, off, p = self._w0, self._stride, self._held - self._w0, self.u.shape[1]
        if not ns.size or not self.folds and (stride == 1 or ns[0] // 2 >= w0):  # common case
            for lo in range(0, ns.size, size):
                m = ns[lo:lo + size]
                ku, kv = ((m + 1) // 2 + off, m // 2 + off) if off else ((m + 1) // 2, m // 2)
                yield lo, lo + m.size, self.u[ku], self.v[kv], self.seed
            return
        starts, (a, b) = self.starts, self._ab
        later = starts[bisect_right(starts, ns[0]):bisect_right(starts, ns[-1])]  # bases begun
        cut = sorted({*range(0, ns.size, size), *np.searchsorted(ns, later).tolist()})
        # the walk starts at its first iterate, or at the kept row its replay starts from
        j0 = bisect_right(starts, ns[0] - (ns[0] % (2 * stride) if ns[0] // 2 < w0 else 0)) - 1
        f, base = max(((0, self.seed), self._kept, (len(self.folds), self._newest)),
                      key=lambda held: held[0] if held[0] <= j0 else -1)
        r, w = -1, None  # the replayed double step and its row [u_r | v_r]

        def forward(j):  # fold the base on to K_j, and the replayed vector with it
            nonlocal f, base
            while f < j:
                f += 1
                base = self._fold(base, f)
                if (starts[f] + 1) // 2 == r:
                    (w[:p] if starts[f] % 2 else w[p:])[:] = 1.0

        for lo, hi in zip(cut, [*cut[1:], ns.size]):  # pieces: no fold point inside
            m, j = ns[lo:hi], bisect_right(starts, ns[lo]) - 1
            if stride == 1 or m[0] // 2 >= w0:  # every row in place
                u, v = self.u[(m + 1) // 2 + off], self.v[m // 2 + off]
            else:
                ks, at = np.unique(np.concatenate([(m + 1) // 2, m // 2]), return_inverse=True)
                held = (ks >= w0) | (ks % stride == 0)
                rows, kh = np.empty((ks.size, self._rows.shape[1])), ks[held]
                rows[held] = self._rows[np.where(kh >= w0, kh + off, kh // stride)]
                for i in np.flatnonzero(~held).tolist():  # ascending, and from r on
                    k = int(ks[i])
                    c = k - k % stride
                    if r < c:  # start again at the kept row before k
                        forward(bisect_right(starts, 2 * c) - 1)
                        self._kept, r, w = (f, base), c, self._rows[c // stride].copy()
                        wu, wv = w[:p], w[p:]
                    row_dot, col_dot = base.dot, base.T.dot
                    while r < k:
                        if f + 1 < len(starts) and starts[f + 1] <= 2 * r:  # step r's folds
                            forward(bisect_right(starts, 2 * r) - 1)
                            row_dot, col_dot = base.dot, base.T.dot
                        r += 1
                        row_dot(wv, wu)
                        np.divide(a, wu, wu)
                        col_dot(wu, wv)
                        np.divide(b, wv, wv)
                    if f < j and starts[f + 1] <= 2 * k:  # step k's folds, up to this base
                        forward(min(j, bisect_right(starts, 2 * k) - 1))
                    rows[i] = w
                u, v = rows[at[:m.size], :p], rows[at[m.size:], p:]
            forward(j)
            if r < 0:
                self._kept = f, base
            yield lo, hi, u, v, base

    def ratios(self, n0: int, n1: int, a: np.ndarray, b: np.ndarray, width: int):
        """``rows(X_n)/a`` and ``cols(X_n)/b`` for ``n0 <= n < n1``, in slices of ``width``.

        The next scaling divides the marginal it fits: ``rows(X_2k)/a =
        u_k/u_{k+1}``, ``cols(X_2k+1)/b = v_k/v_{k+1}``, with the recorded pre-fold
        vector at a fold point, 1 on the fitted side and the seed's columns at
        ``X_0``.  An even final iterate's ``u_{k+1}``, never taken, is one matvec
        with the newest base.  Rows out of place come from a walk.
        """
        if not 0 <= n0 <= n1 <= self.count:
            raise IndexError(f"iterates {n0} .. {n1 - 1} outside 0 .. {self.count - 1}")
        o, off, starts = n0 // 2, self._held - self._w0, self.starts  # u[k - o] holds u_k
        u, v, walk = self.u[o + off:], self.v[o + off:], None
        if self._stride > 1 and o < self._w0:  # the double steps the slices read, in pieces
            ns = np.arange(2 * o, 2 * min((n1 + 1) // 2, self.k) + 1, 2)  # X_2k reads u_k, v_k
            u, v, walk = u[:0], v[:0], self._walk(ns, max(1, width // 2))
        for s0 in range(n0, n1, width):
            s1 = min(s0 + width, n1)
            k0, k1 = (s0 + 1) // 2, (s1 + 1) // 2  # even n = 2k
            kt = min(k1, self.k)
            if walk is not None:  # the steps s0 // 2 .. kt, from the walk
                parts, o = [(u[s0 // 2 - o:], v[s0 // 2 - o:])], s0 // 2
                while o + sum(len(part[0]) for part in parts) <= kt:
                    parts.append(next(walk)[2:4])
                u, v = map(np.concatenate, zip(*parts))
            rows, cols = np.ones((s1 - s0, a.size)), np.ones((s1 - s0, b.size))
            evens = rows[s0 % 2::2]
            np.divide(u[k0 - o:kt - o], u[k0 + 1 - o:kt + 1 - o], out=evens[:kt - k0])
            if kt < k1:
                np.divide(u[kt - o] * self._newest.dot(v[kt - o]), a, out=evens[-1])
            np.divide(v[s0 // 2 - o:s1 // 2 - o], v[s0 // 2 + 1 - o:s1 // 2 + 1 - o],
                      out=cols[1 - s0 % 2::2])
            for i in range(bisect_right(starts, s0), bisect_right(starts, s1)):
                s = starts[i]  # iterate s - 1 reads the folded vector's pre-fold value
                side, h = (rows, u) if s % 2 else (cols, v)
                np.divide(h[(s - 1) // 2 - o], self.folds[i - 1], out=side[s - 1 - s0])
            if s0 == 0 < s1:
                np.divide(self.seed.sum(axis=0), b, out=cols[0])
            yield rows, cols

    def log_scaling(self, n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``ln X_n(i,j) - ln X_0(i,j)`` from the logs of the scalings; no entry is read."""
        (_, _, (u,), (v,), _), = self._walk(np.array([n]), 1)
        folded = np.zeros(np.shape(i))  # the folds' logs, summed in place in fold order
        for s, f in zip(self.starts[1:bisect_right(self.starts, n)], self.folds):
            folded += np.log(f[i] if s % 2 else f[j])
        return np.log(u[i]) + np.log(v[j]) + folded

    def stack(self, ns, out: np.ndarray | None = None, cells=None) -> np.ndarray:
        """Iterates ``X_n`` for ``n`` in ``ns``, shape ``(p, q, len(ns))``, into ``out`` if given.

        With ``cells = (r, c)``, each ``X_n[r, c]``, shape ``(len(r), len(ns))``
        and transposed from contiguous.  The iterate axis is last, in order.
        """
        ns = np.asarray(ns, dtype=int)
        if out is None:
            out = (np.empty(self.seed.shape + ns.shape) if cells is None
                   else np.empty((ns.size, len(cells[0]))).T)
        if (ns[1:] < ns[:-1]).any():  # a walk reads ascending; scatter back
            order = np.argsort(ns, kind="stable")
            out[..., order] = self.stack(ns[order], None, cells)
        else:
            for _ in self.blocks(ns, out, cells):
                pass
        return out

    def blocks(self, ns, out: np.ndarray | None = None, cells=None):
        """``(indices, stacked iterates)`` for ascending ``ns``, in blocks, from one walk.

        A block is ``out``'s last axis long, written into ``out``, or holds
        :data:`_BLOCK` floats in a new array; ``cells``, into ``out``, as in :meth:`stack`.
        """
        ns = np.asarray(ns, dtype=int)
        if ns.size and not 0 <= ns[0] <= ns[-1] < self.count:
            raise IndexError(f"iterates {ns[0]} .. {ns[-1]} outside 0 .. {self.count - 1}")
        step = max(1, _BLOCK // self.seed.size if out is None else out.shape[-1])
        for lo, hi, u, v, base in self._walk(ns, step):
            at = lo % step
            if not at:
                m = min(step, ns.size - lo)
                x = np.empty(self.seed.shape + (m,)) if out is None else out[..., :m]
            y = x[..., at:at + hi - lo]
            if cells is None:  # contiguous copies keep numpy's inner loops on the iterate axis
                np.multiply(base[:, :, None], u.T.copy()[:, None], out=y)
                y *= v.T.copy()
            else:  # one row of cells (r, c) per iterate
                np.multiply(base[cells[0], cells[1]], u[:, cells[0]], out=y.T)
                y *= v[:, cells[1]].T
            if at + hi - lo == x.shape[-1]:
                yield ns[lo - at:hi], x

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):  # a descending slice is read ascending, and flipped
            r = range(self.count)[i]
            up = r[::-1] if r.step < 0 else r
            x = np.moveaxis(self.stack(np.arange(up.start, up.stop, up.step)), -1, 0)
            return x[::-1] if r.step < 0 else x
        n = range(self.count)[i]  # one iterate, by its own formula
        if self.folds or self._stride > 1 and n // 2 < self._w0:
            (_, _, (u,), (v,), base), = self._walk(np.array([n]), 1)
            return u[:, None] * base * v
        off = self._held - self._w0  # in place, under the seed: two row views
        return self.u[(n + 1) // 2 + off, :, None] * self.seed * self.v[n // 2 + off]

    def __iter__(self):
        for _, x in self.blocks(np.arange(self.count)):
            yield from np.moveaxis(x, -1, 0)


@dataclass
class IterationTrace:
    """Complete record of one engine run.

    ``errors[n]`` covers every iterate ``X_0 .. X_N``; ``ratio_rows[n]`` and
    ``ratio_cols[n]`` do too, read off the scaling-vector history on access.
    No iterate is stored: ``stored_matrices`` is a read-only sequence that
    rebuilds ``X_n`` from that history on access, several at a time in its
    one ``(p, q, iterates)`` layout; ``stored_indices`` is ``arange(N + 1)``.
    """

    problem: FittingProblem
    errors: np.ndarray
    stop_reason: StopReason
    stored_matrices: _ScalingHistory = field(repr=False)

    @property
    def n_iters(self) -> int:
        """Index of the final iterate (the trace holds ``n_iters + 1`` states)."""
        return len(self.errors) - 1

    @property
    def stored_indices(self) -> np.ndarray:
        return np.arange(self.n_iters + 1)

    def _ratios(self, n0: int, n1: int):
        return next(self.stored_matrices.ratios(n0, n1, self.problem.a, self.problem.b, n1 - n0))

    @property
    def ratio_rows(self) -> np.ndarray:
        """``rows(X_n)/a`` for every iterate, shape ``(N + 1, p)``; computed on each access."""
        return self._ratios(0, self.n_iters + 1)[0]

    @property
    def ratio_cols(self) -> np.ndarray:
        """``cols(X_n)/b`` for every iterate, shape ``(N + 1, q)``; computed on each access."""
        return self._ratios(0, self.n_iters + 1)[1]

    def iterate(self, n: int) -> np.ndarray:
        """Iterate ``X_n``, rebuilt; raises ``KeyError`` outside ``0 .. N``."""
        if not 0 <= n <= self.n_iters:
            raise KeyError(f"iterate {n} outside the trace (0 .. {self.n_iters})")
        return self.stored_matrices[n]

    def ratios(self, n: int) -> MarginalRatios:
        """Marginal ratios of ``X_n`` alone."""
        n = range(self.n_iters + 1)[n]
        rows, cols = self._ratios(n, n + 1)
        return MarginalRatios(rows=rows[0], cols=cols[0])

    @property
    def last_even(self) -> tuple[int, np.ndarray]:
        n = self.n_iters - self.n_iters % 2
        return n, self.stored_matrices[n]

    @property
    def last_odd(self) -> tuple[int, np.ndarray] | None:
        """``(n, X_n)`` for the final odd ``n``; ``None`` before the first."""
        n = self.n_iters - 1 + self.n_iters % 2
        return (n, self.stored_matrices[n]) if n > 0 else None

    def even_limit(self) -> np.ndarray:
        """Final even iterate — the even-limit estimate."""
        return self.last_even[1]

    def odd_limit(self) -> np.ndarray:
        """Final odd iterate — the odd-limit estimate."""
        if self.n_iters == 0:
            raise ValueError("trace stopped before the first odd iterate")
        return self.last_odd[1]


def run(problem: FittingProblem, rule: StoppingRule | None = None) -> IterationTrace:
    """Run the alternating fitting iteration until a stopping rule fires.

    ``X_0`` is the (normalized) seed; ``X_{2k+1} = fit_rows(X_2k, a)``;
    ``X_{2k+2} = fit_cols(X_{2k+1}, b)``.  In scaling form these are
    ``u = a / (K @ v)`` and ``v = b / (K.T @ u)``.  The loop runs them in
    chunks, evaluates the rules on each chunk's iterates in vectorized code,
    slice by slice, and cuts the history at the first index where one fires.
    The rules read marginals as ratios off the scalings, with no matrix
    product, and an exact ``|X_n - X_{n-2}|_1`` off the seed's nonzero cells
    alone.  Per iterate they are tested in the order converged, even/odd,
    cap, so stop index and reason are those of a loop testing after every
    step.  Its memory is bounded in bytes but for a vector per fold: the
    history's rows, seed and newest base, ``_BLOCK``-float rule buffers, errors.

    Returns
    -------
    IterationTrace
    """
    rule = rule or StoppingRule()
    a, b = problem.a, problem.b
    hist = _ScalingHistory(problem.x0, rule.max_iters)
    cells = np.nonzero(problem.support)  # every other cell is 0 in every iterate
    step = max(1, _BLOCK // cells[0].size)  # iterates per block of the exact d_n
    errs = []
    last_bad = 1  # newest index failing the Cauchy test; d_0, d_1 do not exist
    for n0, n1 in _slices(hist, rule.max_iters, a, b):
        ns = np.arange(n0, n1)
        lo = max(n0 - 2, 0)  # the slice and the two iterates before it, if any
        rows, cols = next(hist.ratios(lo, n1, a, b, n1 - lo))
        errors = np.abs(rows[n0 - lo:] - 1.0) @ a + np.abs(cols[n0 - lo:] - 1.0) @ b
        # d_n = |X_n - X_{n-2}|_1 is at least the L1 change of either
        # marginal; it is computed exactly unless that bound proves d_n >= tol
        d = np.full(len(ns), np.inf)  # from n = lo + 2 on, X_{n-2} was read
        d[lo + 2 - n0:] = np.maximum(np.abs(rows[2:] - rows[:-2]) @ a,
                                     np.abs(cols[2:] - cols[:-2]) @ b)
        near = np.flatnonzero(d < 2.0 * rule.tol_even_odd)
        for i in range(0, near.size, step):
            n = ns[near[i:i + step]]
            x = hist.stack(np.concatenate([n - 2, n]), cells=cells).T
            d[n - n0] = np.abs(x[n.size:] - x[:n.size]).sum(axis=1)
        last = np.maximum.accumulate(np.where(d < rule.tol_even_odd, last_bad, ns))
        converged, cauchy = errors < rule.tol_marginal, ns - last >= 2 * _CAUCHY_WINDOW
        hits = np.flatnonzero(converged | cauchy | (ns >= rule.max_iters))
        errs.append(errors)
        if hits.size:
            break
        last_bad = int(last[-1])

    m = int(hits[0])
    reason = (StopReason.CONVERGED if converged[m] else StopReason.EVEN_ODD_CONVERGED
              if cauchy[m] else StopReason.ITERATION_CAP)
    hist.count = n0 + m + 1
    return IterationTrace(problem, np.concatenate(errs)[:hist.count], reason, hist)


def _slices(hist: _ScalingHistory, max_iters: int, a: np.ndarray, b: np.ndarray):
    """``(n0, n1)`` of each slice of iterates whose rules :func:`run` evaluates.

    The history advances a chunk at a time; each chunk is cut into slices of
    at most :data:`_BLOCK` floats per ratio array (or four iterates, if one
    holds more), so the rules' buffers do not grow with the chunk.  A slice
    holds a multiple of four iterates: BLAS's ``gemv`` sums the rows of one
    call in groups of four, so each iterate's error keeps the bits it has
    when its chunk is one call.  The last slice ends at the cap.
    """
    width = 4 * max(1, _BLOCK // (4 * (a.size + b.size)))
    n0, size = 0, _CHUNKS[0]
    while n0 <= max_iters:
        n1 = min(n0 + size, max_iters + 1)
        hist.advance(n1 // 2, a, b)
        for s0 in range(n0, n1, width):
            yield s0, min(s0 + width, n1)
        n0, size = n1, min(2 * size, _CHUNKS[1])


# ---------------------------------------------------------------------------
# ratio propagation


def ratio_update_matrix(x, a, b, col_tol: float = 1e-8) -> np.ndarray:
    """Stochastic matrix propagating row-ratio vectors across a double step.

    For a column-fitted ``x`` the row ratios obey
    ``rows(fit_cols(fit_rows(x,a),b))/a = P @ (rows(x)/a)`` with
    ``P(i,k) = sum_j y(i,j) y(k,j) / (a_i b_j c_j)`` where ``y = fit_rows(x, a)``
    and ``c = cols(y)/b``.  ``P`` has unit row sums by construction.  A stack
    of matrices, shape ``(..., p, q)``, gives the stack of their ``P``.

    Raises
    ------
    ValueError
        If ``col_tol`` is NaN or negative, or ``x`` is not column-fitted within it.
    """
    _check_tolerance("col_tol", col_tol)
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cols = x.sum(axis=-2) / b
    dev = float(np.abs(cols - 1.0).max())
    if dev > col_tol:
        raise ValueError(
            f"matrix is not column-fitted: max |C_j - 1| = {dev:g} > {col_tol:g}"
        )
    y = fit_rows(x, a)
    cy = y.sum(axis=-2) / b
    return (y / (b * cy)[..., None, :]) @ np.swapaxes(y, -1, -2) / a[:, None]


def ratio_update_matrices(trace: IterationTrace, start: int = 2) -> list[np.ndarray]:
    """Harvest ``P(X_n)`` for every even iterate ``n >= start``.

    The backward product of the result, applied to ``rows(X_start)/a``, walks
    the row-ratio vectors down the even subsequence.  ``start`` must be >= 0.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start!r}")
    evens = np.arange(start + start % 2, trace.n_iters + 1, 2)
    return [m for _, x in trace.stored_matrices.blocks(evens)
            for m in ratio_update_matrix(np.moveaxis(x, -1, 0), trace.problem.a, trace.problem.b)]


# ---------------------------------------------------------------------------
# trace diagnostics


@dataclass
class RateReport:
    """Per-cell geometric rate estimates fitted on a trace.

    ``rates[i,j]`` is the slope of ``ln |X_n(i,j) - L(i,j)|`` against the
    iterate index ``n`` over a tail window of one parity subsequence
    (-inf where the cell sat at its limit the whole window).
    ``r_squared`` grades the linear fit; ``converged`` flags limit-pinned
    cells; ``source`` says which parity supplied the points (0 even, 1 odd,
    -1 degenerate).
    """

    rates: np.ndarray
    r_squared: np.ndarray
    converged: np.ndarray
    source: np.ndarray
    window: tuple[int, int]


def rate_estimate(trace: IterationTrace, min_even: int = 10,
                  noise_floor: float = 1e-15) -> RateReport:
    """Fit per-cell geometric convergence rates on the tail of a trace.

    For each cell the even subsequence is compared against the final even
    iterate over the window ``[0.5*N, 0.875*N]`` (N = final even index); the
    last eighth is dropped because differences against the limit estimate
    self-cancel there.  Cells whose even subsequence is pinned at the limit
    (differences below ``noise_floor``) fall back to the odd subsequence;
    cells degenerate on both sides are flagged converged with rate ``-inf``.

    A slope near ``0`` with a poor fit is the slow-convergence signature; a
    clean negative slope is the geometric one.

    Raises
    ------
    ValueError
        If the trace holds fewer than ``min_even`` even iterates, or ``noise_floor`` is NaN or < 0.
    """
    _check_tolerance("noise_floor", noise_floor)
    n_last, _ = trace.last_even
    if n_last // 2 + 1 < min_even:
        raise ValueError(
            f"trace too short for rate fitting: {n_last // 2 + 1} stored even "
            f"iterates, need {min_even}"
        )
    p, q = trace.problem.shape
    rates = np.full((p, q), -np.inf)
    r2s = np.full((p, q), np.nan)
    source = np.full((p, q), -1, dtype=np.int8)
    undecided = np.ones((p, q), dtype=bool)

    lo, hi = 0.5 * n_last, 0.875 * n_last
    first = int(np.ceil(lo))
    for parity, limit in ((0, trace.even_limit), (1, trace.odd_limit)):
        ns = np.arange(first + (first - parity) % 2, int(hi) + 1, 2)
        if not ns.size:
            continue
        # least squares of ln|X_n - L| on n, summed over stacked blocks, with
        # n centred on the window so that the sums keep their precision
        sums, mid, limit = [0.0] * 6, (ns[0] + ns[-1]) / 2.0, limit()[:, :, None]
        for n, xs in trace.stored_matrices.blocks(ns):
            d = np.abs(np.subtract(xs, limit, out=xs), out=xs)
            w = d > noise_floor
            y = np.log(np.where(w, d, 1.0))  # 0 where the point is left out
            w, c = w.astype(float), n - mid
            block_sums = (w.sum(axis=-1), w @ c, y.sum(axis=-1),
                          w @ (c * c), y @ c, (y * y).sum(axis=-1))
            sums = [s + t for s, t in zip(sums, block_sums)]
        w, x, y, xx, xy, yy = sums
        with np.errstate(invalid="ignore", divide="ignore"):
            sxx, sxy, syy = xx - x * x / w, xy - x * y / w, yy - y * y / w
            slope = sxy / sxx
            r2 = np.where(syy == 0.0, 1.0, 1.0 - (syy - slope * sxy) / syy)
        take = undecided & (w >= 3)
        rates[take], r2s[take], source[take] = slope[take], r2[take], parity
        undecided &= ~take
    return RateReport(rates=rates, r_squared=r2s, converged=undecided,
                      source=source, window=(int(np.ceil(lo)), int(hi)))


@dataclass
class CrossRatioReport:
    """Constancy check of all fully-supported 2x2 minors along a trace.

    ``max_rel_deviation`` is the largest ``max(rho, 1/rho) - 1`` over the
    checked minors and iterates, where ``rho`` is a minor's cross ratio over
    its value at ``X_0``.  It agrees with the largest ``|rho - 1|`` to first
    order: exactly, it is at least that value ``d`` and at most ``d / (1 - d)``.
    """

    ok: bool
    max_rel_deviation: float
    n_minors: int
    n_skipped: int


def cross_ratio_check(trace: IterationTrace, rel_tol: float = 1e-10) -> CrossRatioReport:
    """Verify the cross ratios of supported 2x2 minors stay constant.

    For every pair of rows ``i < i'`` and columns ``j < j'`` whose four cells
    all lie in the seed's support, the quantity
    ``X(i,j) X(i',j') / (X(i,j') X(i',j))`` is invariant under row and column
    scaling, hence constant along the whole trace.  Minors touching a zero
    cell are skipped; so is, iterate by iterate, a minor with a cell below
    the smallest normal float, where a dying cell has underflowed.

    No minor is listed.  Over the columns ``j`` that rows ``i`` and ``i'``
    share, ``S_j = (X(i,j)/X(i',j)) / (X_0(i,j)/X_0(i',j))`` gives every
    minor's cross ratio over its start value as ``S_j / S_j'``, so a row
    pair's largest deviation is ``max S / min S - 1``: O(p^2 q) work per
    iterate.  The iterates are stacked in blocks on their last axis, and
    every buffer holds at most :data:`_PAIR_BLOCK` floats, or one iterate
    when that alone is more.  A NaN or negative ``rel_tol`` raises
    ``ValueError``.
    """
    _check_tolerance("rel_tol", rel_tol)
    supp = trace.problem.support
    p, q = supp.shape
    s = supp.astype(float)
    shared = (s @ s.T)[np.triu_indices(p, 1)]  # columns each row pair shares
    n_minors = int((shared * (shared - 1)).sum()) // 2
    n_all = p * (p - 1) // 2 * (q * (q - 1) // 2)
    if not n_minors:
        return CrossRatioReport(True, 0.0, 0, n_all)

    mats, tiny, on = trace.stored_matrices, np.finfo(float).tiny, supp[:, :, None]
    x0 = np.asarray(mats[0], dtype=float)[:, :, None]
    inv = np.full(x0.shape, np.nan)  # NaN drops a column from its row pairs
    np.divide(1.0, x0, out=inv, where=on & (x0 >= tiny))
    floor = np.where(on, tiny, 0.0)  # the support's underflowed cells lie below it
    n = len(mats)
    step = -(-n // -(-n * p * q // _PAIR_BLOCK))  # equal blocks of at most the budget
    y, under = np.empty((p, q, step)), np.empty((p, q, step), dtype=bool)
    # one row against all later ones always fits; more rows while the budget allows
    ratios = np.empty(max((p - 1) * q * step, min(_PAIR_BLOCK, (p - 1) ** 2 * q * step)))
    hi, lo = np.empty(ratios.size // q), np.empty(ratios.size // q)
    worst = 1.0
    xs = ((x for _, x in mats.blocks(np.arange(n), y)) if isinstance(mats, _ScalingHistory)
          else (np.moveaxis(np.array(mats[n0:n0 + step], dtype=float), 0, -1)
                for n0 in range(0, n, step)))  # copies: each block is scaled in place
    for x in xs:
        m = x.shape[2]
        low = np.less(x, floor, out=under[:, :, :m])
        x *= inv  # X_n / X_0, NaN off the support
        if low.any():
            np.copyto(x, np.nan, where=low)
        i0 = 0
        # rows i0 .. i1 - 1 against rows i0 + 1 ..; a pair repeated in a chunk, or a
        # row against itself (spread 1), moves no maximum; fmax and fmin skip NaN
        while i0 < p - 1:
            later = p - 1 - i0
            i1 = min(p - 1, i0 + ratios.size // (later * q * m))
            size = (i1 - i0) * later * m
            r = np.divide(x[i0:i1, None], x[None, i0 + 1:],
                          out=ratios[:size * q].reshape(i1 - i0, later, q, m))
            spread = np.fmax.reduce(r, axis=2, out=hi[:size].reshape(i1 - i0, later, m))
            spread /= np.fmin.reduce(r, axis=2, out=lo[:size].reshape(spread.shape))
            worst = float(np.fmax(worst, np.fmax.reduce(spread, axis=None)))
            i0 = i1
    dev = worst - 1.0
    return CrossRatioReport(dev <= rel_tol, dev, n_minors, n_all - n_minors)


def nested_ratio_intervals(trace: IterationTrace) -> np.ndarray:
    """The nested interval chain read off the ratio history.

    Row ``k`` is ``(n, lo, hi)`` where for odd ``n`` the interval is
    ``[1/max C(X_n), 1/min C(X_n)]`` and for even ``n >= 2`` it is
    ``[min R(X_n), max R(X_n)]``.  Successive intervals nest and every one
    contains 1; both facts are what the tests assert.  The ratios are read
    by one walk in slices of at most :data:`_BLOCK` floats, as :func:`run`
    reads them, each an even number of iterates from an odd ``n``.
    """
    n, (a, b) = trace.n_iters, (trace.problem.a, trace.problem.b)
    out = np.empty((n, 3))
    out[:, 0] = np.arange(1, n + 1)
    step = 2 * max(1, _BLOCK // (2 * sum(trace.problem.shape)))
    slices = trace.stored_matrices.ratios(1, n + 1, a, b, step)
    for n0, (r, c) in zip(range(1, n + 1, step), slices):
        o = out[n0 - 1:n0 - 1 + len(r)]
        o[0::2, 1], o[0::2, 2] = 1.0 / c[0::2].max(axis=1), 1.0 / c[0::2].min(axis=1)
        o[1::2, 1], o[1::2, 2] = r[1::2].min(axis=1), r[1::2].max(axis=1)
    return out


def escape_diagnostic(trace: IterationTrace, cells) -> list[dict]:
    """Soft unboundedness diagnostic for cells squeezed out of the support.

    For a cell ``(i, j)`` the entry obeys ``X_n(i,j) = X_0(i,j) / (R_i(X_0)
    C_j(X_1) R_i(X_2) ...)``, so it dies exactly when the running log-sum
    ``sum ln R_i(X_even) + ln C_j(X_odd) = ln X_0(i,j) - ln X_n(i,j)``, read
    from the scalings, grows without bound.  Unboundedness cannot be certified
    from a finite trace; this reports the final partial sum and whether the
    last third was still increasing, and asserts nothing.
    """
    i, j = np.array([(int(i), int(j)) for i, j in cells], dtype=int).reshape(-1, 2).T
    n = trace.n_iters
    final, first = (0.0 - trace.stored_matrices.log_scaling(k, i, j)  # -0.0 would print
                    for k in (n, max(0, n - max(2, n // 3)) + 1 if n else 0))
    return [{"cell": (int(i[k]), int(j[k])), "final_log_sum": float(final[k]),
             "still_growing": bool(final[k] > first[k])} for k in range(i.size)]

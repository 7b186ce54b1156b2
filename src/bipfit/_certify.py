"""Certificate rules, each stated once with its one tolerance.

``structure`` checks what it computes by these rules, and ``io.verify_report``
what each section of a report claims, none by the code that wrote it.  A
rule takes plain arrays (index sets as integer sequences, verdicts, cause
kinds and stop reasons as their string values) and raises
:class:`InternalCheckError` naming what failed.  Numpy only: this module
imports neither the engine nor the structure layer it checks.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalCheckError

#: |a(A) - b(B^c)| <= CRIT_TOL * max(1, a(A)): a critical block, not an incompatibility.
CRIT_TOL = 1e-12

#: How closely a witness, or a flow bounding the cause ratio, meets its line sums.
WITNESS_TOL = 1e-10

#: Largest deviation of a limit's row or column sums from its marginals.
LIMIT_TOL = 1e-8

#: Largest log residual of a limit from the form ``D1 X0 D2`` on ``sigma``.
SCALING_TOL = 1e-9


def _fail(message: str):
    raise InternalCheckError(message)


def agrees(got: float, want: float) -> bool:
    """A stated float against its recomputed value (equal infinities agree)."""
    return got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))


def tight(mass: float, other: float) -> bool:
    """Whether a zero block with ``a(A) = mass`` and ``b(B^c) = other`` is critical."""
    return abs(mass - other) <= CRIT_TOL * max(1.0, mass)


def cause(a, b, supp, rows, cols, kind: str, ratio: float) -> None:
    """A zero block ``rows x cols`` of ``supp`` whose ``ratio`` is ``a(A)/b(B^c)``;
    an ``"Incompatibility"`` over-demands, a ``"Criticality"`` is tight."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    if rows.size == 0 or cols.size == 0:
        _fail("cause has an empty row or column set")
    if supp[np.ix_(rows, cols)].any():
        _fail("cause block is not a zero block of the seed")
    a_rows, b_comp, want = _block_sums(a, b, rows, cols)
    if not agrees(ratio, want):
        _fail(f"cause ratio is {ratio!r}, recomputed {want!r}")
    if kind == "Incompatibility" and (a_rows <= b_comp or tight(a_rows, b_comp)):
        _fail("incompatibility cause does not over-demand")
    if kind == "Criticality" and not tight(a_rows, b_comp):
        _fail("criticality cause is not tight")


def _block_sums(a, b, rows, cols) -> tuple[float, float, float]:
    """``a(A)``, ``b(B^c)`` and their ratio (inf when ``b(B^c)`` is 0) of ``rows x cols``."""
    a_rows, b_comp = float(a[rows].sum()), float(np.delete(b, cols).sum())
    return a_rows, b_comp, a_rows / b_comp if b_comp > 0 else float("inf")


def witness(a, b, supp, w) -> None:
    """A nonnegative matrix inside ``supp`` with marginals ``(a, b)``."""
    if not (np.abs(w.sum(axis=1) - a).max() <= WITNESS_TOL
            and np.abs(w.sum(axis=0) - b).max() <= WITNESS_TOL):
        _fail("witness does not have the target marginals")
    if not w.min() >= -1e-15:
        _fail("witness has a negative entry")
    if ((w > 0) & ~supp).any():
        _fail("witness puts mass outside the seed support")


def ratio_bound(a, b, supp, f, lam: float, ratio: float) -> None:
    """A cause of ratio ``ratio`` is the strongest: ``ratio`` is ``lam`` up to
    a relative 1e-9, and the flow ``f`` inside ``supp``, with row sums ``a``
    and column sums at most ``lam * b``, shows ``a(A) <= lam * b(N(A))`` for
    every row set ``A``."""
    f = np.where(supp, f, 0.0)
    if not (f.min() >= -1e-15 and np.abs(f.sum(axis=1) - a).max() <= WITNESS_TOL
            and (f.sum(axis=0) - lam * b).max() <= WITNESS_TOL):
        _fail(f"flow fails to certify that no cause beats ratio {lam!r}")
    if not abs(ratio - lam) <= 1e-9 * lam:
        _fail(f"strongest cause has ratio {ratio!r}, not the bound {lam!r}")


def support_mask(mask, supp, label: str) -> None:
    """A maximal support or ``sigma``: inside ``supp``, no empty row or column."""
    if (mask & ~supp).any():
        _fail(f"{label} lies outside the seed support")
    if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
        _fail(f"{label} has an empty row or column")


def classification(a, b, supp, behavior: str, causes, w, max_support) -> None:
    """The verdict against its ``(rows, cols, kind, ratio)`` causes, witness
    and maximal support: a divergence needs an incompatibility cause and no
    maximal support, a convergence a witness and a maximal support, equal to
    ``supp`` exactly when it is fast."""
    for each in causes:
        cause(a, b, supp, *each)
    if w is not None:
        witness(a, b, supp, w)
    if behavior == "Divergence":
        if not any(kind == "Incompatibility" for _, _, kind, _ in causes):
            _fail("Divergence verdict has no incompatibility cause")
        if max_support is not None:
            _fail("Divergence verdict has a maximal support")
        return
    if w is None:
        _fail(f"{behavior} verdict has no witness")
    support_mask(max_support, supp, "maximal support")
    if np.array_equal(max_support, supp) != (behavior == "FastConvergence"):
        _fail(f"{behavior} verdict disagrees with its maximal support")


def blocks(a, b, supp, lambdas, row_blocks, col_blocks, a_prime, b_prime) -> None:
    """Block scalings with the row and column partitions they go with, the
    :func:`block_order`, and the adjusted marginals."""
    if not (np.isfinite(lambdas) & (lambdas > 0)).all():
        _fail("block scalings are not finite and positive")
    for blks, size, label in ((row_blocks, a.size, "row"), (col_blocks, b.size, "column")):
        if (len(blks) != lambdas.size or not all(len(blk) for blk in blks)
                or sorted(int(i) for blk in blks for i in blk) != list(range(size))):
            _fail(f"{label} blocks do not partition the {label}s, one block per lambda")
    block_order(supp, lambdas, row_blocks, col_blocks)
    for lam, I, J in zip(lambdas, row_blocks, col_blocks):
        if not np.abs(a_prime[list(I)] - lam * a[list(I)]).max() <= 1e-10:
            _fail("a' is inconsistent with its lambdas")
        if not np.abs(b_prime[list(J)] - b[list(J)] / lam).max() <= 1e-10:
            _fail("b' is inconsistent with its lambdas")


def block_order(supp, lambdas, row_blocks, col_blocks) -> None:
    """Block scalings strictly increasing, and the seed lower block triangular
    in block order: no support in ``I_k x J_l`` for ``k < l``."""
    if (lambdas[1:] - lambdas[:-1] <= 1e-10 * lambdas[:-1]).any():
        _fail("block scalings are not strictly increasing")
    for k in range(len(row_blocks)):
        for k2 in range(k + 1, len(col_blocks)):
            if supp[np.ix_(row_blocks[k], col_blocks[k2])].any():
                _fail(f"seed is not lower block triangular: support in I_{k} x J_{k2}")


def limits(a, b, sigma, a_prime, b_prime, even, odd) -> None:
    """Both limits zero off ``sigma``, the even one positive on it, with
    marginals ``(a', b)`` and ``(a, b')``; a NaN cell is left to
    :func:`scaling_form`."""
    if even[~sigma].any() or odd[~sigma].any():
        _fail("limits put mass outside sigma")
    if ((even > 0) != sigma).any():
        _fail("even limit's support is not sigma")
    for dev, label in (
        (np.abs(even.sum(axis=1) - a_prime).max(), "even limit rows vs a'"),
        (np.abs(even.sum(axis=0) - b).max(), "even limit cols vs b"),
        (np.abs(odd.sum(axis=1) - a).max(), "odd limit rows vs a"),
        (np.abs(odd.sum(axis=0) - b_prime).max(), "odd limit cols vs b'"),
    ):
        if dev > LIMIT_TOL:
            _fail(f"{label} deviate by {dev:g}")


def scaling_form(x0, sigma, even, odd) -> None:
    """Both limits are ``D1 X0 D2`` on ``sigma``, to ``SCALING_TOL`` in log space."""
    for key, limit in (("even", even), ("odd", odd)):
        dev = _log_scaling_residual(limit, x0, sigma)
        if not dev <= SCALING_TOL:
            _fail(f"{key} limit is not a scaling of the seed on sigma: log residual {dev:g}")


def _log_scaling_residual(limit: np.ndarray, x0: np.ndarray, sigma: np.ndarray) -> float:
    """Largest ``|ln L - ln X0 - alpha_i - beta_j|`` over the cells of ``sigma``,
    0 exactly when ``L = diag(e^alpha) X0 diag(e^beta)`` there.  ``alpha`` and
    ``beta`` are fitted on a breadth-first spanning forest of ``sigma``, so a
    cell off it gets its cycle's error.  Cells below the smallest normal
    float are left out; a NaN gives NaN."""
    tiny = np.finfo(float).tiny
    r, c = np.nonzero(sigma & ~(limit < tiny) & ~(x0 < tiny))
    y = np.log(limit[r, c]) - np.log(x0[r, c])
    p, pot = sigma.shape[0], np.zeros(sum(sigma.shape))  # alpha, then beta
    seen = np.zeros(pot.size, dtype=bool)  # not pot's NaNs: a NaN cell must not revisit
    # node i < p is row i, node p + j column j; every cell is an edge both ways
    src, dst = np.concatenate([r, p + c]), np.concatenate([p + c, r])
    order = np.argsort(src, kind="stable")
    first = np.searchsorted(src[order], np.arange(pot.size + 1))
    nbr, weight = dst[order], np.concatenate([y, y])[order]
    for root in range(pot.size):
        if seen[root]:
            continue
        seen[root], queue = True, [root]
        for node in queue:  # alpha_i + beta_j = y on the forest's edges
            ends, w = nbr[first[node]:first[node + 1]], weight[first[node]:first[node + 1]]
            new = ~seen[ends]
            seen[ends[new]] = True
            pot[ends[new]] = w[new] - pot[node]
            queue += ends[new].tolist()
    return float(np.max(np.abs(y - pot[r] - pot[p + c]), initial=0.0))


def criticality(a, b, supp, a_prime, row_blocks, col_blocks, entries) -> None:
    """One entry per cut ``k`` of the block order, keyed as in a report:
    ``rows``, the first ``k + 1`` row blocks, and ``cols``, the later column
    blocks, sorted, a zero block of ``supp``; ``a(A)/b(B^c)``, ``a'(A)`` and
    ``b(B^c)``; and the :func:`tight` test of ``a'(A)`` against ``b(B^c)``, which holds."""
    if len(entries) != len(row_blocks) - 1:
        _fail(f"criticality_under_adjusted: expected {len(row_blocks) - 1} entries, "
              f"one per cut, got {len(entries)}")
    for k, entry in enumerate(entries):
        rows = sorted(int(i) for blk in row_blocks[:k + 1] for i in blk)
        cols = sorted(int(j) for blk in col_blocks[k + 1:] for j in blk)
        _, b_comp, ratio = _block_sums(a, b, rows, cols)
        adjusted = float(a_prime[rows].sum())
        for key, want in (("rows", rows), ("cols", cols), ("original_ratio", ratio),
                          ("adjusted_rows_mass", adjusted), ("complement_cols_mass", b_comp),
                          ("is_critical_under_adjusted", tight(adjusted, b_comp))):
            got = entry[key]
            if not (agrees(got, want) if type(want) is float else type(got) is type(want)
                    and got == want):
                _fail(f"criticality entry {k}: {key} is {got!r}, recomputed {want!r}")
        if supp[np.ix_(rows, cols)].any():
            _fail(f"criticality entry {k}: not a zero block of the seed")
        if not tight(adjusted, b_comp):
            _fail(f"criticality entry {k}: not tight under the adjusted marginals")


def engine(a, b, supp, even, estimate, iterations: int, agreement: float, final: float,
           reason: str, max_iters: int, tol: float) -> None:
    """An engine run's summary against the run's ``max_iters`` and
    ``tol_marginal``: ``Converged`` exactly below ``tol``, ``IterationCap``
    only at ``max_iters``, never past it.  The even-limit estimate lies in
    ``supp``, is column-fitted from iteration 2 on, is ``agreement`` from
    ``even`` in L1, and at an even count (the final iterate) has L1 marginal
    error ``final``."""
    if iterations > max_iters:
        _fail(f"engine ran {iterations} iterations, more than max_iters {max_iters}")
    if (reason == "Converged") != (final < tol):
        _fail(f"stop reason {reason} disagrees with final marginal error {final!r} "
              f"against tol_marginal {tol!r}")
    if reason == "IterationCap" and iterations != max_iters:
        _fail(f"stop reason IterationCap at {iterations} iterations, "
              f"not at max_iters {max_iters}")
    if estimate[~supp].any():
        _fail("even-limit estimate puts mass outside the seed support")
    dev = np.abs(estimate.sum(axis=0) - b).max()
    if iterations >= 2 and not dev <= 1e-8:
        _fail(f"even-limit estimate is not column-fitted: columns vs b deviate by {dev:g}")
    l1 = float(np.abs(estimate - even).sum())
    if not agrees(agreement, l1):
        _fail(f"agreement_even_l1 is {agreement!r}, recomputed {l1!r}")
    if iterations % 2 == 0:  # the estimate is the final iterate
        error = float(np.abs(estimate.sum(axis=1) - a).sum()
                      + np.abs(estimate.sum(axis=0) - b).sum())
        if not abs(final - error) <= 1e-12 + 1e-9 * error:
            _fail(f"final_marginal_error is {final!r}, recomputed {error!r} "
                  "from the even-limit estimate")


def escaped_cells(x0, supp, sigma, estimate, iterations: int, cells, log_sums) -> None:
    """``cells`` are the seed support outside ``sigma``, in order.  At an even
    count, where the estimate is the final iterate ``X_n``, each cell's log-sum
    is ``ln X0 - ln X_n`` within ``1e-9·max(1, |value|)`` if ``X_n`` is a normal float."""
    if cells != np.argwhere(supp & ~sigma).tolist():
        _fail("escaped cells are not the seed support outside sigma, in order")
    i, j = np.array(cells, dtype=int).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.log(x0[i, j]) - np.log(estimate[i, j])
    bad = ~(np.abs(log_sums - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    bad &= (estimate[i, j] >= np.finfo(float).tiny) & (iterations % 2 == 0)
    for k in np.flatnonzero(bad)[:1].tolist():
        _fail(f"escaped cell {k}: final_log_sum is {float(log_sums[k])!r}, "
              f"recomputed {float(want[k])!r} from the even-limit estimate")

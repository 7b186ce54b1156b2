"""Core types and elementary operations for biproportional matrix fitting.

Everything in this module works on dense float64 numpy arrays.  A fitting
problem consists of a nonnegative seed matrix ``x0`` (p x q, with p, q >= 2
and no zero row or column) together with strictly positive target marginals
``a`` (rows) and ``b`` (columns), each summing to one.  The two elementary
moves are :func:`fit_rows` (rescale every row to hit its target sum) and
:func:`fit_cols` (same for columns); the diagnostics below (marginal ratios,
L1 marginal error, KL divergence, likelihood product) are what the iteration
engine and the structure analysis are built from.

Infinities are legitimate values here, never exceptions: the KL divergence
of ``y`` from ``x`` is ``+inf`` whenever ``y`` puts mass outside the support
of ``x``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Largest tolerated deviation of a marginal vector's sum from 1.  Sums
#: within this tolerance are renormalized silently; anything further off is
#: rejected as malformed input.
SUM_TOL = 1e-9

#: Default of :func:`support_of`: entries at or below ``ZERO_TOL_FACTOR *
#: max(entry)`` count as zeros there.  A problem's support and the entropy
#: helpers read every positive entry.
ZERO_TOL_FACTOR = 1e-14


def as_marginals(values, sum_tol: float = SUM_TOL, min_size: int = 2) -> np.ndarray:
    """Validate a marginal vector: strictly positive entries, total mass 1.

    Parameters
    ----------
    values : array_like
        One-dimensional collection of at least ``min_size`` numbers.
    sum_tol : float
        Maximal tolerated deviation of ``sum(values)`` from 1.
    min_size : int
        Minimal accepted length.  Full fitting problems need two of each
        marginal, but restricted subproblems (feasibility of one block) can
        legitimately collapse to a single row or column.

    Returns
    -------
    numpy.ndarray
        Float copy of ``values``, renormalized to sum to exactly 1.

    Raises
    ------
    ValueError
        If any entry is nonpositive, fewer than ``min_size`` entries are
        given, or the sum deviates from 1 by more than ``sum_tol``.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < min_size:
        raise ValueError(
            f"marginal vector needs at least {min_size} entries, got {v.size}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("marginal vector contains non-finite entries")
    if np.any(v <= 0):
        bad = int(np.argmax(v <= 0))
        raise ValueError(
            f"marginal entry {bad} is {float(v[bad])!r}; every entry must be > 0"
        )
    total = float(v.sum())
    if abs(total - 1.0) > sum_tol:
        raise ValueError(
            f"marginal vector sums to {total!r}; deviation from 1 exceeds "
            f"sum_tol={sum_tol:g}"
        )
    return v / total


def check_matrix(x) -> np.ndarray:
    """Validate a nonnegative matrix with positive row and column sums.

    Returns a float copy.  Raises ``ValueError`` naming the violated
    condition (shape, negativity, zero row, zero column).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={x.ndim}")
    p, q = x.shape
    if p < 2 or q < 2:
        raise ValueError(f"matrix must be at least 2x2, got {p}x{q}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite entries")
    if np.any(x < 0):
        i, j = np.unravel_index(int(np.argmin(x)), x.shape)
        raise ValueError(f"matrix entry ({i},{j}) is negative: {float(x[i, j])!r}")
    positive = x > 0  # a sum could overflow; a positive entry cannot
    if not positive.any(axis=1).all():
        raise ValueError(
            f"row {int(np.argmin(positive.any(axis=1)))} has zero sum; every row "
            "needs a positive entry"
        )
    if not positive.any(axis=0).all():
        raise ValueError(
            f"column {int(np.argmin(positive.any(axis=0)))} has zero sum; every "
            "column needs a positive entry"
        )
    return x.copy()


def support_of(x, zero_tol_factor: float = ZERO_TOL_FACTOR) -> np.ndarray:
    """Boolean support pattern of ``x``: entries above the relative zero tolerance.

    The threshold is ``zero_tol_factor * max(x)`` so that a matrix of tiny
    but honest entries is not flattened to an empty pattern.
    """
    x = np.asarray(x, dtype=float)
    return x > zero_tol_factor * float(x.max())


class MarginalRatios(NamedTuple):
    """Row and column marginal ratios ``rows[i] = x(i,+)/a[i]``, ``cols[j] = x(+,j)/b[j]``."""

    rows: np.ndarray
    cols: np.ndarray


class FittingProblem:
    """A seed matrix plus target marginals, validated and normalized.

    The seed is stored rescaled to total mass 1 (the iteration is
    homogeneous in the seed, so nothing is lost); a seed whose total
    overflows is divided by its largest entry first.  ``support`` is ``x0 > 0``,
    with no threshold.  Instances are treated as immutable: the stored arrays
    are marked read-only.

    Parameters
    ----------
    x0 : array_like, shape (p, q)
        Nonnegative seed with no zero row or column, p, q >= 2.
    a : array_like, shape (p,)
        Target row sums, strictly positive, summing to 1.
    b : array_like, shape (q,)
        Target column sums, strictly positive, summing to 1.
    """

    def __init__(self, x0, a, b):
        a = as_marginals(a)
        b = as_marginals(b)
        x0 = check_matrix(x0)
        if x0.shape != (a.size, b.size):
            raise ValueError(
                f"seed shape {x0.shape} does not match marginals "
                f"({a.size} rows, {b.size} columns)"
            )
        with np.errstate(over="ignore"):
            total = x0.sum()
        if not np.isfinite(total):  # finite entries whose sum overflows
            x0 = x0 / x0.max()
            total = x0.sum()
        x0 = x0 / total
        support = x0 > 0
        for arr in (x0, a, b, support):
            arr.setflags(write=False)
        self.x0 = x0
        self.a = a
        self.b = b
        self.support = support

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p, q = self.shape
        return f"FittingProblem({p}x{q}, support={int(self.support.sum())} cells)"


def fit_rows(x, a) -> np.ndarray:
    """Rescale each row of ``x`` so its sum becomes ``a[i]``.

    Division happens row-wise by the ratio ``x(i,+)/a[i]``; zero entries stay
    exactly zero, so the support pattern is preserved bit for bit.  ``x`` may
    also be a stack of matrices, shape ``(..., p, q)``; each is fitted alike.

    Raises
    ------
    ValueError
        If a row of ``x`` sums to zero (the rescaling is undefined there).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    rows = x.sum(axis=-1)
    if np.any(rows <= 0):
        raise ValueError(
            f"row {int(np.argmax(rows <= 0)) % a.size} has zero sum; cannot fit rows"
        )
    return x * (a / rows)[..., None]


def fit_cols(x, b) -> np.ndarray:
    """Rescale each column of ``x`` so its sum becomes ``b[j]``.

    Column analogue of :func:`fit_rows`, with identical contracts.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    cols = x.sum(axis=-2)
    if np.any(cols <= 0):
        raise ValueError(
            f"column {int(np.argmax(cols <= 0)) % b.size} has zero sum; cannot fit columns"
        )
    return x * (b / cols)[..., None, :]


def marginal_ratios(x, a, b) -> MarginalRatios:
    """Row and column sums of ``x`` divided by their targets."""
    x = np.asarray(x, dtype=float)
    return MarginalRatios(
        rows=x.sum(axis=1) / np.asarray(a, dtype=float),
        cols=x.sum(axis=0) / np.asarray(b, dtype=float),
    )


def marginal_error(x, a, b) -> float:
    """L1 distance of the marginals of ``x`` from the targets.

    ``sum_i |x(i,+) - a_i| + sum_j |x(+,j) - b_j|``.  Zero exactly on the
    fitted set; along the iteration this quantity never increases.
    """
    x = np.asarray(x, dtype=float)
    return float(
        np.abs(x.sum(axis=1) - np.asarray(a, float)).sum()
        + np.abs(x.sum(axis=0) - np.asarray(b, float)).sum()
    )


def _check_tolerance(name: str, value: float) -> None:
    """Reject a NaN or negative tolerance: every comparison with NaN is False."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _check_mass_one(x, name: str, tol: float = 1e-8) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    total = float(x.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"{name} must have total mass 1, got {total!r}")
    return x


def kl_divergence(y, x) -> float:
    """Kullback-Leibler divergence ``D(y || x)`` of two mass-1 matrices.

    ``sum y(i,j) * ln(y(i,j)/x(i,j))`` with the conventions ``0*ln(0) = 0``
    and result ``+inf`` when ``y`` puts mass where ``x`` has none.  ``+inf``
    is an ordinary return value, not an error.  The result is nonnegative
    and equals 0 exactly when ``y == x``.
    """
    y = _check_mass_one(y, "y")
    x = _check_mass_one(x, "x")
    if y.shape != x.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {x.shape}")
    sy, sx = y > 0, x > 0
    if np.any(sy & ~sx):
        return float("inf")
    val = float(np.sum(y[sy] * (np.log(y[sy]) - np.log(x[sy]))))
    if -1e-12 < val < 0.0:
        # mathematically >= 0; swallow rounding dust only
        val = 0.0
    return val


def likelihood_product(weights, x) -> float:
    """``prod x(i,j) ** weights(i,j)`` with the convention ``0 ** 0 = 1``.

    For a mass-1 weight pattern ``s`` this is the exponentiated negative
    cross-entropy; ``ln(likelihood_product(s, s) / likelihood_product(s, x))``
    recovers ``kl_divergence(s, x)`` whenever the supports nest.  Returns 0.0
    when ``x`` vanishes somewhere the weights do not.
    """
    w = _check_mass_one(weights, "weights")
    x = np.asarray(x, dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {x.shape}")
    sw = w > 0
    if np.any(sw & ~(x > 0)):
        return 0.0
    return float(np.exp(np.sum(w[sw] * np.log(x[sw]))))

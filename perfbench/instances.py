"""Seeded instance generators for the bipfit benchmark.

Every generated problem carries the answer the benchmark expects, derived
from how the instance was built rather than from bipfit:

* ``planted_critical`` builds a feasible seed with one critical zero block
  ``A x B`` (``a(A) == b(B^c)``), so the verdict is ``SlowConvergence`` and
  the maximal support is the seed support minus the cells ``A^c x B^c``.
* ``divergent`` builds a lower-block-triangular seed whose block scalings
  ``lambda_k = b(J_k) / a(I_k)`` strictly increase, so the verdict is
  ``Divergence`` and the block structure is the planted one.
* ``dense`` builds a fully supported seed, whose verdict is
  ``FastConvergence``.

All marginals are integers over a power of two.  Every partial sum of such
numbers is exact in binary floating point, so the tight equality of a
critical block holds exactly and no verdict depends on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Marginal denominator: every a_i and b_j is an integer over this power of two.
DENOM = 1 << 24


@dataclass
class Instance:
    """A generated problem plus the structure it was built with."""

    name: str
    x0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    behavior: str
    #: ``SlowConvergence``: the cells forced to zero (``A^c x B^c`` in the seed).
    forced_zero: np.ndarray | None = None
    #: ``Divergence``: planted row and column blocks and their scalings.
    row_blocks: tuple[tuple[int, ...], ...] = ()
    col_blocks: tuple[tuple[int, ...], ...] = ()
    lambdas: np.ndarray | None = None
    #: Common limit support, where the planted structure does not imply it.
    sigma_given: np.ndarray | None = None

    @property
    def support(self) -> np.ndarray:
        return self.x0 > 0

    @property
    def sigma(self) -> np.ndarray:
        """Expected maximal support (feasible) or common limit support (divergent)."""
        if self.sigma_given is not None:
            return self.sigma_given
        if self.forced_zero is not None:
            return self.support & ~self.forced_zero
        if self.row_blocks:  # dense diagonal blocks stay, everything below dies
            out = np.zeros_like(self.support)
            for rows, cols in zip(self.row_blocks, self.col_blocks):
                out[np.ix_(rows, cols)] = self.support[np.ix_(rows, cols)]
            return out
        return self.support

    def adjusted(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjusted marginals ``(a', b')``: block ``k`` scaled by ``lambda_k``."""
        a_prime, b_prime = self.a.copy(), self.b.copy()
        for lam, rows, cols in zip(self.lambdas if self.row_blocks else (),
                                   self.row_blocks, self.col_blocks):
            a_prime[list(rows)] *= lam
            b_prime[list(cols)] /= lam
        return a_prime, b_prime

    def problem_json(self) -> dict:
        return {"name": self.name, "a": self.a.tolist(), "b": self.b.tolist(),
                "X0": self.x0.tolist()}


def _split(rng, total: int, parts: int) -> np.ndarray:
    """``parts`` positive integers summing to ``total``, in random proportions."""
    w = rng.uniform(0.5, 1.5, size=parts)
    out = np.maximum(1, np.floor(w / w.sum() * total)).astype(np.int64)
    out[int(rng.integers(parts))] += total - int(out.sum())
    if out.min() < 1:
        raise ValueError("split produced a nonpositive part")
    return out


def _seed_values(rng, mask) -> np.ndarray:
    return np.where(mask, rng.uniform(0.5, 2.0, size=mask.shape), 0.0)


def _sparse_cover(rng, rows: int, cols: int, density: float | None) -> np.ndarray:
    """Boolean ``rows x cols`` pattern with no empty row or column."""
    if density is None:
        return np.ones((rows, cols), dtype=bool)
    mask = rng.random((rows, cols)) < density
    mask[np.arange(rows), rng.integers(0, cols, size=rows)] = True
    mask[rng.integers(0, rows, size=cols), np.arange(cols)] = True
    return mask


def planted_critical(rng, name: str, p: int, q: int,
                     density: float | None = None) -> Instance:
    """Feasible seed with one critical zero block; converges at rate ``1/n``.

    Rows split into ``A`` and ``A^c``, columns into ``B`` and ``B^c``.  The
    seed is zero on ``A x B`` and positive on some cells of every other
    quadrant.  A strictly positive integer witness ``W`` lives on
    ``A x B^c`` and ``A^c x B``; the marginals are its row and column sums,
    so ``a(A) = W(A, B^c) = b(B^c)`` exactly.  Every witness cell carries
    mass, hence stays in the maximal support; the seed cells in
    ``A^c x B^c`` are forced to zero.
    """
    rows = rng.permutation(p)
    cols = rng.permutation(q)
    A, Ac = rows[: p // 2], rows[p // 2:]
    B, Bc = cols[: q // 2], cols[q // 2:]
    w_mask = np.zeros((p, q), dtype=bool)
    w_mask[np.ix_(A, Bc)] = _sparse_cover(rng, A.size, Bc.size, density)
    w_mask[np.ix_(Ac, B)] = _sparse_cover(rng, Ac.size, B.size, density)
    forced = np.zeros((p, q), dtype=bool)
    forced[np.ix_(Ac, Bc)] = _sparse_cover(rng, Ac.size, Bc.size, density)

    cells = np.argwhere(w_mask)
    w = np.zeros((p, q), dtype=np.int64)
    w[w_mask] = rng.integers(1, 9, size=len(cells))
    scale = DENOM // int(w.sum())
    if scale < 1:
        raise ValueError("instance too large for the marginal denominator")
    w *= scale
    pad = DENOM - int(w.sum())
    w[cells[:, 0], cells[:, 1]] += rng.multinomial(pad, np.full(len(cells), 1 / len(cells)))
    return Instance(
        name=name,
        x0=_seed_values(rng, w_mask | forced),
        a=w.sum(axis=1) / DENOM,
        b=w.sum(axis=0) / DENOM,
        behavior="SlowConvergence",
        forced_zero=forced,
    )


def divergent(rng, name: str, p: int, q: int, blocks: int = 3) -> Instance:
    """Infeasible lower-block-triangular seed with strictly increasing ``lambda_k``.

    Row blocks ``I_k`` and column blocks ``J_k`` are near-equal in size and
    contiguous after a random relabelling.  The seed is dense on
    ``I_k x J_k'`` for ``k' <= k`` and zero above the block diagonal.  Block masses are chosen so that
    ``lambda_1 < ... < lambda_(r-1) < 1 < lambda_r``; with dense blocks the
    ratio-maximising cause at every peeling step is the next planted block,
    so the block structure is exactly the planted one.
    """
    if min(p, q) < 2 * blocks:
        raise ValueError(f"need at least {2 * blocks} rows and columns")
    # Block sizes, block masses and scalings vary little between seeds, so
    # that every seed asks for about the same work (enumeration sizes,
    # iterations to the even/odd stop); the seed picks the labelling, the
    # per-line marginals and the seed values.
    row_cut = np.linspace(0, p, blocks + 1).round().astype(int)
    col_cut = np.linspace(0, q, blocks + 1).round().astype(int)
    row_perm, col_perm = rng.permutation(p), rng.permutation(q)
    row_blocks = [np.sort(row_perm[row_cut[k]:row_cut[k + 1]]) for k in range(blocks)]
    col_blocks = [np.sort(col_perm[col_cut[k]:col_cut[k + 1]]) for k in range(blocks)]

    # row-block masses in units of 1/DENOM, and lambda_k for k < r spread
    # over [0.25, 0.9]; the last lambda exceeds 1 because the column masses
    # also sum to DENOM.
    alpha = np.full(blocks, DENOM // blocks, dtype=np.int64)
    alpha[-1] += DENOM - int(alpha.sum())
    lam = (0.25 + 0.65 * (np.arange(blocks - 1) + 0.5) / (blocks - 1)) \
        * rng.uniform(0.98, 1.02, size=blocks - 1)
    beta = np.empty(blocks, dtype=np.int64)
    beta[:-1] = np.round(lam * alpha[:-1]).astype(np.int64)
    beta[-1] = DENOM - int(beta[:-1].sum())
    lambdas = beta / alpha

    a_int = np.zeros(p, dtype=np.int64)
    b_int = np.zeros(q, dtype=np.int64)
    mask = np.zeros((p, q), dtype=bool)
    for k in range(blocks):
        a_int[row_blocks[k]] = _split(rng, int(alpha[k]), row_blocks[k].size)
        b_int[col_blocks[k]] = _split(rng, int(beta[k]), col_blocks[k].size)
        for k2 in range(k + 1):
            mask[np.ix_(row_blocks[k], col_blocks[k2])] = True
    return Instance(
        name=name,
        x0=_seed_values(rng, mask),
        a=a_int / DENOM,
        b=b_int / DENOM,
        behavior="Divergence",
        row_blocks=tuple(tuple(int(i) for i in blk) for blk in row_blocks),
        col_blocks=tuple(tuple(int(j) for j in blk) for blk in col_blocks),
        lambdas=lambdas,
    )


def dense(rng, name: str, p: int, q: int) -> Instance:
    """Fully supported seed with random dyadic marginals; converges geometrically."""
    return Instance(
        name=name,
        x0=rng.uniform(0.5, 2.0, size=(p, q)),
        a=_split(rng, DENOM, p) / DENOM,
        b=_split(rng, DENOM, q) / DENOM,
        behavior="FastConvergence",
    )


def slow_2x2() -> Instance:
    """The bundled ``slow-2x2`` instance: cell (0, 0) dies at rate ``1/n``."""
    return Instance(
        name="slow-2x2",
        x0=np.array([[1.0, 1.0], [1.0, 0.0]]),
        a=np.array([0.5, 0.5]),
        b=np.array([0.5, 0.5]),
        behavior="SlowConvergence",
        forced_zero=np.array([[True, False], [False, False]]),
    )


def example_5x6() -> Instance:
    """The bundled ``example-5x6`` instance, with its blocks worked out by hand.

    Rows {0, 1} reach only columns {0, 1, 2} (lambda = 0.2 / 0.5), row 2
    reaches column 3 beyond those (0.2 / 0.25), rows {3, 4} take the rest
    (0.6 / 0.25).  Under ``a' = (.1, .1, .2, .36, .24)`` row 0 must fill
    columns 0 and 1 exactly, so cell (1, 1) leaves the limit support too.
    """
    sigma = np.zeros((5, 6), dtype=bool)
    for cell in ((0, 0), (0, 1), (1, 2), (2, 3), (3, 5), (4, 4), (4, 5)):
        sigma[cell] = True
    return Instance(
        name="example-5x6",
        x0=np.array([
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 0, 1],
            [1, 0, 1, 1, 1, 1],
        ], dtype=float),
        a=np.array([0.25, 0.25, 0.25, 0.15, 0.1]),
        b=np.array([0.05, 0.05, 0.1, 0.2, 0.2, 0.4]),
        behavior="Divergence",
        row_blocks=((0, 1), (2,), (3, 4)),
        col_blocks=((0, 1, 2), (3,), (4, 5)),
        lambdas=np.array([0.4, 0.8, 2.4]),
        sigma_given=sigma,
    )


def ratio_bounded_sequence(rng, count: int, d: int = 3, gamma: float = 0.2,
                           rho: float = 5.0) -> np.ndarray:
    """``count`` stochastic ``d x d`` factors with diagonal >= gamma, ratios <= rho.

    Row-normalising a symmetric matrix with entries in ``[1/rho, 1]`` makes
    every ratio ``M(i,j)/M(j,i)`` a quotient of two row sums, hence at most
    ``rho``; mixing in ``gamma * I`` adds the diagonal floor.
    """
    w = rng.uniform(1.0 / rho, 1.0, size=(count, d, d))
    w = (w + np.swapaxes(w, 1, 2)) / 2
    m = w / w.sum(axis=2, keepdims=True)
    return gamma * np.eye(d) + (1 - gamma) * m

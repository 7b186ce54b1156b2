"""Output checks for benchmark jobs, written against the generated instances.

Nothing here calls back into bipfit: every expectation comes from how the
instance was built (see ``instances.py``) or from a direct numpy
recomputation.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerances: rounding-level agreement, and the looser one limits are held to.
TIGHT = 1e-12
LIMIT_TOL = 1e-8


class CheckFailed(Exception):
    """A job's output contradicts what the benchmark expects."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def matrix(values) -> np.ndarray:
    """A matrix as the CLI writes it (non-finite floats are strings)."""
    return np.array([[float(v) for v in row] for row in values], dtype=float)


def mask(values) -> np.ndarray:
    return np.array(values, dtype=bool)


def _dev(x, y) -> float:
    return float(np.abs(np.asarray(x, float) - np.asarray(y, float)).max())


def marginals(x, rows, cols, tol: float, label: str) -> None:
    x = np.asarray(x, float)
    expect(_dev(x.sum(axis=1), rows) <= tol,
           f"{label}: row sums off by {_dev(x.sum(axis=1), rows):.3g}")
    expect(_dev(x.sum(axis=0), cols) <= tol,
           f"{label}: column sums off by {_dev(x.sum(axis=0), cols):.3g}")


def witness(values, inst) -> None:
    """A feasibility witness: nonnegative, inside the seed support, target marginals."""
    expect(values is not None, "feasible verdict without a witness")
    w = matrix(values)
    expect(w.shape == inst.x0.shape, f"witness shape {w.shape}")
    expect(w.min() >= -1e-15, "witness has negative entries")
    expect(not np.any((w > 0) & ~inst.support), "witness leaves the seed support")
    marginals(w, inst.a, inst.b, 1e-9, "witness")


def cause(c, inst) -> None:
    """A cause of infeasibility: a zero block ``A x B`` with ``a(A) > b(B^c)``."""
    rows = np.asarray(c["rows"], dtype=int)
    cols = np.asarray(c["cols"], dtype=int)
    expect(rows.size and cols.size, "cause with an empty side")
    expect(not inst.support[np.ix_(rows, cols)].any(), "cause is not a zero block")
    b_comp = float(np.delete(inst.b, cols).sum())
    expect(float(inst.a[rows].sum()) > b_comp, "cause does not over-demand")
    if inst.row_blocks:
        # the ratio-maximising cause is the first planted block against the
        # columns of all later blocks
        later = sorted(j for blk in inst.col_blocks[1:] for j in blk)
        expect(tuple(rows) == inst.row_blocks[0] and list(cols) == later,
               f"cause {tuple(rows)} x {tuple(cols)} is not the planted first block")


def classification(out, inst) -> None:
    expect(out["behavior"] == inst.behavior,
           f"verdict {out['behavior']}, expected {inst.behavior}")
    if inst.behavior == "Divergence":
        expect(len(out["causes"]) == 1, "divergence without exactly one cause")
        cause(out["causes"][0], inst)
        expect(out["witness"] is None, "divergence with a witness")
    else:
        witness(out["witness"], inst)
        expect(np.array_equal(mask(out["max_support"]), inst.sigma),
               "maximal support differs from the planted one")


def fit(out, inst, iterations=None, stop_reason=None) -> None:
    """``final`` matches the parity of the reported iteration and its error."""
    if stop_reason is not None:
        expect(out["stop_reason"] == stop_reason,
               f"stop reason {out['stop_reason']}, expected {stop_reason}")
    n = int(out["iterations"])
    if iterations is not None:
        expect(n == iterations, f"{n} iterations, expected {iterations}")
    final = matrix(out["final"])
    expect(not np.any((final > 0) & ~inst.support), "final leaves the seed support")
    rows, cols = final.sum(axis=1), final.sum(axis=0)
    if n % 2:
        expect(_dev(rows, inst.a) <= TIGHT,
               f"final of odd iteration {n} is not row-fitted")
    elif n:
        expect(_dev(cols, inst.b) <= TIGHT,
               f"final of even iteration {n} is not column-fitted")
    err = float(np.abs(rows - inst.a).sum() + np.abs(cols - inst.b).sum())
    reported = float(out["final_marginal_error"])
    expect(abs(err - reported) <= TIGHT + 1e-9 * reported,
           f"final's marginal error {err:.6g} != reported {reported:.6g}")


def _limits(report, inst, a_prime, b_prime) -> None:
    even = matrix(report["limits"]["even"])
    odd = matrix(report["limits"]["odd"])
    marginals(even, a_prime, inst.b, LIMIT_TOL, "even limit")
    marginals(odd, inst.a, b_prime, LIMIT_TOL, "odd limit")
    expect(np.array_equal(even > 0, inst.sigma), "even limit support is not sigma")


def analysis(report, inst, stop_reason) -> None:
    """Full report: verdict, blocks and scalings, sigma, limits, escapes."""
    classification(report["classification"], inst)
    bs = report["block_structure"]
    lambdas = np.asarray([float(v) for v in bs["lambdas"]])
    if inst.behavior == "Divergence":
        expect(tuple(map(tuple, bs["row_blocks"])) == inst.row_blocks,
               "row blocks differ from the planted ones")
        expect(tuple(map(tuple, bs["col_blocks"])) == inst.col_blocks,
               "column blocks differ from the planted ones")
        expect(np.all(np.diff(lambdas) > 0), "lambdas not strictly increasing")
        expect(_dev(lambdas, inst.lambdas) <= TIGHT * inst.lambdas.max(),
               "lambdas differ from the planted scalings")
    else:
        expect(bs["r"] == 1 and _dev(lambdas, [1.0]) <= TIGHT,
               "feasible instance with more than one block")
    a_prime, b_prime = inst.adjusted()
    expect(_dev([float(v) for v in bs["a_prime"]], a_prime) <= TIGHT, "a' is wrong")
    expect(_dev([float(v) for v in bs["b_prime"]], b_prime) <= TIGHT * max(1, b_prime.max()),
           "b' is wrong")
    expect(np.array_equal(mask(report["sigma"]), inst.sigma), "sigma is wrong")
    _limits(report, inst, a_prime, b_prime)
    expect(report["engine"]["stop_reason"] == stop_reason,
           f"engine stop reason {report['engine']['stop_reason']}, expected {stop_reason}")
    escaped = {tuple(e["cell"]) for e in report["escaped_cells"]}
    expected = {tuple(int(v) for v in c) for c in np.argwhere(inst.support & ~inst.sigma)}
    expect(escaped == expected, "escaped cells are not the cells outside sigma")


def reduced(out, inst) -> None:
    """``reduce``: seed zeroed outside sigma, marginals ``(a', b)``."""
    a_prime, _ = inst.adjusted()
    expect(_dev([float(v) for v in out["a"]], a_prime) <= TIGHT, "reduced a is not a'")
    expect(_dev([float(v) for v in out["b"]], inst.b) == 0, "reduced b is not b")
    x0 = matrix(out["X0"])
    expect(np.array_equal(x0 > 0, inst.sigma), "reduced seed support is not sigma")
    expect(abs(float(x0.sum()) - 1.0) <= TIGHT, "reduced seed is not normalised")


def dispersion(v) -> float:
    v = np.asarray(v, float)
    return float(np.abs(v[:, None] - v[None, :]).sum())


def backward_product(ms) -> np.ndarray:
    prod = np.array(ms[0], dtype=float)
    for m in ms[1:]:
        prod = m @ prod
    return prod


def stochastic(x, label: str, doubly: bool = False) -> None:
    x = np.asarray(x, float)
    expect(x.min() >= 0, f"{label} has negative entries")
    expect(_dev(x.sum(axis=1), 1.0) <= 1e-10, f"{label} rows do not sum to 1")
    if doubly:
        expect(_dev(x.sum(axis=0), 1.0) <= 1e-10, f"{label} columns do not sum to 1")


def mr_products(out, vectors) -> None:
    """``mr`` with ``r_n = exp(-2^-n)``: the product has parameter ``e^-1``."""
    r = math.exp(-1.0)
    expected = 0.5 * np.array([[1 + r, 1 - r], [1 - r, 1 + r]])
    final = matrix(out["final_product"])
    expect(_dev(final, expected) <= 1e-12, "mr final is not (1 +- 1/e)/2")
    expect(out["converged"] is True, "mr product reported not converged")
    expect(float(out["assumptions"]["rho"]) == 1.0, "mr factors are symmetric: rho = 1")
    report = out["offdiag_report"]
    expect(len(report) == 1 and report[0]["bounded_ij"] and report[0]["bounded_ji"],
           "mr off-diagonal series must converge for the one differing pair")
    disp = [dispersion(final @ np.asarray(v, float)) for v in vectors]
    expect(_dev([float(v) for v in out["dispersion_final"]], disp) <= 1e-12,
           "tracked dispersions are wrong")


def t0t1_products(out) -> None:
    expect(out["assumptions"]["rho"] == "inf", "t0t1 must have rho = inf")
    expect(out["converged"] is False, "t0t1 products must not converge")
    expect(out["offdiag_report"] is None, "no off-diagonal report without convergence")
    stochastic(matrix(out["final_product"]), "t0t1 final")


def birkhoff_products(out, dim: int, gamma: float, vectors=()) -> None:
    final = matrix(out["final_product"])
    expect(final.shape == (dim, dim), f"final product shape {final.shape}")
    stochastic(final, "birkhoff final", doubly=True)
    expect(out["assumptions"]["doubly_stochastic"] is True, "factors are doubly stochastic")
    expect(float(out["assumptions"]["gamma"]) >= gamma - 1e-15, "diagonal floor lost")
    if vectors:  # long runs: the product has reached the uniform matrix
        expect(_dev(final, 1.0 / dim) <= 1e-9, "long birkhoff product is not uniform")
        expect(out["converged"] is True and out["offdiag_report"] == [],
               "uniform limit: converged, no differing rows")
        expect(max(float(v) for v in out["dispersion_final"]) <= 1e-8,
               "tracked vectors did not reach consensus")


def product_trace(trace, ms, vectors, gamma: float, rho: float) -> None:
    """Library ``product_run`` on a ratio-bounded sequence (criterion 7(f) shape)."""
    expect(len(trace.partial_products) == len(ms), "one partial product per factor")
    final = backward_product(ms)
    expect(_dev(trace.final, final) <= 1e-10, "final product differs from numpy's")
    expect(math.isfinite(trace.variation_sum), "variation is not summable")
    expect(trace.variations[-1] < 1e-10, "variation did not die out")
    expect(float(trace.variations[2 * len(trace.variations) // 3:].sum()) < 1e-6,
           "product did not settle over the last third")
    expect(trace.assumptions.gamma >= gamma - 1e-12, "diagonal floor lost")
    expect(trace.assumptions.rho <= rho * (1 + 1e-9), "ratio bound exceeded")
    disp = [dispersion(final @ v) for v in vectors]
    expect(_dev(trace.dispersion_history[-1], disp) <= 1e-10, "tracked dispersions are wrong")


def trace_reads(inst, trace, reads, slow: bool) -> None:
    """The four trace reads, checked from the stored iterates."""
    rates, intervals, props, cross = reads
    even_idx = [int(n) for n in trace.stored_indices if n % 2 == 0]

    expect(intervals.shape == (trace.n_iters, 3), "one ratio interval per iterate")
    lo, hi = intervals[:, 1], intervals[:, 2]
    expect(np.all(lo <= 1 + 1e-13) and np.all(hi >= 1 - 1e-13), "interval misses 1")
    expect(np.all(np.diff(lo) >= -1e-13) and np.all(np.diff(hi) <= 1e-13),
           "ratio intervals do not nest")

    expect(len(props) == len([n for n in even_idx if n >= 2]),
           "one propagation matrix per stored even iterate")
    mats = dict(zip((int(n) for n in trace.stored_indices), trace.stored_matrices))
    for n, p_n in zip((n for n in even_idx if n >= 2), props):
        stochastic(p_n, f"P(X_{n})")
        if n + 2 in mats:
            now = mats[n].sum(axis=1) / inst.a
            nxt = mats[n + 2].sum(axis=1) / inst.a
            expect(_dev(p_n @ now, nxt) <= 1e-12, f"P(X_{n}) does not propagate row ratios")

    p, q = inst.x0.shape
    s = inst.support.astype(int)
    both = s @ s.T  # columns shared by each row pair
    n_minors = int(sum(both[i, k] * (both[i, k] - 1) // 2
                       for i in range(p) for k in range(i + 1, p)))
    expect(cross.n_minors == n_minors, f"{cross.n_minors} supported minors, counted {n_minors}")
    expect(cross.n_minors + cross.n_skipped == p * (p - 1) // 2 * q * (q - 1) // 2,
           "minor count does not cover every 2x2 minor")
    expect(cross.ok and cross.max_rel_deviation <= 1e-10, "cross ratios drifted")

    expect(rates.rates.shape == (p, q), "rate report shape")
    live = ~rates.converged & inst.support
    if slow:
        # rate 1/n: fitted log-slopes of the dying cells sit just below 0
        dying = live & inst.forced_zero
        expect(dying.any(), "no dying cell got a rate")
        r = rates.rates[dying]
        expect(np.all((r < 0) & (r > -0.01)), "dying cells do not crawl at rate 1/n")
    else:
        expect(np.all(rates.rates[live] < -1e-3), "geometric run has a non-negative rate")

"""Command-line interface.

Subcommands::

    bipfit classify <problem>            three-way verdict plus certificates
    bipfit fit      <problem>            run the iteration, report the result
    bipfit analyze  <problem>            full structural report (JSON)
    bipfit reduce   <problem>            emit the restricted seed with (a', b)
    bipfit products <sequence>           backward-product run and checks

Problems are JSON files (or CSV matrices with ``--a``/``--b``); sequences
are JSON arrays of matrices or generator specs.  Exit codes: 0 success,
1 usage error or an output pipe closed early, 2 malformed input or an
input or output file that cannot be read or written, 3 a violated
internal invariant (a bug or a numerically ill-conditioned instance).
The random seed for generator specs resolves as ``--seed`` flag, then
the BIPFIT_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__, io, products, structure
from .engine import StoppingRule, run
from .errors import InputError, InternalCheckError


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


@functools.cache  # built at the first main() call, reused by every later one
def _build_parser() -> _Parser:
    parser = _Parser(prog="bipfit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"bipfit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_problem_command(name, help_text, with_rule=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="problem file (.json, or .csv with --a/--b)")
        p.add_argument("--a", dest="a", default=None,
                       help="row marginals for CSV input (comma separated)")
        p.add_argument("--b", dest="b", default=None,
                       help="column marginals for CSV input (comma separated)")
        if with_rule:
            p.add_argument("--tol", type=float, default=None,
                           help="marginal-error stopping tolerance")
            p.add_argument("--max-iters", type=int, default=None,
                           help="iteration cap")
        p.add_argument("--out", default=None, help="write the JSON result here "
                       "instead of stdout")
        return p

    add_problem_command("classify", "feasibility / convergence classification")
    p_fit = add_problem_command("fit", "run the fitting iteration", with_rule=True)
    p_fit.add_argument("--trace-out", default=None,
                       help="write the error/ratio history to this JSON file")
    add_problem_command("analyze", "full structural analysis report", with_rule=True)
    add_problem_command("reduce", "emit the seed restricted to the limit support, "
                        "with adjusted marginals")

    p_prod = sub.add_parser("products", help="backward products of a stochastic sequence")
    p_prod.add_argument("sequence", help="sequence file (JSON array or generator spec)")
    p_prod.add_argument("--vectors", default=None,
                        help="JSON file with vectors whose dispersions to track")
    p_prod.add_argument("--seed", type=int, default=None,
                        help="seed for generator specs (overrides BIPFIT_SEED)")
    p_prod.add_argument("--out", default=None, help="write the JSON result here")
    return parser


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("BIPFIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"BIPFIT_SEED must be an integer, got {env!r}") from None
    return io.DEFAULT_SEED


def _emit(payload: dict, out_path) -> None:
    if out_path:
        io.save_report(payload, out_path)
    else:
        print(io.dumps(payload))


def _load(args) -> tuple:
    return io.load_problem(args.problem, a=args.a, b=args.b)


def _rule_from(args) -> StoppingRule:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["tol_marginal"] = args.tol
    if getattr(args, "max_iters", None) is not None:
        kwargs["max_iters"] = args.max_iters
    try:
        return StoppingRule(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_classify(args) -> None:
    problem, meta = _load(args)
    cls = structure.classify(problem)
    _emit(
        {
            "tool": {"name": "bipfit", "version": __version__},
            "problem": io._problem_fields(problem, meta),
            **io._classification_fields(cls),
        },
        args.out,
    )


def _probe_writable(path) -> None:
    """Raise the error a write to ``path`` would, with nothing written and no file left."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()  # appending truncates nothing
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _cmd_fit(args) -> None:
    problem, meta = _load(args)
    rule = _rule_from(args)
    for path in (args.out, args.trace_out):  # two outputs: neither written if one fails
        if path:
            _probe_writable(path)
    trace = run(problem, rule)
    (n_even, even), last_odd = trace.last_even, trace.last_odd
    payload = {
        "tool": {"name": "bipfit", "version": __version__},
        "config": io._resolved_config(rule),
        "problem": io._problem_fields(problem, meta),
        "stop_reason": trace.stop_reason.value,
        "iterations": trace.n_iters,
        "final_marginal_error": float(trace.errors[-1]),
        "even": even,
        "odd": last_odd[1] if last_odd is not None else None,
        "final": even if n_even == trace.n_iters else last_odd[1],
    }
    _emit(payload, args.out)
    if args.trace_out:
        rows, cols = trace._ratios(0, trace.n_iters + 1)  # both from one pass
        io.save_report({
            "stored_indices": trace.stored_indices,
            "errors": trace.errors,
            "ratio_rows": rows,
            "ratio_cols": cols,
            "stop_reason": trace.stop_reason.value,
        }, args.trace_out)


def _cmd_analyze(args) -> None:
    problem, meta = _load(args)
    rule = _rule_from(args)
    _emit(io.build_report(problem, rule, meta=meta), args.out)


def _cmd_reduce(args) -> None:
    problem, meta = _load(args)
    _, bs, _, restricted = structure._limit_structure(problem)  # no iteration
    payload = {
        "a": bs.a_prime,
        "b": problem.b,
        "X0": restricted.x0,
        "name": (meta.get("name", "problem") + " (reduced)") if meta else "reduced",
        "description": "seed restricted to the limit support; marginals adjusted "
                       "to (a', b) so the fit converges geometrically",
    }
    _emit(payload, args.out)


def _cmd_products(args) -> None:
    seed = _resolve_seed(args.seed)
    ms = io.load_sequence(args.sequence, seed=seed)
    tracked = []
    if args.vectors:
        spec = io._load_json(args.vectors)
        if not isinstance(spec, list):
            raise InputError(f"{args.vectors}: expected a JSON array of vectors")
        tracked = [io._as_vector(v, f"vectors[{k}]") for k, v in enumerate(spec)]
    trace = products.product_run(ms, tracked_vectors=tracked)
    converged = products.is_converged(trace)
    payload = {
        "tool": {"name": "bipfit", "version": __version__},
        "config": {"seed": seed, "n_factors": len(ms),
                   "drift_tol": products.DRIFT_TOL},
        "assumptions": trace.assumptions,
        "variation_sum": trace.variation_sum,
        "converged": converged,
        "final_product": trace.final,
        "dispersion_final": trace.dispersion_history[-1] if tracked else [],
        "offdiag_report": products.offdiag_convergence_report(trace) if converged else None,
    }
    _emit(payload, args.out)


_COMMANDS = {
    "classify": _cmd_classify,
    "fit": _cmd_fit,
    "analyze": _cmd_analyze,
    "reduce": _cmd_reduce,
    "products": _cmd_products,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except BrokenPipeError:  # the reader went away (`| head`): no traceback
        devnull = os.open(os.devnull, os.O_WRONLY)  # the exit flush writes here
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

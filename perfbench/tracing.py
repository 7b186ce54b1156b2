"""Span tracing of bipfit from outside the package.

:class:`Tracer` replaces every public function of the traced modules with a
wrapper that records one span per call: name, start, end, parent span, and
a count taken from the call's arguments or return value.  Because modules
copy each other's functions (``structure.run`` and ``cli.run`` are
``from .engine import run``), every binding of a wrapped function in every
bipfit module is replaced, not only the defining one.  A function that calls
itself (``io.jsonify``) gets one span for the outermost call.

Spans stay in memory until :meth:`Tracer.write`; :func:`self_times` derives
each span's self time (its duration minus its children's).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

#: Modules whose public functions are wrapped, in the order they are reported.
LAYERS = ("engine", "structure", "products", "io", "cli")


def _engine_counts(args, kwargs, trace):
    p, q = trace.problem.shape
    nbytes = (sum(m.nbytes for m in trace.stored_matrices) + trace.ratio_rows.nbytes
              + trace.ratio_cols.nbytes + trace.errors.nbytes)
    return trace.n_iters, trace.n_iters * p * q, nbytes


def _enumeration_count(args, kwargs, result):
    # a call that returns has enumerated every subset of its rows
    return (2 ** len(args[0]),)


#: Counts taken when a call returns: ``f(args, kwargs, result) -> tuple``.
#: A call that raises records no counts.
COUNTERS = {
    "engine.run": _engine_counts,
    "products.product_run": lambda args, kwargs, trace: (len(trace.partial_products),),
    "structure.best_cause": _enumeration_count,
    "structure.critical_causes": _enumeration_count,
}


class Tracer:
    """Installs span-recording wrappers and collects spans per pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (pass, id, parent, name, t0_ns, t1_ns, counts)
        self.pass_no = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if active[name]:  # recursive call: covered by the outer span
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            active[name] += 1
            counts = ()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                active[name] -= 1
                stack.pop()
                spans[sid] = (self.pass_no, sid, parent, name, t0, t1, counts)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of :data:`LAYERS` at every binding."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "bipfit" or name.startswith("bipfit.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"bipfit.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write all spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("pass\tid\tparent\tname\tt0_ns\tt1_ns\tcounts\n")
            for pass_no, sid, parent, name, t0, t1, counts in self.spans:
                fh.write(f"{pass_no}\t{sid}\t{parent}\t{name}\t{t0}\t{t1}\t"
                         f"{','.join(str(c) for c in counts)}\n")


def self_times(spans) -> list[float]:
    """Self time in seconds of each span, aligned with ``spans``.

    ``spans`` must be a contiguous run of spans whose parents (if any) are
    among them, as one pass produces; ids index into the tracer's full list.
    """
    base = spans[0][1]
    child = [0] * len(spans)
    for _, sid, parent, _, t0, t1, _ in spans:
        if parent >= base:
            child[parent - base] += t1 - t0
    return [(s[5] - s[4] - child[k]) * 1e-9 for k, s in enumerate(spans)]


#: Engine functions that read a kept trace rather than produce one.
TRACE_READS = ("rate_estimate", "nested_ratio_intervals", "ratio_update_matrices",
               "ratio_update_matrix", "cross_ratio_check", "escape_diagnostic")
#: io functions that read and validate input files.
LOADERS = ("load_problem", "problem_from_dict", "load_sequence", "sequence_from_spec",
           "load_report", "data_path")
#: products functions that build factor sequences.
GENERATORS = ("mr_matrix", "mr_sequence", "t0t1_sequence", "random_doubly_stochastic",
              "random_ratio_bounded_stochastic")


def layer_metrics(spans, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass.  Times are self times in seconds."""
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, st in zip(spans, selfs):
        by_name[span[3]] += st
        calls[span[3]] += 1

    def secs(layer, *names):
        return sum(by_name[f"{layer}.{n}"] for n in names)

    def counts(name, k):
        return [s[6][k] for s in spans if s[3] == name and s[6]]

    # calls made on behalf of ``analyze``: spans below an io.build_report span
    base = spans[0][1]
    name_of = [s[3] for s in spans]
    parent_of = [s[2] for s in spans]

    def under_report(k):
        p = parent_of[k]
        while p >= base:
            if name_of[p - base] == "io.build_report":
                return True
            p = parent_of[p - base]
        return False

    in_report = defaultdict(int)
    for k, name in enumerate(name_of):
        if name in ("structure.feasible", "structure.block_structure") and under_report(k):
            in_report[name] += 1
    reports = calls["io.build_report"]

    iters = sum(counts("engine.run", 0))
    run_s = by_name["engine.run"]
    factors = sum(counts("products.product_run", 0))
    product_run_inclusive = sum((s[5] - s[4]) * 1e-9 for s in spans
                                if s[3] == "products.product_run")
    layer_self = {layer: sum(t for n, t in by_name.items() if n.startswith(layer + "."))
                  for layer in LAYERS}
    total_self = sum(layer_self.values())
    out = {
        "engine.run_s": run_s,
        "engine.run_calls": calls["engine.run"],
        "engine.iters": iters,
        "engine.us_per_iter": 1e6 * run_s / iters,
        "engine.cell_updates_per_s": sum(counts("engine.run", 1)) / run_s,
        "engine.trace_mb": max(counts("engine.run", 2)) / 1e6,
        "engine.diag_s": secs("engine", *TRACE_READS),
        "structure.best_cause_s": by_name["structure.best_cause"],
        "structure.best_cause_calls": calls["structure.best_cause"],
        "structure.subsets_enumerated": sum(counts("structure.best_cause", 0))
        + sum(counts("structure.critical_causes", 0)),
        "structure.block_structure_s": by_name["structure.block_structure"],
        "structure.block_structure_calls": calls["structure.block_structure"],
        "structure.limit_points_s": by_name["structure.limit_points"],
        "structure.classify_s": by_name["structure.classify"],
        "structure.feasible_s": by_name["structure.feasible"],
        "structure.feasible_calls": calls["structure.feasible"],
        "structure.maximal_support_s": by_name["structure.maximal_support"],
        "structure.critical_causes_s": by_name["structure.critical_causes"],
        "structure.feasible_calls_per_analyze": in_report["structure.feasible"] / reports,
        "structure.block_structure_calls_per_analyze":
            in_report["structure.block_structure"] / reports,
        "products.product_run_s": by_name["products.product_run"],
        "products.factors": factors,
        "products.us_per_factor": 1e6 * product_run_inclusive / factors,
        "products.assumption_check_s": by_name["products.assumption_check"],
        "products.offdiag_report_s": by_name["products.offdiag_convergence_report"],
        "products.dispersion_s": by_name["products.dispersion"],
        "products.generate_s": secs("products", *GENERATORS),
        "io.load_s": secs("io", *LOADERS),
        "io.build_report_s": by_name["io.build_report"],
        "io.verify_report_s": by_name["io.verify_report"],
        "io.jsonify_s": by_name["io.jsonify"],
        "io.report_mb": report_bytes / 1e6,
        "cli.main_s": by_name["cli.main"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * layer_self[layer] / total_self
    return out

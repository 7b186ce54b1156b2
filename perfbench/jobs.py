"""The job lists of the three benchmark workloads.

A job is one user action: a ``bipfit`` command run in-process through
``bipfit.cli.main``, or a library call a user makes on a kept trace, a
report or a matrix sequence.  Each job times itself and hands its output to
a check from ``checks.py``.  ``build`` generates a workload's inputs from
the seed, writes them under the work directory, and returns the job list;
bipfit sees only those files (and, for library jobs, arrays built from the
seed).

Every command runs in every workload, so that every per-command metric
exists everywhere; outside a command's own workload its jobs are small and
read its fixed cost (argument parsing, loading, reporting).
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import bipfit.cli
import bipfit.engine
import bipfit.io
import bipfit.products
from bipfit.errors import InputError

import checks
import instances

#: Job kinds; each but ``verify`` has an end-to-end ``<kind>_s`` metric.
KINDS = ("fit", "analyze", "classify", "reduce", "products", "trace_diag", "verify")


@dataclass
class Job:
    """One timed action and the check of its output.

    ``run`` returns ``(output, kind_s, wall_s)``: the seconds that count
    toward the job kind's metric, and the seconds the whole job took.
    ``known_defect`` names a bipfit defect that makes this job fail today;
    the failure is still counted.
    """

    name: str
    kind: str
    run: Callable[[], tuple[object, float, float]]
    check: Callable[[object], None]
    out: Path | None = None
    known_defect: str | None = None


def cli_job(name: str, kind: str, argv: list, out: Path, check,
            known_defect: str | None = None) -> Job:
    """``bipfit <argv> --out <out>``; the check reads the written JSON."""
    argv = [str(v) for v in argv] + ["--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        captured = stdio.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = perf_counter()
            code = bipfit.cli.main(argv)
            dt = perf_counter() - t0
        return (code, captured.getvalue()), dt, dt

    def check_output(result):
        code, messages = result
        checks.expect(code == 0, f"exit code {code}: {messages.strip()[:300]}")
        with open(out) as fh:
            check(json.load(fh))

    return Job(name, kind, run, check_output, out, known_defect)


def trace_job(name: str, path: Path, inst, rule: dict, slow: bool) -> Job:
    """Run the engine once, keep the trace, and read it four ways.

    Only the reads count toward ``trace_diag_s``; loading and the run count
    toward the job's wall time.
    """
    def run():
        t0 = perf_counter()
        problem, _ = bipfit.io.load_problem(path)
        trace = bipfit.engine.run(problem, bipfit.engine.StoppingRule(**rule))
        t1 = perf_counter()
        reads = (
            bipfit.engine.rate_estimate(trace),
            bipfit.engine.nested_ratio_intervals(trace),
            bipfit.engine.ratio_update_matrices(trace),
            bipfit.engine.cross_ratio_check(trace),
        )
        t2 = perf_counter()
        return (trace, reads), t2 - t1, t2 - t0

    return Job(name, "trace_diag", run,
               lambda result: checks.trace_reads(inst, result[0], result[1], slow))


def verify_job(name: str, report: Path, inst) -> Job:
    """Re-verify a report from ``analyze``, then a copy with a corrupted ``a'``."""
    tampered = report.with_name(report.stem + "-tampered.json")

    def run():
        t0 = perf_counter()
        loaded = bipfit.io.load_report(report, verify=True)
        dt = perf_counter() - t0
        bad = json.loads(report.read_text())
        bad["block_structure"]["a_prime"][0] *= 1.5
        tampered.write_text(json.dumps(bad))
        t0 = perf_counter()
        try:
            bipfit.io.load_report(tampered, verify=True)
            rejected = False
        except InputError:
            rejected = True
        dt += perf_counter() - t0
        return (loaded["classification"]["behavior"], rejected), dt, dt

    def check(result):
        behavior, rejected = result
        checks.expect(behavior == inst.behavior, f"verified report says {behavior}")
        checks.expect(rejected, "a report with a corrupted a' passed verification")

    return Job(name, "verify", run, check)


def product_run_job(name: str, ms: list, vectors: list, gamma: float, rho: float) -> Job:
    def run():
        t0 = perf_counter()
        trace = bipfit.products.product_run(ms, tracked_vectors=vectors)
        dt = perf_counter() - t0
        return trace, dt, dt

    return Job(name, "products", run,
               lambda trace: checks.product_trace(trace, ms, vectors, gamma, rho))


class _Files:
    """Writes the generated inputs and names the output files."""

    def __init__(self, work: Path):
        self.work = work

    def json(self, name: str, payload) -> Path:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(payload))
        return path

    def problem(self, inst) -> Path:
        return self.json(inst.name, inst.problem_json())

    def out(self, job_name: str) -> Path:
        return self.work / ("out-" + job_name.replace(" ", "_").replace("-", "_") + ".json")


#: Generator seed of the small instances that read a command's fixed cost
#: outside its own workload; their work must not change with ``--seed``.
CONTEXT_SEED = 0
#: Each such small job runs this many times in a row per pass, so that its
#: command's metric sums enough work to be steady.
CONTEXT_REPEAT = 5


def _context(*job_list: Job) -> list[Job]:
    return [job for job in job_list for _ in range(CONTEXT_REPEAT)]


def _mr_job(files: _Files) -> Job:
    """``products`` on the ``mr`` family, 60 factors, two tracked vectors."""
    vectors = [[1.0, 0.0], [0.25, 0.75]]
    mr = files.json("mr-60", {"family": "mr", "count": 60})
    vec = files.json("vectors-2", vectors)
    return cli_job("products mr-60", "products", ["products", mr, "--vectors", vec],
                   files.out("products mr-60"), lambda o: checks.mr_products(o, vectors))


def _classify_example(files: _Files, example) -> Job:
    return cli_job("classify example-5x6", "classify",
                   ["classify", files.problem(example)], files.out("classify example-5x6"),
                   lambda o: checks.classification(o, example))


def crawl(rng, seed: int, files: _Files) -> list[Job]:
    """Slow (rate 1/n) fitting: the engine's per-iteration cost dominates."""
    slow = instances.slow_2x2()
    p40 = instances.planted_critical(rng, "planted-40", 40, 40)
    p10 = instances.planted_critical(rng, "planted-10", 10, 10)
    slow_path, p40_path, p10_path = (files.problem(i) for i in (slow, p40, p10))
    analyze_out = files.out("analyze slow-2x2")
    return [
        cli_job("fit slow-2x2", "fit", ["fit", slow_path], files.out("fit slow-2x2"),
                lambda o: checks.fit(o, slow, 100_000, "IterationCap")),
        cli_job("fit slow-2x2 --max-iters 19999", "fit",
                ["fit", slow_path, "--max-iters", 19_999],
                files.out("fit slow-2x2 odd cap"),
                lambda o: checks.fit(o, slow, 19_999, "IterationCap"),
                known_defect="fit reports the last stored iterate (19998, column-fitted) "
                             "as the final iterate 19999 once decimation skips it"),
        cli_job("fit planted-40 --max-iters 20000", "fit",
                ["fit", p40_path, "--max-iters", 20_000], files.out("fit planted-40"),
                lambda o: checks.fit(o, p40, 20_000, "IterationCap")),
        cli_job("analyze slow-2x2", "analyze", ["analyze", slow_path], analyze_out,
                lambda o: checks.analysis(o, slow, "IterationCap")),
        # twice, so that trace_diag_s sums enough work per pass to be steady
        *[trace_job("trace planted-10", p10_path, p10, {"max_iters": 4000}, slow=True)] * 2,
        verify_job("verify analyze slow-2x2", analyze_out, slow),
        *_context(
            cli_job("classify slow-2x2", "classify", ["classify", slow_path],
                    files.out("classify slow-2x2"),
                    lambda o: checks.classification(o, slow)),
            cli_job("reduce slow-2x2", "reduce", ["reduce", slow_path],
                    files.out("reduce slow-2x2"), lambda o: checks.reduced(o, slow)),
            _classify_example(files, instances.example_5x6()),
            _mr_job(files),
        ),
    ]


def diagnose(rng, seed: int, files: _Files) -> list[Job]:
    """Structural analysis and large reports: structure, io and cli dominate."""
    divs = [instances.divergent(rng, f"divergent-{p}", p, p) for p in (12, 16, 20)]
    example = instances.example_5x6()
    sparse = instances.planted_critical(rng, "sparse-400", 400, 400, density=0.03)
    wide = instances.divergent(rng, "divergent-30", 30, 30)
    job_list = []
    paths = {inst.name: files.problem(inst) for inst in divs}
    for inst in divs:
        path = paths[inst.name]
        job_list += [
            cli_job(f"classify {inst.name}", "classify", ["classify", path],
                    files.out(f"classify {inst.name}"),
                    lambda o, inst=inst: checks.classification(o, inst)),
            cli_job(f"reduce {inst.name}", "reduce", ["reduce", path],
                    files.out(f"reduce {inst.name}"),
                    lambda o, inst=inst: checks.reduced(o, inst)),
            cli_job(f"analyze {inst.name}", "analyze", ["analyze", path],
                    files.out(f"analyze {inst.name}"),
                    lambda o, inst=inst: checks.analysis(o, inst, "EvenOddConverged")),
            cli_job(f"fit {inst.name}", "fit", ["fit", path], files.out(f"fit {inst.name}"),
                    lambda o, inst=inst: checks.fit(o, inst, None, "EvenOddConverged")),
        ]
    sparse_path, wide_path = files.problem(sparse), files.problem(wide)
    t0t1 = files.json("t0t1-60", {"family": "t0t1", "count": 60})
    job_list += [
        _classify_example(files, example),
        cli_job("reduce example-5x6", "reduce", ["reduce", files.problem(example)],
                files.out("reduce example-5x6"), lambda o: checks.reduced(o, example)),
        cli_job("classify sparse-400", "classify", ["classify", sparse_path],
                files.out("classify sparse-400"),
                lambda o: checks.classification(o, sparse)),
        cli_job("reduce divergent-30", "reduce", ["reduce", wide_path],
                files.out("reduce divergent-30"), lambda o: checks.reduced(o, wide),
                known_defect="reduce on more than 25 rows hits the subset-enumeration "
                             "cap and exits 2 with 'input error'"),
        verify_job("verify analyze divergent-20", files.out("analyze divergent-20"),
                   divs[-1]),
        *_context(
            trace_job("trace divergent-12", paths["divergent-12"], divs[0], {}, slow=False),
            cli_job("products t0t1-60", "products", ["products", t0t1],
                    files.out("products t0t1-60"), checks.t0t1_products),
            _mr_job(files),
        ),
    ]
    return job_list


def products(rng, seed: int, files: _Files) -> list[Job]:
    """Backward products of stochastic matrices: the products module dominates."""
    t0t1 = files.json("t0t1-60", {"family": "t0t1", "count": 60})
    small = files.json("birkhoff-40", {"family": "birkhoff", "count": 40, "dim": 4,
                                       "gamma": 0.2})
    big = files.json("birkhoff-5000", {"family": "birkhoff", "count": 5000, "dim": 8,
                                       "gamma": 0.1})
    vectors8 = rng.normal(size=(2, 8)).tolist()
    vec8 = files.json("vectors-8", vectors8)
    sequences = {n: list(instances.ratio_bounded_sequence(rng, n))
                 for n in (2000, 4000, 6000, 8000, 10_000)}
    vectors3 = list(rng.normal(size=(2, 3)))
    context = np.random.default_rng(CONTEXT_SEED)
    dense = instances.dense(context, "dense-4", 4, 4)
    div6 = instances.divergent(context, "divergent-6", 6, 6)
    dense_path, div6_path = files.problem(dense), files.problem(div6)
    analyze_out = files.out("analyze divergent-6")
    return [
        cli_job("products t0t1-60", "products", ["products", t0t1],
                files.out("products t0t1-60"), checks.t0t1_products),
        cli_job("products birkhoff-40", "products", ["products", small, "--seed", seed],
                files.out("products birkhoff-40"),
                lambda o: checks.birkhoff_products(o, 4, 0.2)),
        cli_job("products birkhoff-5000", "products",
                ["products", big, "--seed", seed, "--vectors", vec8],
                files.out("products birkhoff-5000"),
                lambda o: checks.birkhoff_products(o, 8, 0.1, vectors8)),
        *(product_run_job(f"product_run ratio-bounded-{n}", ms, vectors3, 0.2, 5.0)
          for n, ms in sequences.items()),
        _mr_job(files),
        *_context(
            cli_job("classify dense-4", "classify", ["classify", dense_path],
                    files.out("classify dense-4"),
                    lambda o: checks.classification(o, dense)),
            _classify_example(files, instances.example_5x6()),
            cli_job("fit dense-4", "fit", ["fit", dense_path], files.out("fit dense-4"),
                    lambda o: checks.fit(o, dense, None, "Converged")),
            cli_job("analyze divergent-6", "analyze", ["analyze", div6_path], analyze_out,
                    lambda o: checks.analysis(o, div6, "EvenOddConverged")),
            cli_job("reduce divergent-6", "reduce", ["reduce", div6_path],
                    files.out("reduce divergent-6"), lambda o: checks.reduced(o, div6)),
            trace_job("trace divergent-6", div6_path, div6, {}, slow=False),
            verify_job("verify analyze divergent-6", analyze_out, div6),
        ),
    ]


WORKLOADS = {"crawl": crawl, "diagnose": diagnose, "products": products}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Generate the workload's inputs from ``seed`` into ``work``; return its jobs."""
    return WORKLOADS[workload](np.random.default_rng(seed), seed, _Files(work))

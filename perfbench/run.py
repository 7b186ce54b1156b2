#!/usr/bin/env python3
"""Benchmark of the bipfit commands and trace diagnostics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 40 --trace 0

Imports bipfit and generates the workload's inputs from ``--seed`` (several
times, to time set-up), then runs its job list pass after pass for about
``--seconds`` seconds in this one process, checking every job's output.
With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``,
medians over passes, with times scaled to a fixed machine speed (see
:func:`reference_s`).  With ``--trace 1`` it alternates plain and traced passes and prints the per-layer
metrics from the traced ones, plus the tracing overhead; the spans go to
``.perfbench-out/spans-<workload>.tsv``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# One thread per native pool: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 11
#: Modules imported afresh by every set-up: the package and the job lists on it.
FRESH_MODULES = ("bipfit", "jobs")
#: Seconds :func:`reference_s` takes on an uncontended core of the 2-core VM
#: the benchmark was calibrated on.
REFERENCE_NOMINAL_S = 0.0125

_REF_MATRIX = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)
_REF_OUT = np.empty_like(_REF_MATRIX)


def reference_s() -> float:
    """Time a fixed piece of interpreter and BLAS work that does not touch bipfit.

    The host's speed drifts by tens of percent over seconds to minutes as
    other tenants load the shared cores, and process CPU time drifts with
    it.  The kernel runs before every set-up and every job, outside their
    timings.  A set-up's time is multiplied by ``REFERENCE_NOMINAL_S`` over
    the kernel's time just before it; the passes' times by
    ``REFERENCE_NOMINAL_S`` over the median of the kernel's times in the
    run.  The metrics so follow bipfit's own cost rather than the
    neighbours' load.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(30):
        np.dot(_REF_MATRIX, _REF_MATRIX, out=_REF_OUT)
    return time.perf_counter() - t0


def import_bipfit():
    """Import bipfit from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import bipfit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bipfit from {SRC}: {exc}")
    if Path(bipfit.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: bipfit was imported from {bipfit.__file__}, not {SRC}")
    return bipfit


def run_pass(job_list, tracer, pass_no: int, failures: list, refs: list) -> dict:
    """Run every job once; return the pass's timings.

    Appends the reference kernel's time before each job to ``refs``.
    """
    import checks
    import jobs

    kinds = dict.fromkeys(jobs.KINDS, 0.0)
    wall = 0.0
    job_times = []
    report_bytes = 0
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.pass_no = pass_no
        tracer.install()
    try:
        for job in job_list:
            gc.collect()
            refs.append(reference_s())
            try:
                output, kind_s, wall_s = job.run()
            except Exception:  # a job that raises is a failed operation; keep going
                failures.append((pass_no, job, traceback.format_exc(limit=3)))
                continue
            kinds[job.kind] += kind_s
            job_times.append((job.name, kind_s, wall_s, refs[-1]))
            wall += wall_s
            if job.out is not None and job.out.exists():
                report_bytes += job.out.stat().st_size
            try:
                job.check(output)
            except checks.CheckFailed as exc:
                failures.append((pass_no, job, str(exc)))
            except Exception:
                failures.append((pass_no, job, traceback.format_exc(limit=3)))
            del output
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "traced": tracer is not None,
        "wall": wall,
        "kinds": kinds,
        "job_times": job_times,
        "report_bytes": report_bytes,
        "spans": tracer.spans[first_span:] if tracer else None,
    }


def end_to_end(passes, setup_times, speed: float) -> dict:
    """Medians over passes of the measured times, multiplied by ``speed``.

    ``setup_times`` are at the reference speed already.
    """
    out = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall"] for p in passes) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for kind in ("fit", "analyze", "classify", "reduce", "products", "trace_diag"):
        out[f"{kind}_s"] = statistics.median(p["kinds"][kind] for p in passes) * speed
    return out


def per_layer(passes) -> dict:
    import tracing

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [tracing.layer_metrics(p["spans"], p["report_bytes"]) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1.0)
    return out


def provenance(bipfit, args) -> str:
    import numpy

    return (f"host={platform.node()} nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"bipfit={bipfit.__version__} workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bipfit = import_bipfit()
    print(provenance(bipfit, args))

    # Set-up: import bipfit afresh, generate the inputs, write them.
    work = OUT / f"work-{args.workload}"
    setup_times = []
    refs: list = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        for name in [m for m in sys.modules if m.split(".")[0] in FRESH_MODULES]:
            del sys.modules[name]
        refs.append(reference_s())
        t0 = time.perf_counter()
        jobs = importlib.import_module("jobs")
        work.mkdir(parents=True)
        job_list = jobs.build(args.workload, args.seed, work)
        setup_times.append((time.perf_counter() - t0) * REFERENCE_NOMINAL_S / refs[-1])

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    failures: list = []
    passes: list = []
    # Run whole passes; start another only if it should end closer to the
    # deadline than stopping now would.  A traced run needs a plain and a
    # traced pass.
    start = time.monotonic()
    lengths: list = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(job_list, tracer if traced else None, len(passes), failures,
                               refs))
        lengths.append(time.monotonic() - t0)
        left = args.seconds - (time.monotonic() - start)
        if left < statistics.median(lengths) / 2 and (tracer is None or len(passes) >= 2):
            break

    (OUT / f"timings-{args.workload}.json").write_text(json.dumps(
        {"setup": setup_times, "refs": refs,
         "passes": [p["job_times"] for p in passes if not p["traced"]]}))
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.tsv")
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_times, REFERENCE_NOMINAL_S / statistics.median(refs))

    attempted = len(job_list) * len(passes)
    unexpected = [f for f in failures if f[1].known_defect is None]
    for pass_no, job, message in failures:
        tag = "known defect" if job.known_defect else "FAILED"
        print(f"pass {pass_no}: {tag}: {job.name}: {message.strip()}")
    for job in job_list:
        if job.known_defect:
            print(f"known defect in job list: {job.name}: {job.known_defect}")
    print(f"passes={len(passes)} jobs/pass={len(job_list)} attempted={attempted} "
          f"failed={len(failures)} failed_frac={len(failures) / attempted:.4f}")
    print("pass wall_s (measured): "
          + " ".join(f"{p['wall']:.4f}{'t' if p['traced'] else ''}" for p in passes))
    print(f"reference_s: median {statistics.median(refs):.5f} over {len(refs)} samples "
          f"(nominal {REFERENCE_NOMINAL_S})")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

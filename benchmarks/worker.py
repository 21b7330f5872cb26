"""Run one benchmark workload in this process and print its figures as JSON.

    PYTHONPATH=src python3 benchmarks/worker.py --config CONFIG --seconds S --trace 0

The workload goes through the public path: ``ExperimentConfig.from_dict``
once, then per pass every experiment through ``cli.run`` and
``cli.report(records, "json")``. One caller runs the passes back to back (a
closed loop). The first pass warms caches and is the reference report; each
later pass must reproduce it.

With ``--trace 1`` the untraced passes only give the base for
``trace_overhead_frac``; the figures come from passes run under the tracer.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracer as tracing

MASK = "<masked>"


def mask_report(text: str) -> str:
    """The JSON report with its timestamps and ``wall_clock_s`` values masked.

    The timestamp may differ between identical runs by design. ``wall_clock_s``
    is a known defect: it is a timing emitted as a metric, so it differs too.
    """
    doc = json.loads(text)
    for record in doc["records"]:
        record["timestamp"] = MASK
        for metric in record["metrics"]:
            if metric["name"] == "wall_clock_s":
                metric["value"] = MASK
    return json.dumps(doc, sort_keys=True)


def run_pass(cli, config, reference: dict) -> tuple:
    """Run every experiment of ``config`` once; returns (records, failures).

    An experiment fails when it raises, when a record has ``passed=False``,
    or when its masked report differs from the one it gave first, which
    ``reference`` keeps by experiment id.
    """
    n_records = 0
    failures = []
    for index, exp in enumerate(config.experiments):
        key = exp.get("id", f"#{index}")
        try:
            records = cli.run(cli.ExperimentConfig([exp], config.seed, config.tolerances))
            text = mask_report(cli.report(records, "json"))
        except Exception:  # the batch keeps going; the failure is counted and shown
            failures.append(f"{key}: raised\n{traceback.format_exc(limit=3)}")
            continue
        n_records += len(records)
        failing = [r.experiment for r in records if not r.passed]
        if failing:
            failures.append(f"{key}: records failed: {', '.join(failing[:5])}")
        elif reference.setdefault(key, text) != text:
            failures.append(f"{key}: report differs from the first pass")
    return n_records, failures


def _blas_threads():
    # numpy does not report the OpenBLAS thread count; ask the bundled library
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Loop:
    """Closed-loop pass runner that keeps the failure tally."""

    def __init__(self, cli, config):
        self.cli = cli
        self.config = config
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def one(self) -> tuple:
        start = time.perf_counter()
        n_records, failures = run_pass(self.cli, self.config, self.reference)
        wall = time.perf_counter() - start
        self.attempted += len(self.config.experiments)
        self.failures.extend(failures)
        return wall, n_records

    def timed(self, seconds: float, min_passes: int) -> list:
        walls = []
        start = time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - start < seconds:
            walls.append(self.one()[0])
        return walls


def traced_passes(loop: Loop, package: str, seconds: float, spans_path: str) -> tuple:
    """Run passes under the tracer; returns (walls, figures of the median
    pass, problems with the spans of any pass)."""
    tracer = tracing.Tracer()
    tracer.install(package)
    passes = []
    problems = []
    n_experiments = len(loop.config.experiments)
    try:
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            tracer.reset()
            wall, n_records = loop.one()
            problems += tracing.coverage_problems(tracer.spans, wall, n_experiments)
            figures = tracing.layer_metrics(tracer.spans, tracer.counts, wall)
            figures["cli.records"] = n_records
            figures["traced_wall_s"] = wall
            passes.append((wall, figures, tracer.spans))
    finally:
        tracer.uninstall()
    passes.sort(key=lambda p: p[0])
    _wall, figures, spans = passes[(len(passes) - 1) // 2]
    tracing.dump_spans(spans, spans_path)
    return [p[0] for p in passes], figures, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--src", required=True, help="the source tree gaugeqec must be imported from")
    args = parser.parse_args(argv)

    import gaugeqec.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"gaugeqec was imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 3
    with open(args.config) as fh:
        config = cli.ExperimentConfig.from_dict(json.load(fh))

    loop = Loop(cli, config)
    out = {"warm_s": loop.one()[0], "env": environment()}
    if args.trace:
        walls = loop.timed(args.seconds / 2, min_passes=2)
        traced, figures, problems = traced_passes(loop, "gaugeqec", args.seconds / 2, args.spans)
        figures["trace_overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1
        out.update(walls=walls, traced_walls=traced, layers=figures, trace_problems=problems[:10])
    else:
        out["walls"] = loop.timed(args.seconds, min_passes=3)
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:10],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

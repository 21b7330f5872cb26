"""The gaugeqec benchmark: one seeded workload per process, checked results.

    python3 benchmarks/run.py --workload decode-2d --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run it from a checkout of the repository; the program is imported from the
checkout's ``src``. For each workload the benchmark

1. writes the workload's ``gaugeqec run --config`` file for the seed;
2. times fresh interpreters that import ``gaugeqec.cli`` and validate that
   config (``setup_s``, the median over several starts);
3. runs the workload in one worker process for ``--seconds`` (``worker.py``)
   and checks every result.

It prints readable lines, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_STARTS = 15
DEADLINE_S = 170  # the whole command must end within 180 s
SETUP_SNIPPET = """\
import json, os, sys
import gaugeqec.cli as cli
if not os.path.abspath(cli.__file__).startswith(os.path.abspath(sys.argv[1]) + os.sep):
    sys.exit(f"gaugeqec was imported from {cli.__file__}, not from {sys.argv[1]}")
with open(sys.argv[2]) as fh:
    cli.ExperimentConfig.from_dict(json.load(fh))
"""


def load_benchmark() -> tuple:
    """(why by workload, end-to-end units by metric, per-layer units by metric)
    as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    why = {w["name"]: w["why"] for w in doc["workloads"]}
    return (why, *({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")))


def git_revision() -> str:
    """HEAD of the checkout, or 'unknown' when the checkout is not a git
    repository; no repository above the checkout is consulted."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(config_path: str, deadline: float) -> list:
    """Wall times of fresh interpreters importing gaugeqec.cli and validating
    the config; one unmeasured start first writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, SRC, config_path]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env())
        # a blocking wait: subprocess's own timeout polls in steps of up to 50 ms
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        if i:
            times.append(elapsed)
    return times


def run_worker(config_path: str, seconds: int, trace: int, spans_path: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--config", config_path,
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--spans", spans_path,
        "--src", SRC,
    ]
    done = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, check=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Measure one workload; prints readable lines and returns the result object."""
    why, end_to_end, per_layer = load_benchmark()
    out_dir = os.path.join(OUT, f"seed{seed}")
    config_path = workloads.write(name, seed, out_dir)
    setup = measure_setup(config_path, deadline)
    spans_path = os.path.join(out_dir, f"{name}.spans.jsonl")
    res = run_worker(config_path, seconds, trace, spans_path, deadline)
    env = res["env"]
    failed, attempted = res["failed"], res["attempted"]
    walls = res["walls"]
    print(f"== {name} (seed {seed}): {why[name]}")
    print(f"   config {os.path.relpath(config_path, ROOT)}; revision {git_revision()}")
    print(
        f"   python {env['python']}, numpy {env['numpy']}, {env['blas']} with {env['blas_threads']} threads "
        f"(env {env['blas_threads_env'] or 'unset: library default'}), nproc {env['nproc']}"
    )
    print(f"   setup_s      {statistics.median(setup):.4f} s   ({spread(setup)} fresh starts)")
    print(f"   wall_s       {statistics.median(walls):.4f} s   ({spread(walls)} warm passes; first pass {res['warm_s']:.4f} s)")
    print(f"   peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    print(f"   failed_frac  {failed / attempted:.4f}   ({failed} of {attempted} experiments)")
    for failure in res["failures"]:
        print(f"   FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        layers = res["layers"]
        # spans must cover each pass: one root cli.run per experiment, little
        # time outside the roots (self times + untraced_s = traced_wall_s holds
        # by construction, so that sum is no check)
        problems = res["trace_problems"]
        result["correct"] = result["correct"] and not problems
        print(f"   traced: {spread(res['traced_walls'])} passes, spans in {os.path.relpath(spans_path, ROOT)}")
        for metric, unit in per_layer.items():
            print(f"   {metric:32s} {layers[metric]:.6g} {unit}")
        for problem in problems:
            print(f"   TRACE {problem}")
        result["metrics"] = {m: {"value": layers[m], "unit": u} for m, u in per_layer.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": res["peak_rss_mb"],
            "passed_frac": 1 - failed / attempted,
        }
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in end_to_end.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaugeqec benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaugeqec", "cli.py")):
        print(f"no gaugeqec sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        # one workload must end within DEADLINE_S; "all" gives each its own
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: generator, span arithmetic, failure tally.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gaugeqec import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert json.dumps(workloads.generate(name, 7)) == json.dumps(workloads.generate(name, 7))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_differs_across_seeds(name):
    first, second = workloads.generate(name, 7), workloads.generate(name, 8)
    assert first != second
    # the acceptance suite has no inputs to draw; only its run seed changes
    assert (first["experiments"] != second["experiments"]) == (name != "acceptance")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_are_valid_run_configs(name, tmp_path):
    path = workloads.write(name, 3, str(tmp_path))
    config = cli.ExperimentConfig.from_file(path)
    assert config.seed == 3
    assert len({exp["id"] for exp in config.experiments}) == len(config.experiments)


# one thread: sibling spans never overlap
SPANS = [
    (-1, "cli.run", 0.0, 10.0, None),
    (0, "gauss_code.decode", 1.0, 4.0, None),
    (1, "pauli.PauliString.multiply", 1.5, 2.5, None),
    (0, "hamiltonian.build_pauli", 5.0, 9.0, None),
    (3, "linalg.eigh", 6.0, 7.0, None),
]


def test_self_time_subtracts_the_time_children_cover():
    assert tracer.self_times(SPANS) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        (-1, "cli.run", 0.0, 10.0, None),
        (0, "pauli.a", 1.0, 3.0, None),
        (0, "pauli.b", 2.0, 4.0, None),
        (0, "pauli.c", 9.0, 12.0, None),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(6.0)


def test_layer_self_times_and_remainder_add_up_to_the_wall():
    figures = tracer.layer_metrics(SPANS, {}, wall=10.5)
    layers = {layer: figures[f"{layer}.self_s"] for layer in tracer.LAYERS}
    expected = dict.fromkeys(tracer.LAYERS, 0.0) | {"cli": 3.0, "gauss_code": 2.0, "pauli": 1.0, "hamiltonian": 3.0, "linalg": 1.0}
    assert layers == pytest.approx(expected)
    assert figures["untraced_s"] == pytest.approx(0.5)
    assert sum(layers.values()) + figures["untraced_s"] == pytest.approx(10.5)


def test_inclusive_time_counts_nested_spans_once():
    spans = SPANS + [(1, "gauss_code.decode", 3.2, 3.8, None)]
    assert tracer.inclusive(spans, ("gauss_code.decode",)) == pytest.approx(3.0)


def _decode_spans(kind, n, start, per_call):
    """A root cli.run span holding one syndrome_of and one decode on a code."""
    note = [kind, n]
    return [
        (-1, "cli.run", start, start + 2 * per_call, None),
        ("root", "gauss_code.syndrome_of", start, start + per_call, note),
        ("root", "gauss_code.decode", start + per_call, start + 2 * per_call, note),
    ]


def _link(groups):
    spans = []
    for group in groups:
        root = len(spans)
        spans += [(root if parent == "root" else parent, *rest) for parent, *rest in group]
    return spans


def test_sweep_figures_follow_repetition_gauss_only():
    # repetition-phase on [6,6] has as many qubits (324) as repetition-gauss
    # and a slower decoder; it must not enter the per-case time or the slope
    gauss_6 = _decode_spans("concat_gauss_first", 324, 0.0, 1.0)
    phase_6 = _decode_spans("concat_phase_first", 324, 10.0, 50.0)
    gauss_9 = _decode_spans("concat_gauss_first", 729, 200.0, 4.0)
    figures = tracer.layer_metrics(_link([gauss_6, phase_6, gauss_9]), {}, wall=300.0)
    assert figures["gauss_code.decode_s_per_case"] == pytest.approx(8.0)
    # sweep time 3n * per case: 3*729*8 against 3*324*2
    expected = math.log((729 * 8.0) / (324 * 2.0)) / math.log(729 / 324)
    assert figures["gauss_code.sweep_slope"] == pytest.approx(expected)


def test_coverage_flags_missing_runs_stray_roots_and_gaps():
    assert tracer.coverage_problems(SPANS, wall=10.1, n_experiments=1) == []
    assert "2 experiments" in tracer.coverage_problems(SPANS, wall=10.1, n_experiments=2)[0]
    assert "untraced_s" in tracer.coverage_problems(SPANS, wall=12.0, n_experiments=1)[0]
    assert "untraced_s" in tracer.coverage_problems(SPANS, wall=9.0, n_experiments=1)[0]
    stray = SPANS + [(-1, "pauli.a", 10.0, 10.05, None)]
    assert "pauli.a" in tracer.coverage_problems(stray, wall=10.1, n_experiments=1)[0]


def test_tracer_leaves_generator_methods_unwrapped():
    from gaugeqec.lattice import Lattice

    original = vars(Lattice)["links"]
    trace = tracer.Tracer()
    trace.install("gaugeqec")
    try:
        assert vars(Lattice)["links"] is original
        assert len(list(Lattice([3]).links())) == 3
    finally:
        trace.uninstall()
    assert not [span for span in trace.spans if span[1] in ("lattice.Lattice.links", "lattice.Lattice.sites")]


def test_tracer_wraps_cli_aliases_and_restores_them():
    original = cli.decode
    trace = tracer.Tracer()
    trace.install("gaugeqec")
    try:
        assert cli.decode is not original
        config = cli.ExperimentConfig([{"id": "s", "kind": "decode-sweep", "dims": [3]}])
        records = cli.run(config)
    finally:
        trace.uninstall()
    assert cli.decode is original
    names = [span[1] for span in trace.spans]
    assert names.count("gauss_code.decode") == len(records)
    decode = trace.spans[names.index("gauss_code.decode")]
    assert trace.spans[decode[0]][1] == "cli.run"
    assert trace.counts["pauli.PauliString.commutes"] > 0


def test_mask_hides_timestamps_and_wall_clock():
    record = {"timestamp": "t1", "metrics": [{"name": "wall_clock_s", "value": 0.1}, {"name": "gap", "value": 0.0}]}
    masked = json.loads(worker.mask_report(json.dumps({"records": [record]})))
    assert masked["records"][0]["timestamp"] == worker.MASK
    assert [m["value"] for m in masked["records"][0]["metrics"]] == [worker.MASK, 0.0]


class _FakeCli:
    """cli stand-in: 'boom' raises, 'bad' fails a record, 'drift' changes its report."""

    ExperimentConfig = cli.ExperimentConfig

    def __init__(self):
        self.calls = 0

    def run(self, config):
        exp = config.experiments[0]
        self.calls += 1
        if exp["id"] == "boom":
            raise ValueError("construction failed")
        value = float(self.calls) if exp["id"] == "drift" else 0.0
        metric = {"name": "gap", "value": value, "tolerance": None, "passed": exp["id"] != "bad"}
        return [SimpleNamespace(experiment=exp["id"], passed=metric["passed"], metrics=[metric])]

    @staticmethod
    def report(records, fmt):
        return json.dumps({"records": [{"timestamp": "now", "metrics": r.metrics} for r in records]})


def test_failure_counter_counts_raised_failing_and_drifting_experiments():
    experiments = [{"id": name} for name in ("ok", "boom", "bad", "drift")]
    loop = worker.Loop(_FakeCli(), SimpleNamespace(experiments=experiments, seed=None, tolerances={}))
    loop.one()
    assert (loop.attempted, len(loop.failures)) == (4, 2)
    loop.one()
    assert (loop.attempted, len(loop.failures)) == (8, 5)
    assert [f.split(":")[0] for f in loop.failures] == ["boom", "bad", "boom", "bad", "drift"]

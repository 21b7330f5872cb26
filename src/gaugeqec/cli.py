"""Batch front end: experiment configs, orchestration, and machine-readable
reports.

Every check the package can run is expressed as a named experiment producing
ResultRecord rows, so one code path serves the subcommands, the config-file
runner, and the built-in acceptance suite. Records are merged by experiment
id before emission, which keeps reports deterministic; the timestamp is the
only field allowed to differ between identical runs.

Exit codes: 0 all asserted checks passed, 1 at least one failed, 2 malformed
usage or config.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import evolve as ev
from . import statevector as sv
from .gauss_code import (
    acts_trivially,
    classical_code,
    concat_hamming,
    concat_repetition,
    decode,
    gauss_generators,
    patch_sizes,
    syndrome_of,
    transversal_cnot_check,
    validate,
)
from .hamiltonian import (
    Couplings,
    boson_matrix,
    build_pauli,
    nonlocal_logical_form,
    string_boson_matrix,
    to_bosonic,
    to_logical,
    to_matrix,
)
from .lattice import Lattice
from .pauli import PauliString, PauliSum, parse

MATRIX_TOL = 1e-9
PROB_TOL = 1e-10
REPORT_FORMATS = ("json", "csv", "text")

CODE_KINDS = ("classical", "repetition-phase", "repetition-gauss", "hamming")


class ConfigError(ValueError):
    """Malformed configuration or experiment parameters (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Parsed experiment list plus run-wide defaults."""

    experiments: list
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    out_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        experiments = doc.get("experiments", [])
        if not isinstance(experiments, list):
            raise ConfigError("field 'experiments' must be a list")
        seed = doc.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ConfigError("field 'seed' must be an integer")
        tolerances = doc.get("tolerances", {})
        for name, value in tolerances.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"tolerance '{name}' must be positive")
        out_path = doc.get("out")
        config = cls(experiments, seed, dict(tolerances), out_path)
        for i, exp in enumerate(experiments):
            config._check_experiment(i, exp)
        if out_path is not None:
            _check_writable(out_path)
        return config

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_dict(doc)

    def _check_experiment(self, index: int, exp) -> None:
        where = f"experiments[{index}]"
        if not isinstance(exp, dict):
            raise ConfigError(f"{where} must be an object")
        kind = exp.get("kind")
        if kind not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigError(f"{where}.kind {kind!r} is not one of: {known}")
        dims = exp.get("dims")
        if dims is not None:
            if not (isinstance(dims, list) and dims and all(isinstance(n, int) and n >= 1 for n in dims)):
                raise ConfigError(f"{where}.dims must be a list of positive integers")
        if kind == "decode-sweep":
            errors = exp.get("errors")
            if errors is not None and errors not in ("x", "xyz"):
                raise ConfigError(f"{where}.errors must be 'x' or 'xyz', got {errors!r}")
            mode = exp.get("mode")
            if mode is not None and mode not in ("exhaustive", "sampled"):
                raise ConfigError(f"{where}.mode must be 'exhaustive' or 'sampled', got {mode!r}")
        if exp.get("mode") == "sampled":
            samples = exp.get("samples")
            if samples is None:
                raise ConfigError(f"{where}: sampled sweeps need a 'samples' count")
            if not isinstance(samples, int) or samples < 1:
                raise ConfigError(f"{where}.samples must be a positive integer, got {samples!r}")
            if exp.get("seed") is None and self.seed is None:
                raise ConfigError(f"{where}: sampled sweeps need a seed")
        tol = exp.get("tolerance")
        if tol is not None and not (isinstance(tol, (int, float)) and tol > 0):
            raise ConfigError(f"{where}.tolerance must be positive")


def _check_writable(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"output path {path} is not writable")


@dataclass
class ResultRecord:
    """One experiment outcome: echoed inputs plus toleranced metrics."""

    experiment: str
    timestamp: str
    inputs: dict
    metrics: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "timestamp": self.timestamp,
            "inputs": self.inputs,
            "metrics": self.metrics,
            "passed": self.passed,
        }


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _gap(name: str, value: float, tolerance: float) -> dict:
    value = float(value)
    return {"name": name, "value": value, "tolerance": float(tolerance), "passed": value <= tolerance}


def _flag(name: str, ok: bool) -> dict:
    return {"name": name, "value": 1.0 if ok else 0.0, "tolerance": None, "passed": bool(ok)}


def _report(name: str, value) -> dict:
    # report-mode metric: informational, never fails the run
    return {"name": name, "value": value, "tolerance": None, "passed": True}


def _record(experiment: str, inputs: dict, metrics: list) -> ResultRecord:
    return ResultRecord(
        experiment=experiment,
        timestamp=_now(),
        inputs=inputs,
        metrics=metrics,
        passed=all(m["passed"] for m in metrics),
    )


# -- shared builders -----------------------------------------------------------


def _couplings_of(exp: dict) -> Couplings:
    raw = exp.get("couplings", {})
    return Couplings(
        float(raw.get("mass", 1.0)),
        float(raw.get("hopping", 0.7)),
        float(raw.get("electric", 0.35)),
        float(raw.get("plaquette", 0.2)),
    )


def _echo_couplings(c: Couplings) -> dict:
    return {"mass": c.m, "hopping": c.epsilon, "electric": c.lambda_E, "plaquette": c.lambda_P}


def _dims_of(exp: dict, default=None) -> list:
    dims = exp.get("dims", default)
    if dims is None:
        raise ConfigError(f"experiment {exp.get('id', exp.get('kind'))} needs dims")
    return list(dims)


def _build_code(dims, kind: str):
    lat = Lattice(dims)
    if kind == "classical":
        return classical_code(lat)
    if kind == "repetition-phase":
        return concat_repetition(classical_code(lat), "phase_first")
    if kind == "repetition-gauss":
        return concat_repetition(classical_code(lat), "gauss_first")
    if kind == "hamming":
        raise ConfigError(
            "code kind 'hamming' is supported only by code build; validate and decode-sweep "
            f"take {', '.join(k for k in CODE_KINDS if k != 'hamming')}"
        )
    raise ConfigError(f"unknown code kind {kind!r}; choose one of {', '.join(CODE_KINDS)}")


def _frame_code(lat: Lattice):
    # small lattices still define a gauge frame, just not a distance-3 code
    return classical_code(lat, require_distance=lat.supports_distance3())


def _logical_h(dims, couplings: Couplings) -> PauliSum:
    lat = Lattice(dims)
    return to_logical(build_pauli(lat, couplings), _frame_code(lat))


def _restricted_spectrum_gap(dims, couplings: Couplings) -> float:
    """Largest eigenvalue difference between H restricted to the frame code,
    H[S, S] on its basis states S (equal to V^dagger H V for the frame
    isometry V), and the logical rewrite; both are 2^k x 2^k."""
    lat = Lattice(dims)
    code = _frame_code(lat)
    h_phys = build_pauli(lat, couplings)
    restricted = _eigvalsh(sv.restricted_matrix(h_phys, sv.codespace_basis(code)))
    logical = _eigvalsh(to_matrix(to_logical(h_phys, code)))
    gap = np.abs(np.sort(restricted) - np.sort(logical))
    return float(gap.max())


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    # a real matrix is diagonalized in real arithmetic, about 4x faster at 4096 dims
    return np.linalg.eigvalsh(mat if mat.imag.any() else mat.real)


def _gauge_violations(dims, couplings: Couplings) -> tuple:
    """(anticommuting term-generator pairs, terms, generators)."""
    lat = Lattice(dims)
    h = build_pauli(lat, couplings)
    gens = gauss_generators(lat)
    bad = sum(1 for _, p in h.terms for g in gens if not p.commutes(g))
    return bad, len(h.terms), len(gens)


def _boson_gap(dims, couplings: Couplings) -> float:
    h_logical = _logical_h(dims, couplings)
    dense = boson_matrix(to_bosonic(h_logical), h_logical.n_qubits)
    return float(np.abs(dense - to_matrix(h_logical)).max())


def _string_gap(dims, couplings: Couplings) -> float:
    form = nonlocal_logical_form(Lattice(dims), couplings)
    n = form.pauli.n_qubits
    return float(np.abs(string_boson_matrix(form.bosons, n) - to_matrix(form.pauli)).max())


def _oaa_gaps(p: PauliString, t: float, rng) -> tuple:
    """Gaps of the bare gadget's success probability from 1/4, of the
    amplified one's from 1, and of its action from e^{itP}, on a random
    input state drawn from rng."""
    dim = 1 << p.n_qubits
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amp /= np.linalg.norm(amp)
    full = np.zeros(4 * dim, dtype=complex)
    full[:dim] = amp
    out_v, _ = ev.run(ev.oaa_v(t, p), sv.Statevector(p.n_qubits + 2, full))
    prob_v, _ = ev.project_leading_zeros(out_v, 2)
    out_s, _ = ev.run(ev.oaa_exp_pauli(t, p), sv.Statevector(p.n_qubits + 2, full))
    prob_s = float(np.sum(np.abs(out_s.amps[:dim]) ** 2))
    target = sv.apply_exp_pauli(sv.Statevector(p.n_qubits, amp), t, p)
    overlap = abs(np.vdot(target.amps, out_s.amps[:dim]))
    return abs(prob_v - 0.25), abs(prob_s - 1.0), 1.0 - overlap


# -- experiment handlers --------------------------------------------------------


def run_code_build(exp: dict) -> list:
    dims = _dims_of(exp)
    kind = exp.get("code", "classical")
    lat = Lattice(dims)
    n, dn = lat.n_sites, lat.n_links
    inputs = {"dims": dims, "code": kind}
    if kind == "hamming":
        params = concat_hamming(lat, require_distance=False)
        need = n + dn
        metrics = [
            _flag("r_requirement", (1 << params.r) - 1 - 2 * params.r >= need),
            _flag("r_minimal", params.r == 2 or (1 << (params.r - 1)) - 1 - 2 * (params.r - 1) < need),
            _report("r", params.r),
            _report("n_physical", params.n_physical),
            _report("k", params.k),
            _gap("total_formula_gap", abs(params.total_formula - (need + 1 + 6 * math.log2(need + 1))), 1e-9),
        ]
        return [_record(exp["id"], inputs, metrics)]
    code = _build_code(dims, kind)
    if kind == "classical":
        expected = (n + dn, dn, 3)
    else:
        expected = (3 * (n + dn), n * lat.ndim, 3)
    metrics = [
        _flag("params_match", tuple(code.params) == expected),
        _report("params", list(code.params)),
        _report("n_generators", len(code.generators)),
    ]
    return [_record(exp["id"], inputs, metrics)]


def run_code_validate(exp: dict) -> list:
    dims = _dims_of(exp)
    kind = exp.get("code", "classical")
    code = _build_code(dims, kind)
    report = validate(code)
    metrics = [
        _flag("structure_ok", report["ok"]),
        _flag("sweep_complete", report["sweep"]["n_corrected"] == report["sweep"]["n_errors"]),
        _report("n_errors", report["sweep"]["n_errors"]),
        _report("rank", report["rank"]),
    ]
    for failure in report["failures"][:10]:
        metrics.append(_flag(f"failure: {failure}", False))
    return [_record(exp["id"], {"dims": dims, "code": kind}, metrics)]


def run_decode_sweep(exp: dict, seed=None) -> list:
    dims = _dims_of(exp)
    kind = exp.get("code", "classical")
    code = _build_code(dims, kind)
    letters = "X" if exp.get("errors", "x" if kind == "classical" else "xyz") == "x" else "XYZ"
    cases = [(q, letter) for q in range(code.n_physical) for letter in letters]
    mode = exp.get("mode", "exhaustive")
    if mode == "sampled":
        samples = exp["samples"]
        if samples > len(cases):
            raise ConfigError(f"{exp['id']}: {samples} samples asked of only {len(cases)} single-error cases")
        rng = np.random.default_rng(exp.get("seed", seed))
        picks = rng.choice(len(cases), size=samples, replace=False)
        cases = [cases[int(i)] for i in picks]
    records = []
    for qubit, letter in cases:
        error = PauliString.from_ops(code.n_physical, {qubit: letter})
        result = decode(code, syndrome_of(code, error))
        corrected = result.status == "corrected" and acts_trivially(code, error * result.correction)
        records.append(
            _record(
                f"{exp['id']}[{letter}@{qubit:03d}]",
                {"dims": dims, "code": kind, "error": f"{letter}@{qubit}"},
                [_flag("corrected", corrected), _report("status", result.status)],
            )
        )
    return records


def run_ham_build(exp: dict) -> list:
    dims = _dims_of(exp)
    couplings = _couplings_of(exp)
    form = exp.get("form", "physical")
    lat = Lattice(dims)
    h = build_pauli(lat, couplings)
    inputs = {"dims": dims, "couplings": _echo_couplings(couplings), "form": form}
    if form == "physical":
        terms = [[p.label(), float(c)] for c, p in h.terms]
    elif form == "logical":
        terms = [[p.label(), float(c)] for c, p in to_logical(h, _frame_code(lat)).terms]
    elif form == "boson":
        bosons = to_bosonic(to_logical(h, _frame_code(lat)))
        terms = [[[[m, op] for m, op in t.factors], float(t.coeff)] for t in bosons]
    else:
        raise ConfigError(f"unknown hamiltonian form {form!r}")
    inputs["terms"] = terms
    metrics = [_report("n_terms", len(terms)), _flag("built", True)]
    return [_record(exp["id"], inputs, metrics)]


def run_gauge_invariance(exp: dict) -> list:
    dims = _dims_of(exp)
    couplings = _couplings_of(exp)
    bad, n_terms, n_generators = _gauge_violations(dims, couplings)
    metrics = [
        _flag("all_terms_commute", bad == 0),
        _report("n_terms", n_terms),
        _report("n_generators", n_generators),
    ]
    return [_record(exp["id"], {"dims": dims, "couplings": _echo_couplings(couplings)}, metrics)]


def run_spectrum_equivalence(exp: dict) -> list:
    dims = _dims_of(exp)
    couplings = _couplings_of(exp)
    tol = float(exp.get("tolerance", MATRIX_TOL))
    gap = _restricted_spectrum_gap(dims, couplings)
    metrics = [_gap("spectrum_gap", gap, tol)]
    return [_record(exp["id"], {"dims": dims, "couplings": _echo_couplings(couplings)}, metrics)]


def run_boson_equivalence(exp: dict) -> list:
    dims = _dims_of(exp)
    couplings = _couplings_of(exp)
    tol = float(exp.get("tolerance", 1e-12))
    metrics = [_gap("matrix_gap", _boson_gap(dims, couplings), tol)]
    return [_record(exp["id"], {"dims": dims, "couplings": _echo_couplings(couplings)}, metrics)]


def run_string_variant(exp: dict) -> list:
    dims = _dims_of(exp, default=[3])
    couplings = _couplings_of(exp)
    tol = float(exp.get("tolerance", MATRIX_TOL))
    metrics = [_gap("matrix_gap", _string_gap(dims, couplings), tol)]
    return [_record(exp["id"], {"dims": dims, "couplings": _echo_couplings(couplings)}, metrics)]


def run_trotter(exp: dict) -> list:
    dims = _dims_of(exp)
    couplings = _couplings_of(exp)
    t = float(exp.get("t", 0.5))
    steps = int(exp.get("steps", 8))
    order = int(exp.get("order", 1))
    h = _logical_h(dims, couplings)
    exact = sv.exact_evolve(h, t)
    u = ev.trotter_unitary(h, t, steps, order)
    err = sv.spectral_norm(u - exact)
    unitarity = float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())
    # one Trotter matrix alive at a time: U(steps) goes before U(2 steps) is built
    del u
    err2 = ev.trotter_error(h, t, 2 * steps, order, exact=exact)
    metrics = [
        _report("trotter_error", err),
        _report("trotter_error_doubled", float(err2)),
        _report("error_ratio", float(err2 / err) if err > 0 else 0.0),
        _gap("unitarity_gap", unitarity, PROB_TOL),
        _report("n_gates", len(ev.trotter_circuit(h, t, steps, order).gates)),
    ]
    inputs = {"dims": dims, "couplings": _echo_couplings(couplings), "t": t, "steps": steps, "order": order}
    return [_record(exp["id"], inputs, metrics)]


def run_lcu_check(exp: dict) -> list:
    dims = _dims_of(exp, default=[4])
    couplings = _couplings_of(exp)
    h = _logical_h(dims, couplings)
    oracles = ev.lcu_organize(h)
    prep = ev.build_prep(oracles)
    err = ev.block_encoding_error(h)
    ratio = oracles.dN / (1 << oracles.n)
    lo, hi = ev.toffoli_bounds(oracles.n) if oracles.n >= 2 else (None, None)
    metrics = [
        _gap("block_encoding_error", err, float(exp.get("tolerance", MATRIX_TOL))),
        _gap("prep_norm_gap", abs(float(np.linalg.norm(prep)) - 1.0), 1e-12),
        _flag("index_ratio_in_band", 0.5 < ratio <= 1.0),
        _report("eta", oracles.eta),
        _report("n_families", oracles.K),
        _report("toffoli_count", oracles.toffoli_count),
    ]
    if oracles.n >= 3:
        metrics.append(_flag("toffoli_in_bounds", lo <= oracles.toffoli_count <= hi))
    inputs = {"dims": dims, "couplings": _echo_couplings(couplings)}
    return [_record(exp["id"], inputs, metrics)]


def run_oaa_check(exp: dict) -> list:
    text = exp.get("pauli", "+Z")
    t = float(exp.get("t", 0.7))
    bare, amplified, action = _oaa_gaps(parse(text), t, np.random.default_rng(exp.get("seed", 17)))
    metrics = [
        _gap("bare_probability_gap", bare, PROB_TOL),
        _gap("amplified_probability_gap", amplified, PROB_TOL),
        _gap("action_overlap_gap", action, PROB_TOL),
    ]
    return [_record(exp["id"], {"pauli": text, "t": t}, metrics)]


# -- acceptance suite ------------------------------------------------------------


def _criterion_code_parameters() -> ResultRecord:
    metrics = []
    for dims in ([3], [4], [5], [3, 3]):
        lat = Lattice(dims)
        n, dn = lat.n_sites, lat.n_links
        code = classical_code(lat)
        metrics.append(_flag(f"classical{dims}", tuple(code.params) == (n + dn, dn, 3)))
    for dims in ([3], [3, 3]):
        lat = Lattice(dims)
        n, dn = lat.n_sites, lat.n_links
        for order in ("phase_first", "gauss_first"):
            code = concat_repetition(classical_code(lat), order)
            ok = tuple(code.params) == (3 * (n + dn), n * lat.ndim, 3)
            metrics.append(_flag(f"repetition{dims}:{order}", ok))
    for dims in ([3], [4], [3, 3]):
        lat = Lattice(dims)
        need = lat.n_qubits
        params = concat_hamming(lat, require_distance=False)
        expected_total = need + 1 + 6 * math.log2(need + 1)
        metrics.append(_flag(f"hamming_r{dims}", (1 << params.r) - 1 - 2 * params.r >= need))
        metrics.append(_gap(f"hamming_total_gap{dims}", abs(params.total_formula - expected_total), 1e-9))
    return _record("criterion-01-code-parameters", {"cases": "chains of 3,4,5 sites; 3x3 torus"}, metrics)


def _criterion_decoding() -> ResultRecord:
    metrics = []
    for dims in ([3], [4], [5], [3, 3]):
        report = validate(classical_code(Lattice(dims)))
        sweep = report["sweep"]
        metrics.append(_flag(f"classical{dims}_all_corrected", sweep["n_corrected"] == sweep["n_errors"]))
        syndromes = [row["syndrome"] for row in sweep["rows"]]
        metrics.append(_flag(f"classical{dims}_syndromes_injective", len(set(syndromes)) == len(syndromes)))
    for dims, expected in (([3], 54), ([3, 3], 243)):
        for order in ("phase_first", "gauss_first"):
            report = validate(concat_repetition(classical_code(Lattice(dims)), order))
            sweep = report["sweep"]
            ok = sweep["n_errors"] == expected and sweep["n_corrected"] == expected
            metrics.append(_flag(f"repetition{dims}:{order}_all_corrected", ok))
    # single-defect and adjacent-defect patterns for the 3-site chain
    lat = Lattice([3])
    code = classical_code(lat)
    table_ok = True
    for site in range(3):
        syn = syndrome_of(code, PauliString.from_ops(6, {lat.site_qubit((site,)): "X"}))
        table_ok &= [i for i, b in enumerate(syn.bits) if b] == [site]
    for link in range(3):
        syn = syndrome_of(code, PauliString.from_ops(6, {lat.link_qubit((link,), 0): "X"}))
        table_ok &= sorted(i for i, b in enumerate(syn.bits) if b) == sorted({link, (link + 1) % 3})
    metrics.append(_flag("single_error_syndrome_table", bool(table_ok)))
    return _record("criterion-02-decoding", {"cases": "classical + both concatenations"}, metrics)


def _criterion_stabilizer_weights() -> ResultRecord:
    metrics = []
    expected = {
        ("phase_first", 1): (9, 2),
        ("gauss_first", 1): (3, 6),
        ("phase_first", 2): (15, 2),
        ("gauss_first", 2): (5, 6),
    }
    for dims in ([3], [3, 3], [3, 3, 3]):
        lat = Lattice(dims)
        d = lat.ndim
        for order in ("phase_first", "gauss_first"):
            code = concat_repetition(classical_code(lat), order)
            wz = max(g.weight() for g in code.gauss_checks)
            wx = max(g.weight() for g in code.x_checks)
            if (order, d) in expected:
                metrics.append(_flag(f"weights{dims}:{order}", (wz, wx) == expected[(order, d)]))
            formula = 3 * (2 * d + 1) if order == "phase_first" else 2 * d + 1
            metrics.append(_flag(f"gauss_weight_formula{dims}:{order}", wz == formula))
            if order == "gauss_first":
                metrics.append(_flag(f"max_weight_formula{dims}", max(wz, wx) == max(2 * d + 1, 6)))
    return _record("criterion-03-stabilizer-weights", {"cases": "d=1,2,3"}, metrics)


def _criterion_gauge_invariance() -> ResultRecord:
    couplings = Couplings(1.0, 0.7, 0.35, 0.2)
    metrics = []
    for dims in ([3], [4], [6], [2, 2], [3, 3]):
        bad, _, _ = _gauge_violations(dims, couplings)
        metrics.append(_flag(f"commutes{dims}", bad == 0))
    return _record("criterion-04-gauge-invariance", {"couplings": _echo_couplings(couplings)}, metrics)


def _criterion_spectral_duality() -> ResultRecord:
    rng = np.random.default_rng(11)
    metrics = []
    for trial in range(3):
        couplings = Couplings(
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(0.2, 1.5)),
        )
        for dims in ([4], [2, 2]):
            gap = _restricted_spectrum_gap(dims, couplings)
            metrics.append(_gap(f"spectrum_gap{dims}#{trial}", gap, MATRIX_TOL))
    return _record("criterion-05-spectral-duality", {"seed": 11, "trials": 3}, metrics)


def _criterion_boson_equivalence() -> ResultRecord:
    couplings = Couplings(1.0, 0.7, 0.35, 0.2)
    metrics = []
    for dims in ([4], [2, 2]):
        metrics.append(_gap(f"matrix_gap{dims}", _boson_gap(dims, couplings), 1e-12))
    return _record("criterion-06-boson-equivalence", {"couplings": _echo_couplings(couplings)}, metrics)


def _criterion_string_variant() -> ResultRecord:
    couplings = Couplings(1.0, 0.7, 0.35)
    metrics = [_gap("matrix_gap", _string_gap([3], couplings), MATRIX_TOL)]
    return _record("criterion-07-string-variant", {"dims": [3], "couplings": _echo_couplings(couplings)}, metrics)


def _criterion_block_encoding() -> ResultRecord:
    couplings = Couplings(1.0, 0.7, 0.35)
    h = _logical_h([4], couplings)
    oracles = ev.lcu_organize(h)
    prep = ev.build_prep(oracles)
    ratio = oracles.dN / (1 << oracles.n)
    metrics = [
        _gap("block_encoding_error", ev.block_encoding_error(h), MATRIX_TOL),
        _gap("prep_norm_gap", abs(float(np.linalg.norm(prep)) - 1.0), 1e-12),
        _flag("index_ratio_in_band", 0.5 < ratio <= 1.0),
        _flag("n_index_qubits", oracles.n == 2),
        _flag("n_families", oracles.K == 4),
        _gap("eta_gap", abs(oracles.eta - (1.0 / 2 + 0.7 + 2 * 0.35)), 1e-12),
    ]
    return _record("criterion-08-block-encoding", {"dims": [4], "couplings": _echo_couplings(couplings)}, metrics)


def _criterion_select_cost() -> ResultRecord:
    metrics = []
    for n in (3, 4, 5):
        lo, hi = ev.toffoli_bounds(n)
        count = ev.select_toffoli_count(n)
        metrics.append(_flag(f"n={n}", lo <= count <= hi))
        metrics.append(_report(f"count_n{n}", count))
    return _record("criterion-09-select-cost", {"accounting": "logical-AND computations"}, metrics)


def _criterion_gadgets() -> ResultRecord:
    rng = np.random.default_rng(23)
    metrics = []
    for t in (0.1, 0.7, math.pi / 2):
        for text in ("Z", "XX", "XZX"):
            bare, amplified, action = _oaa_gaps(parse(text), t, rng)
            tag = f"{text}@t={t:.4f}"
            metrics.append(_gap(f"bare_prob_gap:{tag}", bare, PROB_TOL))
            metrics.append(_gap(f"amplified_prob_gap:{tag}", amplified, PROB_TOL))
            metrics.append(_gap(f"overlap_gap:{tag}", action, PROB_TOL))
    return _record("criterion-10-gadgets", {"grid": "t in {0.1,0.7,pi/2} x P in {Z,XX,XZX}"}, metrics)


def _criterion_trotter() -> ResultRecord:
    couplings = Couplings(1.0, 0.7, 0.35)
    h = _logical_h([3], couplings)
    exact = sv.exact_evolve(h, 0.5)
    metrics = []
    for order, lo, hi in ((1, 0.35, 0.65), (2, 0.15, 0.35)):
        errors = {r: ev.trotter_error(h, 0.5, r, order, exact=exact) for r in (8, 16, 32, 64)}
        for r in (8, 16, 32):
            ratio = errors[2 * r] / errors[r]
            metrics.append(_flag(f"order{order}_ratio_r{r}", lo <= ratio <= hi))
            metrics.append(_report(f"order{order}_error_r{r}", float(errors[r])))
    return _record("criterion-11-trotter", {"dims": [3], "t": 0.5}, metrics)


def _criterion_transversal_cnot() -> ResultRecord:
    report = transversal_cnot_check()
    metrics = [_flag("truth_table_and_stabilizers", report["pass"])]
    metrics.append(_report("n_cases", len(report["cases"])))
    return _record("criterion-12-transversal-cnot", {"check": "componentwise CNOT on concatenated blocks"}, metrics)


def _criterion_universal_gates() -> ResultRecord:
    code = classical_code(Lattice([3]))
    ket0 = sv.Statevector.basis(8, "00" + "010000").amps
    flip = sv.pauli_matrix(code.logical_x[0])
    ket1 = np.kron(np.eye(4)[0], flip @ sv.Statevector.basis(6, "010000").amps)
    u_h = ev.circuit_unitary(ev.logical_gate(code, "h", (0,)))
    h_gap = float(np.abs(u_h @ ket0 - (ket0 + ket1) / math.sqrt(2)).max())
    plus = ev.circuit_unitary(ev.logical_gate(code, "rz", (0,), theta=0.77))
    minus = ev.circuit_unitary(ev.logical_gate(code, "rz", (0,), theta=-0.77))
    prod = plus @ minus
    rz_gap = float(np.abs(prod[:64, :64] - np.eye(64)).max())
    metrics = [
        _gap("hadamard_zero_to_plus_gap", h_gap, MATRIX_TOL),
        _gap("rotation_pair_identity_gap", rz_gap, MATRIX_TOL),
    ]
    return _record("criterion-13-universal-gates", {"code": "3-site chain gauge code"}, metrics)


def _criterion_patch_sizes() -> ResultRecord:
    metrics = [
        _flag("plain_patch", patch_sizes(2) == 63),
        _flag("doubled_patch", patch_sizes(2, doubling=True) == 27),
    ]
    return _record("criterion-14-patch-sizes", {"ndim": 2}, metrics)


def _criterion_clifford_structure() -> ResultRecord:
    couplings = Couplings(1.0, 0.7, 0.35)
    code = classical_code(Lattice([3]))
    h = _logical_h([3], couplings)
    circuits = {
        "ft_trotter_order1": ev.ft_compile(ev.trotter_circuit(h, 0.5, 2, 1)),
        "ft_trotter_order2": ev.ft_compile(ev.trotter_circuit(h, 0.5, 1, 2)),
        "logical_h": ev.logical_gate(code, "h", (0,)),
        "logical_rz": ev.logical_gate(code, "rz", (1,), theta=0.3),
        "logical_cnot": ev.logical_gate(code, "cnot", (0, 2)),
        "logical_x": ev.logical_gate(code, "x", (0,)),
    }
    metrics = []
    for name, circuit in circuits.items():
        try:
            census = ev.assert_clifford_on_lattice(circuit)
            metrics.append(_flag(f"clifford_only:{name}", census["clifford_only"]))
        except ValueError as exc:
            metrics.append(_flag(f"clifford_only:{name} ({exc})", False))
    return _record("criterion-15-clifford-structure", {"circuits": sorted(circuits)}, metrics)


ACCEPTANCE_CRITERIA = (
    _criterion_code_parameters,
    _criterion_decoding,
    _criterion_stabilizer_weights,
    _criterion_gauge_invariance,
    _criterion_spectral_duality,
    _criterion_boson_equivalence,
    _criterion_string_variant,
    _criterion_block_encoding,
    _criterion_select_cost,
    _criterion_gadgets,
    _criterion_trotter,
    _criterion_transversal_cnot,
    _criterion_universal_gates,
    _criterion_patch_sizes,
    _criterion_clifford_structure,
)


def run_acceptance(exp: dict) -> list:
    wanted = exp.get("criteria")
    records = []
    for i, check in enumerate(ACCEPTANCE_CRITERIA, start=1):
        if wanted is not None and i not in wanted:
            continue
        records.append(check())
    return records


EXPERIMENTS = {
    "code-build": run_code_build,
    "code-validate": run_code_validate,
    "decode-sweep": run_decode_sweep,
    "ham-build": run_ham_build,
    "gauge-invariance": run_gauge_invariance,
    "spectrum-equivalence": run_spectrum_equivalence,
    "boson-equivalence": run_boson_equivalence,
    "string-variant": run_string_variant,
    "trotter": run_trotter,
    "lcu-check": run_lcu_check,
    "oaa-check": run_oaa_check,
    "acceptance": run_acceptance,
}


def run(config: ExperimentConfig) -> list:
    """Execute every experiment in the config; records come back sorted by
    experiment id so emission order never depends on scheduling."""
    records = []
    for i, exp in enumerate(config.experiments):
        exp = dict(exp)
        exp.setdefault("id", f"{exp['kind']}-{i}")
        handler = EXPERIMENTS[exp["kind"]]
        if exp["kind"] == "decode-sweep":
            records.extend(handler(exp, seed=config.seed))
        else:
            records.extend(handler(exp))
    return sorted(records, key=lambda r: r.experiment)


# -- reports ---------------------------------------------------------------------


def report(records: list, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "records": [r.to_dict() for r in records],
            "summary": {
                "total": len(records),
                "passed": sum(1 for r in records if r.passed),
                "failed": sum(1 for r in records if not r.passed),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "metric", "value", "tolerance", "passed"])
        for r in records:
            for m in r.metrics:
                tol = "" if m["tolerance"] is None else repr(m["tolerance"])
                writer.writerow([r.experiment, m["name"], m["value"], tol, m["passed"]])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for r in records:
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(f"{verdict} {r.experiment}")
            for m in r.metrics:
                if not m["passed"]:
                    lines.append(f"     failed metric {m['name']} = {m['value']} (tolerance {m['tolerance']})")
        passed = sum(1 for r in records if r.passed)
        lines.append(f"{passed}/{len(records)} experiments passed")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def _emit(records: list, fmt: str, out_path) -> None:
    text = report(records, fmt)
    if out_path:
        _check_writable(out_path)
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- argument parsing --------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=REPORT_FORMATS, default="text")
    parser.add_argument("--out", default=None, help="write the report to this path")


def _add_couplings(parser) -> None:
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--hopping", type=float, default=0.7)
    parser.add_argument("--electric", type=float, default=0.35)
    parser.add_argument("--plaquette", type=float, default=0.2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeqec",
        description="Gauge-covariant code and evolution experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    code = sub.add_parser("code", help="stabilizer code construction and decoding")
    code_sub = code.add_subparsers(dest="action", required=True)
    for action in ("build", "validate", "decode-sweep"):
        p = code_sub.add_parser(action)
        p.add_argument("--dims", type=int, nargs="+", required=True)
        p.add_argument("--kind", choices=CODE_KINDS, default="classical")
        if action == "decode-sweep":
            p.add_argument("--errors", choices=("x", "xyz"), default=None)
            p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        _add_common(p)

    ham = sub.add_parser("ham", help="Hamiltonian construction and verification")
    ham_sub = ham.add_subparsers(dest="action", required=True)
    for action in ("build", "verify"):
        p = ham_sub.add_parser(action)
        p.add_argument("--dims", type=int, nargs="+", required=True)
        _add_couplings(p)
        if action == "build":
            p.add_argument("--form", choices=("physical", "logical", "boson"), default="physical")
        _add_common(p)

    evolve = sub.add_parser("evolve", help="time-evolution checks")
    evolve_sub = evolve.add_subparsers(dest="action", required=True)
    trotter = evolve_sub.add_parser("trotter")
    trotter.add_argument("--dims", type=int, nargs="+", required=True)
    trotter.add_argument("--t", type=float, default=0.5)
    trotter.add_argument("--steps", type=int, default=8)
    trotter.add_argument("--order", type=int, choices=(1, 2), default=1)
    _add_couplings(trotter)
    _add_common(trotter)
    lcu = evolve_sub.add_parser("lcu-check")
    lcu.add_argument("--dims", type=int, nargs="+", required=True)
    _add_couplings(lcu)
    _add_common(lcu)
    oaa = evolve_sub.add_parser("oaa-check")
    oaa.add_argument("--pauli", default="+Z")
    oaa.add_argument("--t", type=float, default=0.7)
    oaa.add_argument("--seed", type=int, default=17)
    _add_common(oaa)

    suite = sub.add_parser("suite", help="built-in experiment suites")
    suite.add_argument("name", choices=("acceptance",))
    suite.add_argument("--criteria", type=int, nargs="+", default=None)
    _add_common(suite)

    runner = sub.add_parser("run", help="run experiments from a JSON config")
    runner.add_argument("--config", required=True)
    _add_common(runner)

    return parser


def _couplings_dict(args) -> dict:
    return {
        "mass": args.mass,
        "hopping": args.hopping,
        "electric": args.electric,
        "plaquette": args.plaquette,
    }


def _config_from_args(args) -> ExperimentConfig:
    if args.command == "run":
        return ExperimentConfig.from_file(args.config)
    if args.command == "suite":
        exp = {"id": "acceptance", "kind": "acceptance"}
        if args.criteria:
            exp["criteria"] = args.criteria
        return ExperimentConfig.from_dict({"experiments": [exp]})
    if args.command == "code":
        exp = {"id": f"code-{args.action}", "dims": args.dims, "code": args.kind}
        if args.action == "build":
            exp["kind"] = "code-build"
        elif args.action == "validate":
            exp["kind"] = "code-validate"
        else:
            exp["kind"] = "decode-sweep"
            if args.errors:
                exp["errors"] = args.errors
            exp["mode"] = args.mode
            if args.samples is not None:
                exp["samples"] = args.samples
            if args.seed is not None:
                exp["seed"] = args.seed
        return ExperimentConfig.from_dict({"experiments": [exp]})
    if args.command == "ham":
        exp = {"id": f"ham-{args.action}", "dims": args.dims, "couplings": _couplings_dict(args)}
        if args.action == "build":
            exp["kind"] = "ham-build"
            exp["form"] = args.form
            return ExperimentConfig.from_dict({"experiments": [exp]})
        verify = [
            dict(exp, id="ham-verify-gauge", kind="gauge-invariance"),
            dict(exp, id="ham-verify-spectrum", kind="spectrum-equivalence"),
        ]
        return ExperimentConfig.from_dict({"experiments": verify})
    if args.command == "evolve":
        if args.action == "trotter":
            exp = {
                "id": "evolve-trotter",
                "kind": "trotter",
                "dims": args.dims,
                "couplings": _couplings_dict(args),
                "t": args.t,
                "steps": args.steps,
                "order": args.order,
            }
        elif args.action == "lcu-check":
            exp = {
                "id": "evolve-lcu",
                "kind": "lcu-check",
                "dims": args.dims,
                "couplings": _couplings_dict(args),
            }
        else:
            exp = {"id": "evolve-oaa", "kind": "oaa-check", "pauli": args.pauli, "t": args.t, "seed": args.seed}
        return ExperimentConfig.from_dict({"experiments": [exp]})
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        records = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # capacity and construction errors carry their own explanation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(records, args.format, args.out or config.out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

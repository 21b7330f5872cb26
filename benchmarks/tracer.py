"""Outside-in tracing for the gaugeqec benchmark.

The tracer replaces the public functions and methods of each gaugeqec module,
plus ``numpy.linalg.{eigh,eigvalsh,norm}``, ``cli.run`` and two cli helpers,
with wrappers that record spans; nothing inside the package is edited. Hot
methods get counting wrappers instead, because a span per call would cost
more than the call. Spans stay in memory with the index of their parent
span and are written out once, at the end of the run.

A layer is a module, plus ``linalg`` for numpy.linalg. A span's self time is
its duration minus the part of it that its child spans cover, so the self
times of all spans add up to the time covered by the root spans. Generator
functions get no span: a span would close when the generator is returned, so
their bodies run, and count, in the caller's self time either way.
"""

import inspect
import json
import math
import statistics
import time

import numpy as np

LAYERS = ("lattice", "pauli", "gf2", "gauss_code", "hamiltonian", "statevector", "evolve", "linalg", "cli")
_MODULES = {
    "lattice": "lattice",
    "pauli": "pauli",
    "gf2": "_gf2",
    "gauss_code": "gauss_code",
    "hamiltonian": "hamiltonian",
    "statevector": "statevector",
    "evolve": "evolve",
}
# cli.run is the root span of each experiment; the other two are helpers
CLI_SPANS = ("run", "_restricted_spectrum_gap", "report")
LINALG = ("eigh", "eigvalsh", "norm")

# counted, not spanned: millions of calls per pass
HOT_METHODS = {
    "lattice": {
        "Lattice": (
            "_coords",
            "site_index",
            "site_coords",
            "shift",
            "site_qubit",
            "link_qubit",
            "link_site_axis",
            "link_endpoints",
            "is_site_qubit",
        )
    },
    "pauli": {"PauliString": ("commutes",)},
}
_ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__sub__")


def _code_size(args, kwargs, result):
    code = args[0]
    return [code.kind, code.n_physical]


def _circuit_size(args, kwargs, result):
    circuit = args[0]
    return [circuit.n_qubits, len(circuit.gates)]


def _select_bytes(args, kwargs, result):
    return result[0].nbytes


def _norm_ord(args, kwargs, result):
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return 2 if order == 2 and np.ndim(args[0]) == 2 else None


def _result_bytes(args, kwargs, result):
    return result.nbytes if isinstance(result, np.ndarray) else None


# per-span notes, taken from the arguments and result after the call
NOTES = {
    **{
        f"statevector.{name}": _result_bytes
        for name in (
            "pauli_matrix",
            "pauli_sum_matrix",
            "frame_isometry",
            "encoded_isometry",
            "codespace_projector",
            "exact_evolve",
        )
    },
    "gauss_code.syndrome_of": _code_size,
    "gauss_code.decode": _code_size,
    "evolve.circuit_unitary": _circuit_size,
    "evolve.run": _circuit_size,
    "evolve.build_select": _select_bytes,
    "linalg.norm": _norm_ord,
}


class Tracer:
    """Span and counter store plus the patches that feed it.

    ``spans[i]`` is ``(parent, name, start, end, note)``, with ``parent`` the
    index of the enclosing span or -1 for a root. Counters map a name to the
    number of calls.
    """

    def __init__(self):
        self.spans = []
        self._cells = {}
        self._stack = [-1]
        self._undo = []

    @property
    def counts(self) -> dict:
        return {name: cell[0] for name, cell in self._cells.items()}

    def reset(self) -> None:
        """Drop recorded spans and zero the counters; patches stay in place."""
        self.spans = []
        for cell in self._cells.values():
            cell[0] = 0

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        note = NOTES.get(name)
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end, note(args, kwargs, result) if note and result is not None else None)

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """``fn`` adding one to counter ``name`` per call."""
        cell = self._cells.setdefault(name, [0])

        def counting(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the package's modules, numpy.linalg and the cli helpers.

        Every module of the package that holds an alias of a wrapped function
        (``from .gauss_code import decode`` in cli, for instance) gets the
        wrapper too, so calls through the alias are recorded.
        """
        import importlib

        modules = {layer: importlib.import_module(f"{package}.{mod}") for layer, mod in _MODULES.items()}
        cli = importlib.import_module(f"{package}.cli")
        replaced = {}
        for layer, module in modules.items():
            hot = HOT_METHODS.get(layer, {})
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._install_class(layer, value, hot.get(attr, ()))
                elif callable(value) and not inspect.isgeneratorfunction(value):
                    wrapper = self.wrap(f"{layer}.{attr}", value)
                    replaced[id(value)] = wrapper
                    self._patch(module, attr, wrapper)
        for attr in CLI_SPANS:
            wrapper = self.wrap(f"cli.{attr}", vars(cli)[attr])
            self._patch(cli, attr, wrapper)
        for attr in LINALG:
            self._patch(np.linalg, attr, self.wrap(f"linalg.{attr}", vars(np.linalg)[attr]))
        for module in (*modules.values(), cli):
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and vars(module)[attr] is not wrapper:
                    self._patch(module, attr, wrapper)

    def _install_class(self, layer: str, cls, hot: tuple) -> None:
        for attr, value in list(vars(cls).items()):
            if attr in hot:
                self._patch(cls, attr, self.counted(f"{layer}.{cls.__name__}.{attr}", value))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self.wrap(f"{layer}.{cls.__name__}.{attr}", value.__func__)
                self._patch(cls, attr, type(value)(wrapped))
            elif inspect.isgeneratorfunction(value):
                continue
            elif callable(value) and (not attr.startswith("_") or attr in _ARITHMETIC):
                self._patch(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", value))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def dump_spans(spans: list, path: str) -> None:
    """Write spans as JSON lines: [index, parent, name, start, end, note]."""
    with open(path, "w") as fh:
        for sid, (parent, name, start, end, note) in enumerate(spans):
            fh.write(json.dumps([sid, parent, name, start, end, note]) + "\n")


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the union of its children's
    intervals, clipped to its own interval."""
    children = [[] for _ in spans]
    for sid, (parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent].append(sid)
    out = []
    for sid, (_parent, _name, start, end, _note) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children[sid]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def inclusive(spans: list, names) -> float:
    """Time inside spans named in ``names``, counting nested ones once."""
    names = set(names)
    total = 0.0
    for parent, name, start, end, _note in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][1] not in names:
            parent = spans[parent][0]
        if parent < 0:
            total += end - start
    return total


# the sweep figures follow one decoder: repetition-gauss, whose [6,6] code has
# as many qubits as repetition-phase's, which decodes another way
SWEEP_KIND = "concat_gauss_first"


def _per_case(spans: list, n_physical: int) -> float:
    """Mean syndrome_of plus mean decode time on the SWEEP_KIND code of
    n_physical qubits."""
    mean = 0.0
    for name in ("gauss_code.syndrome_of", "gauss_code.decode"):
        times = [s[3] - s[2] for s in spans if s[1] == name and s[4] == [SWEEP_KIND, n_physical]]
        mean += statistics.fmean(times) if times else 0.0
    return mean


def _sweep_slope(spans: list) -> float:
    """Log-log slope of exhaustive sweep time, taken as 3n cases times the
    per-case cost, against n physical qubits from [6,6] to [9,9]."""
    small, large = 324, 729  # repetition-gauss codes on the 6x6 and 9x9 tori
    t_small, t_large = _per_case(spans, small), _per_case(spans, large)
    if t_small <= 0 or t_large <= 0:
        return 0.0
    return math.log((3 * large * t_large) / (3 * small * t_small)) / math.log(large / small)


def _per_gate(spans: list, name: str, dim=None) -> float:
    busy, gates = 0.0, 0
    for _parent, span_name, start, end, note in spans:
        if span_name == name and note is not None and (dim is None or 1 << note[0] == dim):
            busy += end - start
            gates += note[1]
    return busy / gates if gates else 0.0


def _unitary_bytes_per_gate(spans: list) -> float:
    # computed: each gate reads and writes the whole dim x dim complex128 matrix
    moved, gates = 0, 0
    for _parent, name, _start, _end, note in spans:
        if name == "evolve.circuit_unitary" and note is not None:
            dim = 1 << note[0]
            moved += note[1] * 2 * 16 * dim * dim
            gates += note[1]
    return moved / gates if gates else 0.0


def layer_metrics(spans: list, counts: dict, wall: float) -> dict:
    """Per-layer figures of one traced pass that took ``wall`` seconds."""
    selfs = self_times(spans)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for (_parent, name, *_rest), own in zip(spans, selfs):
        by_layer[layer_of(name)] += own
    roots = sum(end - start for parent, _n, start, end, _note in spans if parent < 0)
    names = [s[1] for s in spans]
    dense = [s[4] for s in spans if layer_of(s[1]) == "statevector" and isinstance(s[4], int)]
    selects = [s[4] for s in spans if s[1] == "evolve.build_select" and s[4] is not None]
    lcu = ("evolve.lcu_organize", "evolve.build_prep", "evolve.build_select", "evolve.encoded_block",
           "evolve.block_encoding_error")
    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    m.update(
        {
            "lattice.calls": sum(v for k, v in counts.items() if k.startswith("lattice.")),
            "pauli.commutes_calls": counts.get("pauli.PauliString.commutes", 0),
            "gf2.solve_calls": names.count("gf2.Solver.solve"),
            "gauss_code.build_s": inclusive(
                spans,
                ("gauss_code.gauss_generators", "gauss_code.classical_code", "gauss_code.concat_repetition",
                 "gauss_code.concat_hamming"),
            ),
            "gauss_code.validate_s": inclusive(spans, ("gauss_code.validate",)),
            "gauss_code.decode_s_per_case": _per_case(spans, 729),
            "gauss_code.sweep_slope": _sweep_slope(spans),
            "hamiltonian.build_pauli_s": inclusive(spans, ("hamiltonian.build_pauli",)),
            "hamiltonian.to_logical_s": inclusive(spans, ("hamiltonian.to_logical",)),
            "hamiltonian.boson_matrix_s": inclusive(
                spans, ("hamiltonian.boson_matrix", "hamiltonian.string_boson_matrix")
            ),
            "statevector.isometry_s": inclusive(spans, ("statevector.encoded_isometry", "statevector.frame_isometry")),
            "statevector.pauli_sum_matrix_s": inclusive(spans, ("statevector.pauli_sum_matrix",)),
            "statevector.dense_bytes": max(dense, default=0),
            "evolve.unitary_s_per_gate_256": _per_gate(spans, "evolve.circuit_unitary", 256),
            "evolve.unitary_s_per_gate_1024": _per_gate(spans, "evolve.circuit_unitary", 1024),
            "evolve.unitary_bytes_per_gate": _unitary_bytes_per_gate(spans),
            "evolve.run_s_per_gate": _per_gate(spans, "evolve.run"),
            "evolve.lcu_s": inclusive(spans, lcu),
            "evolve.select_bytes": max(selects, default=0),
            "linalg.eig_s": inclusive(spans, ("linalg.eigh", "linalg.eigvalsh")),
            "linalg.norm2_s": sum(s[3] - s[2] for s in spans if s[1] == "linalg.norm" and s[4] == 2),
            "cli.restricted_spectrum_s": inclusive(spans, ("cli._restricted_spectrum_gap",)),
            "cli.report_s": inclusive(spans, ("cli.report",)),
            "untraced_s": wall - roots,
        }
    )
    return m


def coverage_problems(spans: list, wall: float, n_experiments: int, max_untraced: float = 0.05) -> list:
    """What is wrong with one traced pass of ``n_experiments`` experiments.

    Each experiment must be one root ``cli.run`` span, the only other roots
    may be ``cli.report`` spans, and time outside every root span must be
    non-negative and at most ``max_untraced`` of the pass.
    """
    roots = [(name, end - start) for parent, name, start, end, _note in spans if parent < 0]
    problems = []
    runs = sum(name == "cli.run" for name, _d in roots)
    if runs != n_experiments:
        problems.append(f"{runs} root cli.run spans for {n_experiments} experiments")
    strays = sorted({name for name, _d in roots} - {"cli.run", "cli.report"})
    if strays:
        problems.append(f"root spans outside cli.run: {', '.join(strays)}")
    untraced = wall - sum(d for _name, d in roots)
    if not 0 <= untraced <= max_untraced * wall:
        problems.append(f"untraced_s {untraced:.6f} s of a {wall:.6f} s pass")
    return problems

"""Time-evolution circuits: Trotter schedules, exponential gadgets, and
block-encoding oracles, plus the structural check that keeps every
lattice-register operation Clifford.

Conventions used throughout:

* Circuits act on qubit 0 as the most significant bit, matching the
  statevector engine. Gadget ancillas sit in front of the system register,
  so postselecting them on zero keeps the leading block of amplitudes.
* exp_pauli(t, p) means e^{itP} = cos(t) + i sin(t) P. Trotter steps of
  e^{-iHt} therefore emit exp_pauli gates with negated angles.
* The probabilistic exponential gadget prepares an ancilla with
  W(t)|0> = cos(t)|0> - i sin(t)|1>, entangles it with the system through
  one controlled Pauli, rotates back with a Hadamard and flips the ancilla.
  Outcome 0 then carries e^{itP} with probability exactly one half for every
  input state, which is what the amplification step below relies on.
* Oblivious amplitude amplification adds one more ancilla in |+>, lowering
  the success probability to one quarter, and applies S = -V R V' R with R
  the reflection about |00> on the two ancillas. A quarter amplifies to
  exact success in a single round, so the gadget is deterministic.
* State injection for the W rotation is modeled as a direct W gate on the
  ancilla register; the circuit metadata records this shortcut.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import statevector as sv
from .pauli import PauliString, PauliSum

GATE_KINDS = (
    "pauli",
    "exp_pauli",
    "h",
    "cnot",
    "cpauli",
    "reflection",
    "w",
    "global_phase",
    "measure",
    "classical_pauli",
)

# gate kinds that may touch the lattice register in a fault-tolerant circuit
CLIFFORD_KINDS = ("pauli", "h", "cnot", "cpauli", "classical_pauli")


@dataclass
class Gate:
    kind: str
    qubits: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass
class Circuit:
    """Ordered gate list over named, disjoint qubit registers."""

    n_qubits: int
    registers: dict
    gates: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for name, qubits in self.registers.items():
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"register {name!r} qubit {q} out of range")
                if q in seen:
                    raise ValueError(f"registers overlap on qubit {q}")
                seen.add(q)

    def register_of(self, qubit: int) -> str:
        for name, qubits in self.registers.items():
            if qubit in qubits:
                return name
        return ""

    def _embedded(self, p: PauliString) -> PauliString:
        if p.n_qubits != self.n_qubits:
            raise ValueError("Pauli width does not match the circuit")
        return p

    def _support(self, p: PauliString) -> tuple:
        mask = p.x_mask | p.z_mask
        return tuple(q for q in range(self.n_qubits) if (mask >> q) & 1)

    def add(self, gate: Gate) -> "Circuit":
        for q in gate.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"gate {gate.kind} targets qubit {q} out of range")
        if gate.kind == "measure":
            reg = self.register_of(gate.qubits[0])
            if reg in ("system", "lattice"):
                raise ValueError("measurements are restricted to ancilla registers")
        self.gates.append(gate)
        return self

    # -- gate constructors -------------------------------------------------

    def pauli(self, p: PauliString) -> "Circuit":
        p = self._embedded(p)
        return self.add(Gate("pauli", self._support(p), {"p": p}))

    def exp_pauli(self, t: float, p: PauliString) -> "Circuit":
        p = self._embedded(p)
        if not p.is_hermitian():
            raise ValueError("exp_pauli needs a Hermitian operator")
        return self.add(Gate("exp_pauli", self._support(p), {"t": float(t), "p": p}))

    def h(self, qubit: int) -> "Circuit":
        return self.add(Gate("h", (qubit,)))

    def cnot(self, control: int, target: int) -> "Circuit":
        if control == target:
            raise ValueError("control and target must differ")
        return self.add(Gate("cnot", (control, target)))

    def cpauli(self, control: int, p: PauliString) -> "Circuit":
        p = self._embedded(p)
        if not p.is_hermitian():
            raise ValueError("controlled Pauli needs a Hermitian operator")
        support = self._support(p)
        if control in support:
            raise ValueError("control qubit overlaps the Pauli support")
        return self.add(Gate("cpauli", (control,) + support, {"control": control, "p": p}))

    def reflection(self, qubits) -> "Circuit":
        return self.add(Gate("reflection", tuple(qubits)))

    def w(self, t: float, qubit: int) -> "Circuit":
        return self.add(Gate("w", (qubit,), {"t": float(t)}))

    def global_phase(self, phase: float) -> "Circuit":
        return self.add(Gate("global_phase", (), {"phase": float(phase)}))

    def measure(self, qubit: int, key: str) -> "Circuit":
        return self.add(Gate("measure", (qubit,), {"key": key}))

    def classical_pauli(self, key: str, p: PauliString) -> "Circuit":
        p = self._embedded(p)
        return self.add(Gate("classical_pauli", self._support(p), {"key": key, "p": p}))


# -- simulation ---------------------------------------------------------------


def _act(gate: Gate, amps: np.ndarray, n: int, outcomes=None, rng=None) -> np.ndarray:
    """Apply one gate to an amplitude array indexed by basis states along
    axis 0; matrix inputs evolve every column at once."""
    idx = np.arange(amps.shape[0])
    kind = gate.kind
    if kind == "pauli":
        return sv._pauli_on(gate.params["p"], amps)
    if kind == "exp_pauli":
        t, p = gate.params["t"], gate.params["p"]
        return math.cos(t) * amps + 1j * math.sin(t) * sv._pauli_on(p, amps)
    if kind == "w":
        t = gate.params["t"]
        flip = PauliString.from_ops(n, {gate.qubits[0]: "X"})
        return math.cos(t) * amps - 1j * math.sin(t) * sv._pauli_on(flip, amps)
    if kind == "h":
        return sv._hadamard_on(amps, n, gate.qubits[0])
    if kind == "cnot":
        return sv._cnot_on(amps, n, *gate.qubits)
    if kind == "cpauli":
        p = gate.params["p"]
        cbit = sv._index_bit(n, gate.params["control"])
        flipped = sv._pauli_on(p, amps)
        mask = (idx & cbit) != 0
        return np.where(mask.reshape((-1,) + (1,) * (amps.ndim - 1)), flipped, amps)
    if kind == "reflection":
        mask = 0
        for q in gate.qubits:
            mask |= sv._index_bit(n, q)
        signs = np.where((idx & mask) == 0, 1.0, -1.0)
        return signs.reshape((-1,) + (1,) * (amps.ndim - 1)) * amps
    if kind == "global_phase":
        return np.exp(1j * gate.params["phase"]) * amps
    if kind == "measure":
        if outcomes is None or amps.ndim != 1:
            raise ValueError("measurement needs a statevector run")
        bit = sv._index_bit(n, gate.qubits[0])
        zero = (idx & bit) == 0
        p0 = float(np.sum(np.abs(amps[zero]) ** 2))
        if rng is None:
            # deterministic mode: the likelier branch, ties resolved to 0
            draw = 0 if p0 >= 0.5 - 1e-12 else 1
        else:
            draw = 0 if rng.random() < p0 else 1
        keep = zero if draw == 0 else ~zero
        prob = p0 if draw == 0 else 1.0 - p0
        if prob < 1e-14:
            raise ValueError("measured a zero-probability branch")
        out = np.zeros_like(amps)
        out[keep] = amps[keep] / math.sqrt(prob)
        outcomes[gate.params["key"]] = draw
        return out
    if kind == "classical_pauli":
        if outcomes is None:
            raise ValueError("classically controlled gate needs a statevector run")
        if outcomes.get(gate.params["key"]) == 1:
            return sv._pauli_on(gate.params["p"], amps)
        return amps
    raise ValueError(f"unknown gate kind {kind!r}")


def run(circuit: Circuit, state: sv.Statevector | None = None, rng=None):
    """Execute the circuit on a statevector; returns (state, outcomes).

    Without an rng, measurements deterministically take the more likely
    branch, which suits the deterministic gadgets here.
    """
    if state is None:
        state = sv.Statevector(circuit.n_qubits)
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state width does not match the circuit")
    amps = state.amps.copy()
    outcomes: dict = {}
    for gate in circuit.gates:
        amps = _act(gate, amps, circuit.n_qubits, outcomes, rng)
    return sv.Statevector(circuit.n_qubits, amps), outcomes


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit; trailing measurements are dropped and
    anything non-unitary before the end is rejected.

    Each contiguous run of diagonal exponentials (Z strings) is folded into
    one phase vector, applied before the next gate of another kind, so gates
    never move past each other. Other exponentials update the matrix in
    place through one scratch buffer.
    """
    gates = list(circuit.gates)
    while gates and gates[-1].kind == "measure":
        gates.pop()
    n = circuit.n_qubits
    mat = np.eye(1 << n, dtype=complex)
    buf = np.empty_like(mat)
    phases = None
    for gate in gates:
        if gate.kind in ("measure", "classical_pauli"):
            raise ValueError("circuit is not unitary: mid-circuit classical flow")
        diagonal = gate.kind == "exp_pauli" and gate.params["p"].x_mask == 0
        if phases is not None and not diagonal:
            mat *= phases[:, None]
            phases = None
        if gate.kind != "exp_pauli":
            mat = _act(gate, mat, n)
            continue
        t = gate.params["t"]
        src, factor = sv._pauli_rows(gate.params["p"])
        factor = 1j * math.sin(t) * factor
        if diagonal:
            diag = math.cos(t) + factor
            phases = diag if phases is None else phases * diag
        else:
            np.take(mat, src, axis=0, out=buf)
            buf *= factor[:, None]
            mat *= math.cos(t)
            mat += buf
    if phases is not None:
        mat *= phases[:, None]
    return mat


def project_leading_zeros(state: sv.Statevector, n_leading: int):
    """Probability and normalized remainder of finding the first n_leading
    qubits in |0..0>; the remainder is returned on the trailing qubits."""
    n_rest = state.n_qubits - n_leading
    block = state.amps[: 1 << n_rest]
    prob = float(np.sum(np.abs(block) ** 2))
    if prob < 1e-300:
        raise ValueError("postselection on a zero-probability branch")
    return prob, sv.Statevector(n_rest, block / math.sqrt(prob))


# -- exponential gadgets -------------------------------------------------------


def w_gate(t: float) -> np.ndarray:
    """Single-qubit rotation with W(t)|0> = cos(t)|0> - i sin(t)|1>."""
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -1j * s], [-1j * s, c]])


def lcu_exp_pauli(t: float, p: PauliString) -> Circuit:
    """Probabilistic e^{itP} gadget: one ancilla, success on outcome 0 with
    probability exactly one half; the failing branch carries e^{-itP}."""
    if not p.is_hermitian():
        raise ValueError("the exponential gadget needs a Hermitian Pauli")
    n = p.n_qubits + 1
    c = Circuit(
        n,
        {"ancilla": (0,), "system": tuple(range(1, n))},
        meta={"success": {"branch": 0}, "state_injection": "modeled as a direct W gate"},
    )
    target = p.shifted(1, n)
    c.w(t, 0)
    c.cpauli(0, target)
    c.h(0)
    c.pauli(PauliString.from_ops(n, {0: "X"}))
    c.measure(0, "branch")
    return c


def _v_gates(c: Circuit, t: float, target: PauliString, back: bool = False) -> None:
    flip = PauliString.from_ops(c.n_qubits, {1: "X"})
    if not back:
        c.h(0)
        c.w(t, 1)
        c.cpauli(1, target)
        c.h(1)
        c.pauli(flip)
    else:
        c.pauli(flip)
        c.h(1)
        c.cpauli(1, target)
        c.w(-t, 1)
        c.h(0)


def oaa_v(t: float, p: PauliString) -> Circuit:
    """The bare two-ancilla gadget V with success probability one quarter."""
    if not p.is_hermitian():
        raise ValueError("the exponential gadget needs a Hermitian Pauli")
    n = p.n_qubits + 2
    c = Circuit(
        n,
        {"oaa": (0,), "ancilla": (1,), "system": tuple(range(2, n))},
        meta={"success": {"outcome": "00"}},
    )
    _v_gates(c, t, p.shifted(2, n))
    return c


def _oaa_gate_seq(c: Circuit, t: float, target: PauliString) -> None:
    _v_gates(c, t, target)
    c.reflection((0, 1))
    _v_gates(c, t, target, back=True)
    c.reflection((0, 1))
    _v_gates(c, t, target)
    c.global_phase(math.pi)


def oaa_exp_pauli(t: float, p: PauliString) -> Circuit:
    """Deterministic e^{itP}: S V = -V R V' R V with R reflecting about the
    two-ancilla |00> state; both ancilla measurements yield 0 with
    probability one."""
    if not p.is_hermitian():
        raise ValueError("the exponential gadget needs a Hermitian Pauli")
    n = p.n_qubits + 2
    c = Circuit(
        n,
        {"oaa": (0,), "ancilla": (1,), "system": tuple(range(2, n))},
        meta={"success": {"outcome": "00", "probability": 1.0},
              "state_injection": "modeled as a direct W gate"},
    )
    _oaa_gate_seq(c, t, p.shifted(2, n))
    c.measure(0, "amplify")
    c.measure(1, "rotate")
    return c


# -- Trotter schedules ---------------------------------------------------------


def _check_schedule(steps: int, order: int) -> None:
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")


def trotter_circuit(h_logical: PauliSum, t: float, steps: int, order: int = 1) -> Circuit:
    """Product-formula circuit for e^{-iHt} with the terms taken in their
    stored order; order 2 uses the palindromic splitting."""
    _check_schedule(steps, order)
    terms = h_logical.terms
    n = h_logical.n_qubits
    c = Circuit(n, {"system": tuple(range(n))}, meta={"t": t, "steps": steps, "order": order})
    dt = t / steps
    for _ in range(steps):
        if order == 1:
            for coeff, p in terms:
                c.exp_pauli(-coeff * dt, p)
        else:
            for coeff, p in terms:
                c.exp_pauli(-coeff * dt / 2, p)
            for coeff, p in reversed(terms):
                c.exp_pauli(-coeff * dt / 2, p)
    return c


def trotter_unitary(h_logical: PauliSum, t: float, steps: int, order: int = 1) -> np.ndarray:
    """Unitary of trotter_circuit(h_logical, t, steps, order).

    Every step of that circuit is the same gate list with dt = t / steps,
    so one step is built and raised to the power steps.
    """
    _check_schedule(steps, order)
    step = circuit_unitary(trotter_circuit(h_logical, t / steps, 1, order))
    return np.linalg.matrix_power(step, steps)


def trotter_error(
    h_logical: PauliSum, t: float, steps: int, order: int = 1, exact: np.ndarray | None = None
) -> float:
    """Spectral-norm distance between the Trotter unitary and e^{-iHt}.

    The Trotter side is trotter_unitary: one step built with its diagonal
    runs fused, then raised to the power steps. exact, when given, is
    e^{-iHt} already computed (sv.exact_evolve), so callers comparing
    several step counts diagonalize H once. The norm is sv.spectral_norm:
    Lanczos on A'A for A = U_trot - e^{-iHt}, repeatable to the bit.
    """
    approx = trotter_unitary(h_logical, t, steps, order)
    if exact is None:
        exact = sv.exact_evolve(h_logical, t)
    return sv.spectral_norm(approx - exact)


# -- block encoding ------------------------------------------------------------


@dataclass(frozen=True)
class LCUOracles:
    """Organization of a Pauli Hamiltonian into equal-size operator families
    for the prepare/select pair.

    families[k][l] is a signed Pauli (sign absorbed into its phase) scaled
    by the positive coupling etas[k]; eta is the total one-norm. n counts
    index-register qubits and n_coeff the coefficient-register qubits.
    """

    dN: int
    n: int
    n_coeff: int
    etas: tuple
    families: tuple
    toffoli_count: int

    def __post_init__(self):
        if any(e <= 0 for e in self.etas):
            raise ValueError("family couplings must be positive; absorb signs into the operators")
        if any(len(f) != self.dN for f in self.families):
            raise ValueError("every family must cover all index slots")

    @property
    def K(self) -> int:
        return len(self.families)

    @property
    def eta(self) -> float:
        return float(sum(self.etas))


def select_toffoli_count(n: int) -> int:
    """Toffoli cost of selecting over 2^n indices by unary iteration,
    counting logical-AND computations only (measurement-based uncomputation
    is free): one AND per internal node of the index tree."""
    if n < 0:
        raise ValueError("index register size cannot be negative")
    return (1 << n) - 1


def toffoli_bounds(n: int) -> tuple:
    """Known (lower, upper) Toffoli bounds for an n-qubit index select:
    lower 2^n - n - 1, upper 1.5 * 2^n - 4 with n - 1 clean ancillas."""
    if n < 2:
        raise ValueError("bounds are stated for index registers of 2+ qubits")
    return ((1 << n) - n - 1, 3 * (1 << (n - 1)) - 4)


def _letters_key(p: PauliString) -> str:
    label = p.label().lstrip("+-i")
    return "".join(sorted(ch for ch in label if ch != "I"))


def lcu_organize(h_logical: PauliSum, dN: int | None = None) -> LCUOracles:
    """Group the Hamiltonian into families of dN same-magnitude terms.

    Terms bucket by coefficient magnitude and letter content; each bucket
    must fill every index slot exactly once, so Hamiltonians with constant
    offsets or unequal family sizes are rejected rather than padded
    (padding with identities would shift the encoded block).
    """
    if dN is None:
        dN = h_logical.n_qubits
    buckets: dict = {}
    for coeff, p in h_logical.terms:
        mag = abs(coeff)
        if mag < 1e-14:
            continue
        key = (round(mag, 12), _letters_key(p))
        signed = PauliString(
            p.n_qubits, p.x_mask, p.z_mask, (p.phase_exp + (0 if coeff > 0 else 2)) % 4
        )
        buckets.setdefault(key, []).append(signed)
    etas = []
    families = []
    for (mag, letters), ops in buckets.items():
        if len(ops) != dN:
            raise ValueError(
                f"family {letters or 'identity'} has {len(ops)} terms for {dN} index slots; "
                "the select organization needs one operator per slot"
            )
        etas.append(float(mag))
        families.append(tuple(ops))
    if not families:
        raise ValueError("empty Hamiltonian")
    n = max(int(math.ceil(math.log2(dN))), 0)
    n_coeff = max(int(math.ceil(math.log2(len(families)))), 0)
    return LCUOracles(
        dN=dN,
        n=n,
        n_coeff=n_coeff,
        etas=tuple(etas),
        families=tuple(families),
        toffoli_count=select_toffoli_count(n),
    )


def _oracles_of(h_or_oracles, dN=None) -> LCUOracles:
    if isinstance(h_or_oracles, LCUOracles):
        return h_or_oracles
    return lcu_organize(h_or_oracles, dN)


def build_prep(h_or_oracles, dN: int | None = None) -> np.ndarray:
    """Ancilla state sqrt(eta_k/eta)|k> on the coefficient register tensor
    the uniform superposition on the index register."""
    oracles = _oracles_of(h_or_oracles, dN)
    coeff = np.zeros(1 << oracles.n_coeff)
    for k, e in enumerate(oracles.etas):
        coeff[k] = math.sqrt(e / oracles.eta)
    index = np.full(1 << oracles.n, 1.0 / math.sqrt(1 << oracles.n))
    return np.kron(coeff, index).astype(complex)


def _select_blocks(oracles: LCUOracles):
    """Yield (a, PauliString) for every ancilla index a = (k, slot) of the
    block-diagonal select: families[k][slot] when k < K and slot < dN, the
    identity otherwise."""
    n_sys = oracles.families[0][0].n_qubits
    eye = PauliString(n_sys, 0, 0, 0)
    for k in range(1 << oracles.n_coeff):
        for slot in range(1 << oracles.n):
            a = (k << oracles.n) | slot
            yield a, oracles.families[k][slot] if k < oracles.K and slot < oracles.dN else eye


def build_select(h_or_oracles, dN: int | None = None):
    """Dense select unitary (coefficient register, index register, system)
    and its Toffoli count; slots past dN and coefficient rows past K act as
    identity."""
    oracles = _oracles_of(h_or_oracles, dN)
    n_sys = oracles.families[0][0].n_qubits
    sv._check_cap(oracles.n_coeff + oracles.n + n_sys)
    dim_sys = 1 << n_sys
    dim = (1 << (oracles.n_coeff + oracles.n)) * dim_sys
    mat = np.zeros((dim, dim), dtype=complex)
    for a, p in _select_blocks(oracles):
        mat[a * dim_sys : (a + 1) * dim_sys, a * dim_sys : (a + 1) * dim_sys] = sv.pauli_matrix(p)
    return mat, oracles.toffoli_count


def encoded_block(h_or_oracles, dN: int | None = None) -> np.ndarray:
    """<0|PREP' SELECT PREP|0> reduced to the system register.

    SELECT is block-diagonal over the ancilla index a, so the block is
    sum_a |prep_a|^2 block_a, a 2^n_sys matrix summed in one scatter; the
    dense select is never built.
    """
    oracles = _oracles_of(h_or_oracles, dN)
    weights = np.abs(build_prep(oracles)) ** 2
    n_sys = oracles.families[0][0].n_qubits
    sv._check_cap(n_sys)
    return sv._dense(n_sys, (sv._pauli_rows(p, weights[a]) for a, p in _select_blocks(oracles)))


def block_encoding_error(h_logical: PauliSum, dN: int | None = None) -> float:
    """Max-norm gap between the encoded block and H/(eta 2^n).

    When dN is not a power of two the identity padding of the index register
    shifts the block by (1 - dN/2^n) times the identity; that shift is part
    of the reported gap, not silently removed.
    """
    oracles = lcu_organize(h_logical, dN)
    target = sv.pauli_sum_matrix(h_logical) / (oracles.eta * (1 << oracles.n))
    block = encoded_block(oracles)
    return float(np.abs(block - target).max())


# -- fault-tolerant compilation -------------------------------------------------


def ft_compile(circuit: Circuit) -> Circuit:
    """Rewrite a logical-register circuit so only Clifford gates touch the
    lattice: every Pauli exponential is replaced by the deterministic
    amplification gadget driven from two fresh leading ancillas."""
    if "system" not in circuit.registers:
        raise ValueError("ft_compile expects a circuit with a system register")
    shift = 2
    n = circuit.n_qubits + shift
    registers = {"oaa": (0,), "ancilla": (1,)}
    for name, qubits in circuit.registers.items():
        new_name = "lattice" if name == "system" else name
        registers[new_name] = tuple(q + shift for q in qubits)
    out = Circuit(n, registers, meta=dict(circuit.meta))
    out.meta["compiled"] = "exponentials routed through ancilla gadgets"
    for gate in circuit.gates:
        if gate.kind == "exp_pauli":
            p = gate.params["p"]
            _oaa_gate_seq(out, gate.params["t"], p.shifted(shift, n))
        elif gate.kind == "w":
            flip = PauliString.from_ops(n, {gate.qubits[0] + shift: "X"})
            _oaa_gate_seq(out, -gate.params["t"], flip)
        elif gate.kind == "pauli":
            out.pauli(gate.params["p"].shifted(shift, n))
        elif gate.kind == "h":
            out.h(gate.qubits[0] + shift)
        elif gate.kind == "cnot":
            out.cnot(gate.qubits[0] + shift, gate.qubits[1] + shift)
        elif gate.kind == "cpauli":
            out.cpauli(gate.params["control"] + shift, gate.params["p"].shifted(shift, n))
        elif gate.kind == "global_phase":
            out.global_phase(gate.params["phase"])
        elif gate.kind == "measure":
            raise ValueError("lattice measurements cannot be compiled fault-tolerantly here")
        else:
            raise ValueError(f"cannot compile gate kind {gate.kind!r}")
    out.measure(0, "amplify")
    out.measure(1, "rotate")
    return out


def assert_clifford_on_lattice(circuit: Circuit) -> dict:
    """Raise unless every gate touching the lattice register is Clifford;
    returns a small gate census for reporting."""
    lattice = set(circuit.registers.get("lattice", ()))
    checked = 0
    touching = 0
    for i, gate in enumerate(circuit.gates):
        checked += 1
        touched = lattice.intersection(gate.qubits)
        if not touched:
            continue
        touching += 1
        if gate.kind == "measure":
            raise ValueError(f"gate {i}: measurement on the lattice register")
        if gate.kind == "reflection" and len(gate.qubits) > 2:
            raise ValueError(f"gate {i}: multi-controlled reflection on the lattice register")
        if gate.kind == "reflection":
            continue
        if gate.kind not in CLIFFORD_KINDS:
            raise ValueError(
                f"gate {i}: non-Clifford {gate.kind} touches lattice qubits {sorted(touched)}"
            )
    return {"gates": checked, "lattice_gates": touching, "clifford_only": True}


# -- logical gates ---------------------------------------------------------------


def logical_pauli(code, axis: str, index: int) -> PauliString:
    """Physical representative of a logical X, Y or Z."""
    if axis == "X":
        return code.logical_x[index]
    if axis == "Z":
        return code.logical_z[index]
    if axis == "Y":
        prod = code.logical_x[index] * code.logical_z[index]
        return PauliString(prod.n_qubits, prod.x_mask, prod.z_mask, (prod.phase_exp + 1) % 4)
    raise ValueError(f"axis must be X, Y or Z, got {axis!r}")


def logical_gate(code, gate: str, targets, theta: float | None = None) -> Circuit:
    """Compile one logical gate on the encoded lattice.

    Paulis act transversally. Rotations and the Hadamard go through the
    deterministic exponential gadget, so the lattice register still sees
    Clifford gates only; the in-block controlled flip is likewise built from
    three commuting exponentials of logical Paulis.
    """
    targets = tuple(targets)
    n_phys = code.n_physical
    if gate in ("x", "z", "y"):
        (j,) = targets
        c = Circuit(n_phys, {"lattice": tuple(range(n_phys))})
        c.pauli(logical_pauli(code, gate.upper(), j))
        return c
    n = n_phys + 2
    c = Circuit(
        n,
        {"oaa": (0,), "ancilla": (1,), "lattice": tuple(range(2, n))},
        meta={"gate": gate, "targets": targets},
    )
    if gate == "rz":
        if theta is None:
            raise ValueError("rz needs an angle")
        (j,) = targets
        _oaa_gate_seq(c, theta, logical_pauli(code, "Z", j).shifted(2, n))
    elif gate == "h":
        (j,) = targets
        _oaa_gate_seq(c, -math.pi / 4, logical_pauli(code, "Y", j).shifted(2, n))
        c.pauli(logical_pauli(code, "X", j).shifted(2, n))
    elif gate == "cnot":
        ctrl, tgt = targets
        if ctrl == tgt:
            raise ValueError("control and target must differ")
        zc = logical_pauli(code, "Z", ctrl)
        xt = logical_pauli(code, "X", tgt)
        c.global_phase(math.pi / 4)
        _oaa_gate_seq(c, -math.pi / 4, zc.shifted(2, n))
        _oaa_gate_seq(c, -math.pi / 4, xt.shifted(2, n))
        _oaa_gate_seq(c, math.pi / 4, (zc * xt).shifted(2, n))
    else:
        raise ValueError(f"unsupported logical gate {gate!r}")
    c.measure(0, "amplify")
    c.measure(1, "rotate")
    return c

"""Dense-matrix oracles and a brute-force decoder shared by the test modules.

The matrices are built literally from 2x2 kronecker factors and numpy
linear algebra, independent of the bitmask arithmetic inside the package;
the decoder searches qubit by qubit with PauliString.commutes. The one
exception is dense_encoded_block, which contracts the package's own dense
SELECT: it checks the block-diagonal reduction of encoded_block, not the
Pauli matrices.
"""

import numpy as np

from gaugeqec import evolve as ev
from gaugeqec.pauli import PauliString, PauliSum

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER_MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}
# one hardcore-boson mode: n projects onto bit value 0, phi = |1><0|
BOSON_MATS = {
    "n": np.array([[1, 0], [0, 0]], dtype=complex),
    "phi": np.array([[0, 0], [1, 0]], dtype=complex),
    "phi_dag": np.array([[0, 1], [0, 0]], dtype=complex),
}


def dense_pauli(p: PauliString) -> np.ndarray:
    """Matrix of i^phase * X^x * Z^z with qubit 0 as the leftmost factor."""
    out = np.array([[1]], dtype=complex)
    for q in range(p.n_qubits):
        m = np.eye(2, dtype=complex)
        if (p.x_mask >> q) & 1:
            m = m @ X2
        if (p.z_mask >> q) & 1:
            m = m @ Z2
        out = np.kron(out, m)
    return (1j ** p.phase_exp) * out


def dense_sum(h: PauliSum) -> np.ndarray:
    out = np.zeros((2 ** h.n_qubits, 2 ** h.n_qubits), dtype=complex)
    for c, op in h.complex_terms():
        out = out + c * dense_pauli(op)
    return out


def dense_encoded_block(oracles) -> np.ndarray:
    """<0|PREP' SELECT PREP|0> contracted over the full dense SELECT."""
    prep = ev.build_prep(oracles)
    select, _ = ev.build_select(oracles)
    dim_anc = prep.shape[0]
    dim_sys = select.shape[0] // dim_anc
    four = select.reshape(dim_anc, dim_sys, dim_anc, dim_sys)
    return np.einsum("a,asbt,b->st", prep.conj(), four, prep)


def dense_boson(terms, n_modes: int) -> np.ndarray:
    """Local hardcore-boson terms as kron chains with mode 0 leftmost; each
    mode carries at most one factor of a term."""
    out = np.zeros((2**n_modes, 2**n_modes), dtype=complex)
    for term in terms:
        per_mode = dict(term.factors)
        mat = np.array([[term.coeff]], dtype=complex)
        for mode in range(n_modes):
            mat = np.kron(mat, BOSON_MATS[per_mode[mode]] if mode in per_mode else I2)
        out = out + mat
    return out


def string_factor(n_modes: int, mode: int, kind: str) -> np.ndarray:
    """Nonlocal hardcore factor: the prefix parity P = Z_0 .. Z_mode picks
    (1 - P)/2 for n, (1 + P)/2 X_mode for phi and (1 - P)/2 X_mode for phi_dag."""
    eye = np.eye(2**n_modes, dtype=complex)
    parity = dense_pauli(PauliString(n_modes, 0, (1 << (mode + 1)) - 1))
    if kind == "n":
        return (eye - parity) / 2
    flip = dense_pauli(PauliString(n_modes, 1 << mode, 0))
    proj = (eye + parity) / 2 if kind == "phi" else (eye - parity) / 2
    return proj @ flip


def dense_string_boson(terms, n_modes: int) -> np.ndarray:
    """Nonlocal hardcore-boson terms, factors multiplied left to right."""
    out = np.zeros((2**n_modes, 2**n_modes), dtype=complex)
    for term in terms:
        mat = term.coeff * np.eye(2**n_modes, dtype=complex)
        for mode, kind in term.factors:
            mat = mat @ string_factor(n_modes, mode, kind)
        out = out + mat
    return out


def dense_projector(n_qubits: int, generators) -> np.ndarray:
    """prod_g (1 + g)/2, the first generator applied first."""
    eye = np.eye(2**n_qubits, dtype=complex)
    out = eye
    for g in generators:
        out = (eye + dense_pauli(g)) / 2 @ out
    return out


class BruteDecoder:
    """Single-error decoding by exhaustive search over one code's qubits.

    Syndromes come from PauliString.commutes check by check. An X (Z) error
    is read from the Z-check (X-check) syndrome: the lowest qubit whose
    single X (Z) error has exactly that syndrome, otherwise uncorrectable.
    A full syndrome combines both parts; a code without X checks decodes
    bit flips only.
    """

    def __init__(self, code):
        self.n = code.n_physical
        self.n_gauss = code.n_gauss
        self.generators = code.generators
        self.has_x_checks = len(code.generators) > code.n_gauss
        self.rows = code.generators + code.logical_x + code.logical_z
        checks = {"X": code.generators[: code.n_gauss], "Z": code.generators[code.n_gauss:]}
        self.singles = {
            letter: [
                tuple(0 if PauliString.from_ops(self.n, {q: letter}).commutes(g) else 1 for g in rows)
                for q in range(self.n)
            ]
            for letter, rows in checks.items()
        }
        self._decoded = {}

    def syndrome(self, error: PauliString) -> tuple:
        return tuple(0 if error.commutes(g) else 1 for g in self.generators)

    def acts_trivially(self, pauli: PauliString) -> bool:
        return all(pauli.commutes(row) for row in self.rows)

    def decode_one(self, letter: str, bits) -> tuple:
        """(status, correction) for the X or Z part of a syndrome."""
        bits = tuple(bits)
        if (letter, bits) not in self._decoded:
            self._decoded[letter, bits] = self._search(letter, bits)
        return self._decoded[letter, bits]

    def _search(self, letter: str, bits: tuple) -> tuple:
        if not any(bits):
            return "clean", PauliString.identity(self.n)
        for q, syn in enumerate(self.singles[letter]):
            if syn == bits:
                return "corrected", PauliString.from_ops(self.n, {q: letter})
        return "uncorrectable", PauliString.identity(self.n)

    def decode(self, bits) -> tuple:
        """(status, correction) for a full syndrome."""
        bits = tuple(bits)
        dx = self.decode_one("X", bits[: self.n_gauss])
        if not self.has_x_checks:
            return dx
        dz = self.decode_one("Z", bits[self.n_gauss:])
        statuses = {dx[0], dz[0]}
        if "uncorrectable" in statuses:
            return "uncorrectable", PauliString.identity(self.n)
        if statuses == {"clean"}:
            return "clean", PauliString.identity(self.n)
        return "corrected", PauliString(self.n, dx[1].x_mask, dz[1].z_mask)


def expm_hermitian(mat: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * mat) for Hermitian mat via eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(scale * vals)) @ vecs.conj().T


def gram_spectral_norm(a: np.ndarray) -> float:
    """Largest singular value from every eigenvalue of the dense Gram a' a:
    a second spectral-norm oracle next to np.linalg.norm(a, 2)."""
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(a.conj().T @ a)[-1])))


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pauli(rng, n_qubits: int) -> PauliString:
    full = (1 << n_qubits) - 1
    return PauliString(
        n_qubits,
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, 4)),
    )


def random_hermitian_pauli(rng, n_qubits: int) -> PauliString:
    ops = {}
    for q in range(n_qubits):
        letter = "IXYZ"[rng.integers(0, 4)]
        if letter != "I":
            ops[q] = letter
    sign = int(rng.integers(0, 2)) * 2
    return PauliString.from_ops(n_qubits, ops, phase_exp=sign)


def random_state(rng, n_qubits: int) -> np.ndarray:
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)

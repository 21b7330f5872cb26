"""Exact dense statevector engine.

This is the numerical oracle behind the equivalence, decoding and evolution
checks, so it stays deliberately simple: full 2^n complex vectors, explicit
phases, no stabilizer fast path. Qubit 0 is the most significant bit of the
basis index, matching the text grammar where qubit 0 is the leftmost letter.

The dimension cap (default 14 qubits) can be raised through the
GAUGEQEC_MAX_DENSE_QUBITS environment variable.
"""

from __future__ import annotations

import os

import numpy as np

from gaugeqec.pauli import PauliString, PauliSum

DEFAULT_MAX_QUBITS = 14
NORM_ATOL = 1e-10


def max_dense_qubits() -> int:
    return int(os.environ.get("GAUGEQEC_MAX_DENSE_QUBITS", DEFAULT_MAX_QUBITS))


def _check_cap(n_qubits: int) -> None:
    cap = max_dense_qubits()
    if n_qubits > cap:
        raise ValueError(f"{n_qubits} qubits exceeds the dense cap of {cap}")


def _reversed_mask(mask: int, n_qubits: int) -> int:
    """Mask bit q (qubit q) moved to basis-index bit n-1-q."""
    out = 0
    for q in range(n_qubits):
        if (mask >> q) & 1:
            out |= 1 << (n_qubits - 1 - q)
    return out


class Statevector:
    """Normalized complex amplitude vector over n qubits."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps=None):
        _check_cap(n_qubits)
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if amps is None:
            vec = np.zeros(dim, dtype=complex)
            vec[0] = 1.0
        else:
            vec = np.asarray(amps, dtype=complex).reshape(dim).copy()
        self.amps = vec

    @classmethod
    def basis(cls, n_qubits: int, index) -> "Statevector":
        """Computational basis state; index may be an int or a bit string
        like "0101" (qubit 0 first)."""
        if isinstance(index, str):
            if len(index) != n_qubits:
                raise ValueError("bit string length mismatch")
            index = int(index, 2)
        state = cls(n_qubits)
        state.amps[0] = 0.0
        state.amps[index] = 1.0
        return state

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "Statevector":
        n = self.norm()
        if n < 1e-14:
            raise ValueError("cannot normalize a null vector")
        self.amps /= n
        return self

    def overlap(self, other: "Statevector") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def dump(self, atol: float = 1e-12) -> list[tuple[int, float, float]]:
        """Sparse listing of (basis index, re, im) above the threshold."""
        out = []
        for i in np.flatnonzero(np.abs(self.amps) > atol):
            a = self.amps[i]
            out.append((int(i), float(a.real), float(a.imag)))
        return out

    def __repr__(self) -> str:
        return f"Statevector(n_qubits={self.n_qubits})"


# -- unitary actions ----------------------------------------------------------


def apply_pauli(state: Statevector, p: PauliString) -> Statevector:
    """In-place action of p: amplitude permutation plus phases."""
    if p.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    n = state.n_qubits
    xr = _reversed_mask(p.x_mask, n)
    zr = _reversed_mask(p.z_mask, n)
    idx = np.arange(1 << n)
    src = idx ^ xr
    signs = 1 - 2 * (np.bitwise_count(src & zr) & 1).astype(np.int8)
    state.amps = (1j ** p.phase_exp) * signs * state.amps[src]
    return state


def apply_pauli_sum(state: Statevector, h: PauliSum) -> Statevector:
    """New (unnormalized) vector H|psi>; the input is left untouched."""
    if h.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    acc = np.zeros_like(state.amps)
    for c, op in h.complex_terms():
        acc += c * apply_pauli(state.copy(), op).amps
    out = state.copy()
    out.amps = acc
    return out


def apply_exp_pauli(state: Statevector, t: float, p: PauliString) -> Statevector:
    """In-place rotation e^{itP} = cos(t) + i sin(t) P for Hermitian P."""
    if not p.is_hermitian():
        raise ValueError("exponential needs a Hermitian operator")
    rotated = apply_pauli(state.copy(), p)
    state.amps = np.cos(t) * state.amps + 1j * np.sin(t) * rotated.amps
    return state


def inject_error(state: Statevector, qubit: int, pauli: str) -> Statevector:
    if pauli not in ("X", "Y", "Z"):
        raise ValueError(f"error type must be X, Y or Z, got {pauli!r}")
    return apply_pauli(state, PauliString.from_ops(state.n_qubits, {qubit: pauli}))


def apply_cnot(state: Statevector, control: int, target: int) -> Statevector:
    if control == target:
        raise ValueError("control and target must differ")
    n = state.n_qubits
    cbit = 1 << (n - 1 - control)
    tbit = 1 << (n - 1 - target)
    idx = np.arange(1 << n)
    src = np.where(idx & cbit, idx ^ tbit, idx)
    state.amps = state.amps[src]
    return state


def apply_hadamard(state: Statevector, qubit: int) -> Statevector:
    n = state.n_qubits
    bit = 1 << (n - 1 - qubit)
    idx = np.arange(1 << n)
    lo = idx[(idx & bit) == 0]
    hi = lo | bit
    a = state.amps[lo].copy()
    b = state.amps[hi]
    inv = 1.0 / np.sqrt(2.0)
    state.amps[lo] = (a + b) * inv
    state.amps[hi] = (a - b) * inv
    return state


# -- measurement -----------------------------------------------------------


def expectation_pauli(state: Statevector, p: PauliString) -> float:
    if not p.is_hermitian():
        raise ValueError("expectation of a non-Hermitian operator")
    val = np.vdot(state.amps, apply_pauli(state.copy(), p).amps)
    return float(val.real)


def measure_pauli(state: Statevector, p: PauliString, rng) -> tuple[int, Statevector, float]:
    """Born-rule projective measurement of a Hermitian Pauli.

    Collapses the state in place; returns (outcome, state, probability of
    that outcome). Deterministic under a seeded rng.
    """
    expect = expectation_pauli(state, p)
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + expect)))
    outcome = 1 if rng.random() < p_plus else -1
    prob = p_plus if outcome == 1 else 1.0 - p_plus
    rotated = apply_pauli(state.copy(), p)
    state.amps = 0.5 * (state.amps + outcome * rotated.amps)
    state.normalize()
    return outcome, state, prob


# -- code space helpers -----------------------------------------------------


def project_codespace(state: Statevector, generators) -> Statevector:
    """In-place application of prod_g (1+g)/2; output is not normalized."""
    for g in generators:
        rotated = apply_pauli(state.copy(), g)
        state.amps = 0.5 * (state.amps + rotated.amps)
    return state


def frame_isometry(n_qubits: int, generators, logical_x, logical_z) -> np.ndarray:
    """Isometry onto the joint +1 eigenspace of the generators, with columns
    labeled by logical Z eigenvalues (logical qubit 0 = column index MSB).

    Column b is the normalized projection of the uniform superposition onto
    the codespace with every logical Z pinned, then flipped by the logical X
    operators that b selects; the construction keeps amplitudes real for
    CSS-style frames, so elementwise matrix comparisons stay exact.
    """
    _check_cap(n_qubits)
    k = len(logical_x)
    zero = Statevector(n_qubits, np.ones(1 << n_qubits, dtype=complex))
    project_codespace(zero, list(generators) + list(logical_z))
    if zero.norm() < 1e-12:
        raise ValueError("codespace projection annihilated the seed state")
    zero.normalize()
    cols = np.empty((1 << n_qubits, 1 << k), dtype=complex)
    for b in range(1 << k):
        state = zero.copy()
        for j in range(k):
            if (b >> (k - 1 - j)) & 1:
                apply_pauli(state, logical_x[j])
        cols[:, b] = state.amps
    return cols


def encoded_isometry(code) -> np.ndarray:
    """frame_isometry for a stabilizer code object."""
    return frame_isometry(code.n_physical, code.generators, code.logical_x, code.logical_z)


def codespace_projector(code) -> np.ndarray:
    """Dense projector onto the joint +1 eigenspace of code.generators."""
    n = code.n_physical
    _check_cap(n)
    dim = 1 << n
    proj = np.eye(dim, dtype=complex)
    for g in code.generators:
        gm = pauli_matrix(g)
        proj = 0.5 * (proj + gm @ proj)
    return proj


# -- dense matrices ----------------------------------------------------------


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a PauliString, built column by column."""
    _check_cap(p.n_qubits)
    n = p.n_qubits
    dim = 1 << n
    xr = _reversed_mask(p.x_mask, n)
    zr = _reversed_mask(p.z_mask, n)
    idx = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(idx & zr) & 1).astype(np.int8)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[idx ^ xr, idx] = (1j ** p.phase_exp) * signs
    return mat


def pauli_sum_matrix(h: PauliSum) -> np.ndarray:
    # one scattered column write per term; never materializes per-term matrices
    _check_cap(h.n_qubits)
    n = h.n_qubits
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for c, op in h.complex_terms():
        xr = _reversed_mask(op.x_mask, n)
        zr = _reversed_mask(op.z_mask, n)
        signs = 1 - 2 * (np.bitwise_count(idx & zr) & 1).astype(np.int8)
        mat[idx ^ xr, idx] += c * (1j ** op.phase_exp) * signs
    return mat


def exact_evolve(h: PauliSum, t: float) -> np.ndarray:
    """Unitary e^{-iHt} through dense Hermitian diagonalization; a real
    matrix (a sum without Y factors) is diagonalized in real arithmetic,
    which is several times faster."""
    mat = pauli_sum_matrix(h)
    if not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise ValueError("Hamiltonian matrix is not Hermitian")
    if not mat.imag.any():
        mat = mat.real
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T

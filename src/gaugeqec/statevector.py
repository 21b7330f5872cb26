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

from gaugeqec import _gf2
from gaugeqec.pauli import PauliString, PauliSum

DEFAULT_MAX_QUBITS = 14
NORM_ATOL = 1e-10
# spectral_norm's start-vector seed and relative residual stop (not knobs)
_LANCZOS_SEED = 20240521
_LANCZOS_RTOL = 1e-14


def max_dense_qubits() -> int:
    return int(os.environ.get("GAUGEQEC_MAX_DENSE_QUBITS", DEFAULT_MAX_QUBITS))


def _check_cap(n_qubits: int, what: str = "matrix") -> None:
    """Refuse a dense job over the cap, stating the bytes that its 2^n x 2^n
    complex128 matrix (or, with what="vector", its 2^n vector) would take."""
    cap = max_dense_qubits()
    if n_qubits > cap:
        shape = f"2^{n_qubits} x 2^{n_qubits}" if what == "matrix" else f"2^{n_qubits}"
        n_bytes = 16 << (2 * n_qubits if what == "matrix" else n_qubits)
        raise ValueError(
            f"{n_qubits} qubits exceeds the dense cap of {cap}: "
            f"a {shape} complex128 {what} would allocate {n_bytes:.3g} bytes"
        )


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
        _check_cap(n_qubits, "vector")
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
    """In-place action of p: one gather plus phases."""
    if p.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    state.amps = _pauli_on(p, state.amps)
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
    state.amps = _cnot_on(state.amps, state.n_qubits, control, target)
    return state


def apply_hadamard(state: Statevector, qubit: int) -> Statevector:
    state.amps = _hadamard_on(state.amps, state.n_qubits, qubit)
    return state


def _index_bit(n_qubits: int, qubit: int) -> int:
    return 1 << (n_qubits - 1 - qubit)


def _cnot_on(amps: np.ndarray, n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT on the basis-state axis 0 of amps (a vector or every column of a
    matrix); returns a new array."""
    idx = np.arange(amps.shape[0])
    cbit = _index_bit(n_qubits, control)
    src = np.where(idx & cbit, idx ^ _index_bit(n_qubits, target), idx)
    return amps[src]


def _hadamard_on(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """Hadamard on the basis-state axis 0 of amps; returns a new array."""
    lo = (np.arange(amps.shape[0]) & _index_bit(n_qubits, qubit)) == 0
    out = np.empty_like(amps)
    out[lo] = (amps[lo] + amps[~lo]) / np.sqrt(2.0)
    out[~lo] = (amps[lo] - amps[~lo]) / np.sqrt(2.0)
    return out


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


def codespace_basis(code) -> np.ndarray:
    """Basis-state indices S of the code space, in encoded_isometry's column
    order, for a code whose generators and logical Z are signed Z strings and
    whose logical X are X strings (the bare Gauss code).

    Column b of encoded_isometry(code) is then the one basis state
    s_0 ^ (the logical X flips that b selects), with amplitude +1: s_0 is
    the GF(2) solution of parity(s & row) = [row has sign -1] over the rows
    generators + logical_z. The cap applies to the sector's qubit count k,
    since S indexes a 2^k x 2^k sector matrix. Raises ValueError for a code
    not of that form.
    """
    n = code.n_physical
    k = len(code.logical_x)
    _check_cap(k)
    z_rows = tuple(code.generators) + tuple(code.logical_z)
    for row in z_rows:
        if row.x_mask or row.phase_exp % 2:
            raise ValueError(f"{row} is not a signed Z string: the code space has no single-state basis")
    for i, lx in enumerate(code.logical_x):
        if lx.z_mask or lx.phase_exp:
            raise ValueError(f"logical X[{i}] = {lx} is not an X string")
        for j, g in enumerate(code.generators):
            if (lx.x_mask & g.z_mask).bit_count() & 1:
                raise ValueError(f"logical X[{i}] anticommutes with generator {j}")
    inverse = _gf2.invert_matrix([row.z_mask for row in z_rows], n) if len(z_rows) == n else None
    if inverse is None:
        raise ValueError("generators and logical Z do not fix a single basis state")
    signs = sum(1 << r for r, row in enumerate(z_rows) if row.phase_exp)
    s0 = sum(((inv & signs).bit_count() & 1) << q for q, inv in enumerate(inverse))
    basis = np.array([_reversed_mask(s0, n)], dtype=np.int64)
    for lx in code.logical_x:
        # logical qubit 0 ends up as the most significant bit of the column
        basis = np.stack([basis, basis ^ _reversed_mask(lx.x_mask, n)], axis=1).ravel()
    return basis


def restricted_matrix(h: PauliSum, basis) -> np.ndarray:
    """H[S, S] for S = basis, in that order: the matrix of h on the span of
    those basis states, accumulated term by term as pauli_sum_matrix does.
    Raises ValueError naming a term that sends a state of S outside S."""
    basis = np.asarray(basis)
    dim = len(basis)
    _check_cap((dim - 1).bit_length())
    order = np.argsort(basis)
    ordered = basis[order]
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("basis states repeat")
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for c, op in h.complex_terms():
        src, factor = _pauli_rows(op, c, basis)
        col = order[np.minimum(np.searchsorted(ordered, src), dim - 1)]
        if (basis[col] != src).any():
            raise ValueError(f"term {op} sends a basis state outside the sector")
        mat[idx, col] += factor
    return mat


def codespace_projector(code) -> np.ndarray:
    """Dense projector onto the joint +1 eigenspace of code.generators:
    prod_g (1 + g)/2, each factor applied to the rows as one gather."""
    n = code.n_physical
    _check_cap(n)
    proj = np.eye(1 << n, dtype=complex)
    for g in code.generators:
        proj = 0.5 * (proj + _pauli_on(g, proj))
    return proj


# -- dense matrices ----------------------------------------------------------
#
# Every dense operator of the package (Pauli strings and sums, local and
# string hardcore-boson monomials) is a monomial matrix: one non-zero per row.
# _monomial_rows is the one kernel that builds them, in row form.


def _parity(values) -> np.ndarray:
    """Bit-count parity as int8; bitwise_count returns uint8, so the cast
    comes before any 1 - 2 * parity, which would otherwise wrap to 255."""
    return (np.bitwise_count(values) & 1).astype(np.int8)


def _monomial_rows(n_qubits: int, flip: int = 0, sign: int = 0, scale: complex = 1.0, where=(), basis=None):
    """Row form (src, factor) of one monomial matrix M, with
    (M a)[k] = factor[k] * a[src[k]] and dense M[k, src[k]] = factor[k].

    M sends basis state src to src ^ flip with weight
    scale * (-1)^parity(src & sign), and zero unless every (mask, value) in
    where has parity(src & mask) == value. Masks are basis-index masks
    (bit n-1-q is qubit q; see _reversed_mask). The rows are the basis-state
    indices in basis (default all 2^n, in order): then
    M[basis[i], src[i]] = factor[i].
    """
    rows = np.arange(1 << n_qubits) if basis is None else basis
    src = rows ^ flip
    factor = scale * (1 - 2 * _parity(src & sign))
    for mask, value in where:
        factor = factor * (_parity(src & mask) == value)
    return src, factor


def _pauli_rows(p: PauliString, scale: complex = 1.0, basis=None):
    """Row form of scale * p (qubit masks turned into basis-index masks)."""
    n = p.n_qubits
    flip = _reversed_mask(p.x_mask, n)
    return _monomial_rows(n, flip, _reversed_mask(p.z_mask, n), scale * 1j ** p.phase_exp, basis=basis)


def _pauli_on(p: PauliString, amps: np.ndarray) -> np.ndarray:
    """p applied along axis 0 of amps (a vector or every column of a matrix)."""
    src, factor = _pauli_rows(p)
    return factor.reshape((-1,) + (1,) * (amps.ndim - 1)) * amps[src]


def _dense(n_qubits: int, rows_list) -> np.ndarray:
    """Sum of monomial matrices given in row form, one scatter each."""
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for src, factor in rows_list:
        mat[idx, src] += factor
    return mat


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a PauliString."""
    _check_cap(p.n_qubits)
    return _dense(p.n_qubits, [_pauli_rows(p)])


def pauli_sum_matrix(h: PauliSum) -> np.ndarray:
    # one scattered row write per term; never materializes per-term matrices
    _check_cap(h.n_qubits)
    return _dense(h.n_qubits, (_pauli_rows(op, c) for c, op in h.complex_terms()))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a, as sqrt(lambda_max(a' a)) by Lanczos.

    Each step applies a, then a', to one vector: no Gram matrix, no copy of
    a'. The start vector comes from a fixed seed, so calls are repeatable to
    the bit; each new vector is orthogonalized twice against the whole basis.
    The top Ritz value theta of the tridiagonal T is final once its residual
    bound |beta_k s_k| <= 1e-14 theta, on a breakdown (beta = 0), or when the
    Krylov space is the whole space. Clamped at 0: a zero matrix gives 0.0.
    """
    dim = a.shape[1]
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    q /= np.linalg.norm(q)
    # rows are the Lanczos vectors; capacity doubles as the iteration runs
    basis = np.empty((min(dim, 16), dim), dtype=complex)
    alphas, betas = [], []
    for k in range(dim):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(dim, 2 * k) - k, dim), dtype=complex)])
        basis[k] = q
        w = ((a @ q).conj() @ a).conj()
        alphas.append(np.vdot(q, w).real)
        w -= alphas[-1] * q
        if k:
            w -= betas[-1] * basis[k - 1]
        done = basis[: k + 1]
        for _ in range(2):
            w -= (done @ w.conj()).conj() @ done
        beta = np.linalg.norm(w)
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(tri)
        if beta == 0.0 or beta * abs(vecs[-1, -1]) <= _LANCZOS_RTOL * vals[-1]:
            break
        betas.append(beta)
        q = w / beta
    return float(np.sqrt(max(0.0, vals[-1])))


def exact_evolve(h: PauliSum, t: float) -> np.ndarray:
    """Unitary e^{-iHt} through dense Hermitian diagonalization; a real
    matrix (a sum without Y factors) is diagonalized in real arithmetic,
    which is several times faster, and its real eigenvectors give the
    result as two real products: (V cos) V^T - i (V sin) V^T."""
    mat = pauli_sum_matrix(h)
    if not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise ValueError("Hamiltonian matrix is not Hermitian")
    if mat.imag.any():
        vals, vecs = np.linalg.eigh(mat)
        return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    vals, vecs = np.linalg.eigh(mat.real)
    out = np.empty(mat.shape, dtype=complex)
    out.real = (vecs * np.cos(vals * t)) @ vecs.T
    out.imag = (vecs * -np.sin(vals * t)) @ vecs.T
    return out

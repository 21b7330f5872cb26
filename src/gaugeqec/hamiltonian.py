"""Z2 gauge theory Hamiltonian in four equivalent forms.

The model couples staggered matter fermions on lattice sites to two-level
gauge fields on links: a mass term per site, a gauged hopping term per link,
an electric term per link and, above one dimension, a magnetic plaquette
term. This module builds that Hamiltonian as

  1. a symbolic list of fermionic terms on the lattice,
  2. a physical Pauli operator on site and link qubits (Jordan-Wigner),
  3. a logical operator on the encoded qubits of a gauge code, and
  4. a hardcore-boson expansion of the logical form,

plus a nonlocal string-operator variant of step 3 for one-dimensional
chains. Dense realizations back the equivalence tests; all rewritings are
exact, with phases tracked through the Pauli algebra rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaugeqec import statevector as sv
from gaugeqec._gf2 import Solver
from gaugeqec.gauss_code import gauss_generators
from gaugeqec.lattice import Lattice
from gaugeqec.pauli import COEFF_EPS, PauliString, PauliSum

TERM_KINDS = ("mass", "hop", "electric", "plaquette")
BOSON_KINDS = ("n", "phi", "phi_dag")

# to_bosonic refuses sums whose expansion would make more products than this
# (about 280 bytes each); [2,2,2] makes 3.0e5, [3,3,3] would make 2.1e11
BOSON_EXPANSION_BUDGET = 1 << 22


@dataclass(frozen=True)
class Couplings:
    """Physical coupling strengths; the plaquette one is ignored for d=1."""

    m: float
    epsilon: float
    lambda_E: float
    lambda_P: float = 0.0

    def __post_init__(self):
        for name in ("m", "epsilon", "lambda_E", "lambda_P"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"coupling {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FermionicTerm:
    """One symbolic term of the lattice Hamiltonian.

    sites holds site indices, links holds link qubit ids; sign carries the
    staggered or hopping sign factor and value the resolved coupling.
    """

    kind: str
    sites: tuple[int, ...]
    links: tuple[int, ...]
    sign: int
    coupling: str
    value: float

    def __post_init__(self):
        if self.kind not in TERM_KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.sign not in (-1, 1):
            raise ValueError("sign factor must be +1 or -1")


@dataclass(frozen=True)
class BosonTerm:
    """Real coefficient times a product of hardcore-boson factors.

    factors is a tuple of (mode, kind) with kind one of n, phi, phi_dag.
    For the local expansion each mode appears at most once and order is
    irrelevant; the nonlocal string variant multiplies factors left to
    right as listed.
    """

    coeff: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        for mode, kind in self.factors:
            if mode < 0 or kind not in BOSON_KINDS:
                raise ValueError(f"bad boson factor ({mode}, {kind})")


# -- symbolic fermionic form ---------------------------------------------------


def build_fermionic(lattice: Lattice, couplings: Couplings) -> list[FermionicTerm]:
    """One mass term per site, one hop and one electric term per link, one
    plaquette term per unit square, in lattice numbering order."""
    terms = []
    for coords in lattice.sites():
        terms.append(
            FermionicTerm(
                "mass",
                (lattice.site_index(coords),),
                (),
                lattice.staggered_sign(coords),
                "m",
                couplings.m,
            )
        )
    for coords, axis in lattice.links():
        i = lattice.site_index(coords)
        j = lattice.site_index(lattice.shift(coords, axis))
        terms.append(
            FermionicTerm(
                "hop",
                (i, j),
                (lattice.link_qubit(coords, axis),),
                lattice.hop_sign(coords, axis),
                "epsilon",
                couplings.epsilon,
            )
        )
    for coords, axis in lattice.links():
        terms.append(
            FermionicTerm(
                "electric",
                (),
                (lattice.link_qubit(coords, axis),),
                1,
                "lambda_E",
                couplings.lambda_E,
            )
        )
    for p in lattice.plaquettes():
        terms.append(
            FermionicTerm(
                "plaquette",
                (lattice.site_index(p.site),),
                p.links,
                1,
                "lambda_P",
                couplings.lambda_P,
            )
        )
    return terms


# -- Jordan-Wigner physical form ----------------------------------------------


def _tau(lattice: Lattice, site_index: int) -> int:
    # mode phase fixing the sign of every in-row nearest-neighbour hop
    coords = lattice.site_coords(site_index)
    j = coords[-1]
    s = sum(coords[:-1])
    return -1 if (j * (1 + s) + j * (j - 1) // 2) % 2 else 1


def mode_operator(
    lattice: Lattice, site_index: int, dagger: bool = False, sites_only: bool = False
) -> PauliSum:
    """Fermionic annihilation operator of one site mode (creation when
    dagger is set) as a two-term complex PauliSum.

    The string runs over all earlier sites in row-major order; on odd
    staggered sites the local raising and lowering roles are exchanged.
    With sites_only the operator is laid out on the N site qubits alone,
    which keeps dense anticommutation checks small.
    """
    n = lattice.n_sites if sites_only else lattice.n_qubits
    ops = {i: "Z" for i in range(site_index)}
    t_x = PauliString.from_ops(n, {**ops, site_index: "X"})
    t_y = PauliString.from_ops(n, {**ops, site_index: "Y"})
    sigma = lattice.staggered_sign(site_index)
    c = 0.5 * _tau(lattice, site_index) * (-1 if site_index % 2 else 1)
    out = PauliSum(n, allow_complex=True)
    out.add_term(c, t_x)
    out.add_term(c * (-1j if dagger else 1j) * sigma, t_y)
    return out


def jordan_wigner(terms, lattice: Lattice) -> PauliSum:
    """Physical Pauli Hamiltonian on the N + dN site and link qubits.

    Mass and hop terms go through the fermionic mode operators so every
    sign and phase comes out of the algebra; electric and plaquette terms
    are direct substitutions (P + Pdag = 2Z, W + Wdag = 2XXXX).
    """
    n = lattice.n_qubits
    acc = PauliSum(n, allow_complex=True)
    for term in terms:
        if term.kind == "mass":
            site = term.sites[0]
            part = mode_operator(lattice, site, dagger=True) * mode_operator(lattice, site)
            part = part.scaled(term.value * term.sign)
        elif term.kind == "hop":
            i, j = term.sites
            connector = PauliSum(n, allow_complex=True)
            connector.add_term(1.0, PauliString.from_ops(n, {term.links[0]: "X"}))
            forward = mode_operator(lattice, i, dagger=True) * connector * mode_operator(lattice, j)
            part = (forward + forward.dagger()).scaled(term.value * term.sign)
        elif term.kind == "electric":
            part = PauliSum(n, allow_complex=True)
            part.add_term(2.0 * term.value, PauliString.from_ops(n, {term.links[0]: "Z"}))
        else:
            part = PauliSum(n, allow_complex=True)
            part.add_term(2.0 * term.value, PauliString.from_ops(n, {q: "X" for q in term.links}))
        for c, op in part.complex_terms():
            acc.add_term(c, op)
    return acc.hermitian()


def build_pauli(lattice: Lattice, couplings: Couplings) -> PauliSum:
    """Convenience composition of build_fermionic and jordan_wigner."""
    return jordan_wigner(build_fermionic(lattice, couplings), lattice)


# -- logical form ---------------------------------------------------------------


def rewrite_in_frame(h: PauliSum, generators, logical_x, logical_z, atol: float = 1e-12) -> PauliSum:
    """Rewrite a physical operator sum over a stabilizer frame.

    Every term is decomposed over [generators, logical X, logical Z] by a
    GF(2) solve; the stabilizer part acts as +1 on the codespace and drops
    out, and the exact i^k relating the term to the ordered product of its
    factors is carried onto the logical image. Terms that anticommute with
    a generator are gauge violations and raise.
    """
    n = h.n_qubits
    gens = list(generators)
    lx = list(logical_x)
    lz = list(logical_z)
    k = len(lx)
    rows = gens + lx + lz
    solver = Solver()
    for row in rows:
        solver.add_row(row.symplectic())
    out = PauliSum(k, allow_complex=True)
    for coeff, op in h.complex_terms():
        for g_idx, g in enumerate(gens):
            if not op.commutes(g):
                raise ValueError(
                    f"gauge violation: term {op.label()} anticommutes with generator {g_idx}"
                )
        combo = solver.solve(op.symplectic())
        if combo is None:
            raise ValueError(f"term {op.label()} is outside the stabilizer-logical span")
        physical = PauliString.identity(n)
        logical = PauliString.identity(k)
        for i, row in enumerate(rows):
            if not (combo >> i) & 1:
                continue
            physical = physical.multiply(row)
            if i >= len(gens):
                j = i - len(gens)
                mapped = {j: "X"} if j < k else {j - k: "Z"}
                logical = logical.multiply(PauliString.from_ops(k, mapped))
        delta = (op.phase_exp - physical.phase_exp) % 4
        out.add_term(coeff, logical.with_phase(logical.phase_exp + delta))
    return out.hermitian(atol)


def to_logical(h: PauliSum, code) -> PauliSum:
    """Logical form of a gauge-invariant Hamiltonian on the code's dN
    encoded qubits (logical qubit j is the j-th link in numbering order)."""
    return rewrite_in_frame(h, code.generators, code.logical_x, code.logical_z)


# -- hardcore-boson form ---------------------------------------------------------


def to_bosonic(h_logical: PauliSum, keep_constants: bool = True) -> list[BosonTerm]:
    """Expand a logical Pauli sum over hardcore-boson operators.

    Per logical qubit: X -> phi + phi_dag, Z -> 2N - 1, Y -> i(phi - phi_dag).
    Each mode contributes at most one factor per term, so the N^2 = N
    reduction is already implicit in the expansion. Additive constants are
    kept by default so dense comparisons are exact. A term of weight w
    expands into 2^w products; a sum whose total exceeds
    BOSON_EXPANSION_BUDGET is refused before anything is expanded.
    """
    count = sum(1 << op.weight() for _, op in h_logical.terms)
    if count > BOSON_EXPANSION_BUDGET:
        raise ValueError(
            f"boson expansion would make {count} products, above the budget of {BOSON_EXPANSION_BUDGET}"
        )
    acc: dict[tuple, complex] = {}
    for coeff, op in h_logical.terms:
        options: list[tuple[complex, tuple]] = [(complex(coeff), ())]
        for j in range(op.n_qubits):
            xb = (op.x_mask >> j) & 1
            zb = (op.z_mask >> j) & 1
            if not (xb or zb):
                continue
            if xb and zb:
                branch = ((1j, ((j, "phi"),)), (-1j, ((j, "phi_dag"),)))
            elif xb:
                branch = ((1.0, ((j, "phi"),)), (1.0, ((j, "phi_dag"),)))
            else:
                branch = ((2.0, ((j, "n"),)), (-1.0, ()))
            options = [(c * bc, f + bf) for c, f in options for bc, bf in branch]
        for c, f in options:
            acc[f] = acc.get(f, 0.0) + c
    out = []
    for factors, c in acc.items():
        if abs(c.imag) > 1e-12:
            raise ValueError(f"non-real boson coefficient {c} at {factors}")
        if abs(c.real) < COEFF_EPS:
            continue
        if not keep_constants and not factors:
            continue
        out.append(BosonTerm(c.real, factors))
    return out


# source-bit value each local factor needs on its mode: n = |0><0|,
# phi = |1><0| and phi_dag = |0><1|
_LOCAL_NEEDS = {"n": 0, "phi": 0, "phi_dag": 1}


def boson_matrix(terms, n_modes: int) -> np.ndarray:
    """Dense realization with one two-level mode per logical qubit.

    Mode 0 is the most significant tensor factor, matching the statevector
    index convention, so this is directly comparable with to_matrix output.
    A term is a flip of its phi and phi_dag modes, applied to the basis
    states whose factor modes hold the bit values the factors need.
    """
    sv._check_cap(n_modes)
    rows = []
    for term in terms:
        if len(dict(term.factors)) != len(term.factors):
            raise ValueError("local realization allows one factor per mode")
        flip = 0
        where = []
        for mode, kind in term.factors:
            bit = sv._index_bit(n_modes, mode)
            if kind != "n":
                flip |= bit
            where.append((bit, _LOCAL_NEEDS[kind]))
        rows.append(sv._monomial_rows(n_modes, flip, scale=term.coeff, where=where))
    return sv._dense(n_modes, rows)


# -- nonlocal string variant (one dimension) -------------------------------------


@dataclass(frozen=True)
class NonlocalForm:
    """Hamiltonian rewritten over the string-operator logical frame."""

    pauli: PauliSum
    bosons: tuple[BosonTerm, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]


def nonlocal_string_logicals(lattice: Lattice):
    """Alternative 1D logical pairs built from string operators.

    Pair 0 uses X on every link against Z on link 0; pair j >= 1 uses
    X on sites 0 and j times X on links j..N-1 against a signed single-site
    Z. All pairs commute with the Gauss generators and satisfy the canonical
    pairing, but the X side is extensive rather than local.
    """
    if lattice.ndim != 1:
        raise ValueError("string logicals are defined for one dimension only")
    n_sites = lattice.n_sites
    n = lattice.n_qubits
    all_links = ((1 << n_sites) - 1) << n_sites
    logical_x = [PauliString(n, all_links, 0)]
    logical_z = [PauliString(n, 0, 1 << n_sites)]
    for j in range(1, n_sites):
        xmask = 1 | (1 << j)
        for link in range(j, n_sites):
            xmask |= 1 << (n_sites + link)
        logical_x.append(PauliString(n, xmask, 0))
        # staggered signs matching the Gauss generators, so that products of
        # consecutive Z pairs telescope exactly into single link operators
        logical_z.append(PauliString(n, 0, 1 << j, 2 if j % 2 else 0))
    return tuple(logical_x), tuple(logical_z)


def _parity_string_set(z_mask: int) -> int:
    # telescope prod_j Z_j into prefix-parity operators P_c = Z_0 .. Z_c
    out = 0
    mask = z_mask
    while mask:
        j = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out ^= 1 << j
        if j:
            out ^= 1 << (j - 1)
    return out


def _string_expand(h_frame: PauliSum) -> tuple[BosonTerm, ...]:
    """Expand a frame Hamiltonian over the nonlocal hardcore operators.

    Uses the exact operator identities Z_j = P_j P_{j-1} with
    P_c = 1 - 2 N_c and X_j = phi_j + phi_dag_j; factor order inside each
    term is semantic (parity factors first, then mode flips by ascending
    mode) because the string operators do not commute across modes.
    """
    acc: dict[tuple, complex] = {}
    for coeff, op in h_frame.terms:
        base = complex(coeff) * (1j ** op.phase_exp)
        if (op.x_mask & op.z_mask).bit_count() % 2:
            base = -base
        options: list[tuple[complex, tuple]] = [(base, ())]
        parity = _parity_string_set(op.z_mask)
        for c in range(op.n_qubits):
            if (parity >> c) & 1:
                options = [
                    branch
                    for cf, f in options
                    for branch in ((cf, f), (-2.0 * cf, f + ((c, "n"),)))
                ]
        for j in range(op.n_qubits):
            if (op.x_mask >> j) & 1:
                options = [
                    branch
                    for cf, f in options
                    for branch in ((cf, f + ((j, "phi"),)), (cf, f + ((j, "phi_dag"),)))
                ]
        for cf, f in options:
            acc[f] = acc.get(f, 0.0) + cf
    out = []
    for factors, c in acc.items():
        if abs(c.imag) > 1e-12:
            raise ValueError(f"non-real string-boson coefficient {c} at {factors}")
        if abs(c.real) < COEFF_EPS:
            continue
        out.append(BosonTerm(c.real, factors))
    return tuple(out)


# prefix parity each string factor needs: n and phi_dag project onto odd
# parity (1 - P)/2, phi onto even parity (1 + P)/2
_STRING_NEEDS = {"n": 1, "phi": 0, "phi_dag": 1}


def string_boson_matrix(terms, n_modes: int) -> np.ndarray:
    """Dense realization of the nonlocal hardcore operators.

    Mode j flips qubit j behind a parity projector over qubits 0..j, so the
    factors of a term are multiplied left to right exactly as listed. On a
    basis state they act right to left: each flips its mode (phi, phi_dag),
    then keeps the state only if the parity of modes 0..j is the one it
    needs. Walked that way from the source index, a term is one flip mask
    and one parity condition on the source per factor, offset by the flips
    of that factor and of the factors to its right.
    """
    sv._check_cap(n_modes)
    rows = []
    for term in terms:
        flip = 0
        where = []
        for mode, kind in reversed(term.factors):
            if kind != "n":
                flip ^= sv._index_bit(n_modes, mode)
            prefix = sv._reversed_mask((1 << (mode + 1)) - 1, n_modes)
            where.append((prefix, _STRING_NEEDS[kind] ^ ((flip & prefix).bit_count() & 1)))
        rows.append(sv._monomial_rows(n_modes, flip, scale=term.coeff, where=where))
    return sv._dense(n_modes, rows)


def nonlocal_logical_form(lattice: Lattice, couplings: Couplings) -> NonlocalForm:
    """Rewrite the 1D Hamiltonian over the string-operator frame and expand
    it over the matching nonlocal hardcore bosons."""
    logical_x, logical_z = nonlocal_string_logicals(lattice)
    h_phys = build_pauli(lattice, couplings)
    h_frame = rewrite_in_frame(h_phys, gauss_generators(lattice), logical_x, logical_z)
    return NonlocalForm(h_frame, _string_expand(h_frame), logical_x, logical_z)


# -- dense backend ----------------------------------------------------------------


def to_matrix(h: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli sum (dimension-capped)."""
    return sv.pauli_sum_matrix(h)

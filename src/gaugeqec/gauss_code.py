"""Stabilizer codes generated by the lattice Gauss-law checks.

Four constructions share the StabilizerCode container: the bare classical
code whose only checks are the signed Gauss operators (corrects single
bit-flips), the two orders of concatenation with the three-qubit phase-flip
repetition code, and the Hamming-based concatenation. Decoding is strictly
single-error lookup: anything outside the table comes back uncorrectable.

Sign convention: each Gauss check is stored with its physical sector sign,
so the code space is always the joint +1 eigenspace of `generators` and the
dressed Hamiltonian is exact on it (the charge-free sector alternates the
bare eigenvalue from site to site).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from gaugeqec import _gf2
from gaugeqec import statevector as sv
from gaugeqec.lattice import Lattice
from gaugeqec.pauli import PauliString

KINDS = ("classical_gauss", "concat_phase_first", "concat_gauss_first", "concat_hamming")

HAMMING_BUILD_CAP = 31  # largest explicit Hamming construction, in physical qubits


@dataclass(frozen=True)
class StabilizerCode:
    """Container for a CSS code: Z-type checks first, then X-type checks."""

    n_physical: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]
    params: tuple  # declared (n, k, distance); distance None when not claimed
    kind: str
    lattice: Lattice | None = None
    n_gauss: int = 0  # generators[:n_gauss] are the Z-type checks
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown code kind {self.kind!r}")

    @property
    def gauss_checks(self) -> tuple[PauliString, ...]:
        return self.generators[: self.n_gauss]

    @property
    def x_checks(self) -> tuple[PauliString, ...]:
        return self.generators[self.n_gauss:]

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Syndrome columns (x_cols, z_cols) over the rows generators +
        logical_x + logical_z: bit r of x_cols[q] (z_cols[q]) is set when X
        (Z) on qubit q anticommutes with row r. This is the packed
        check-matrix view of Gidney's Stim (arXiv:2103.02202), built in
        O(total row weight)."""
        x_cols = [0] * self.n_physical
        z_cols = [0] * self.n_physical
        for r, row in enumerate(self.generators + self.logical_x + self.logical_z):
            for mask, cols in ((row.z_mask, x_cols), (row.x_mask, z_cols)):
                while mask:
                    low = mask & -mask
                    cols[low.bit_length() - 1] |= 1 << r
                    mask ^= low
        return tuple(x_cols), tuple(z_cols)

    @cached_property
    def _decode_tables(self) -> dict[str, dict[int, int]]:
        """Single-error lookups by error letter: "X" maps a Z-check syndrome
        to the lowest qubit whose X error gives it, "Z" an X-check syndrome
        to the lowest qubit whose Z error gives it; each syndrome is packed
        with its first check at bit 0."""
        n_x = len(self.generators) - self.n_gauss
        tables: dict[str, dict[int, int]] = {"X": {}, "Z": {}}
        for q, (x_col, z_col) in enumerate(zip(*self.columns)):
            tables["X"].setdefault(x_col & ((1 << self.n_gauss) - 1), q)
            tables["Z"].setdefault((z_col >> self.n_gauss) & ((1 << n_x) - 1), q)
        return tables


@dataclass(frozen=True)
class Syndrome:
    """One bit per generator (0 for eigenvalue +1), Z-type checks first."""

    bits: tuple[int, ...]
    n_gauss: int

    def __post_init__(self):
        if not 0 <= self.n_gauss <= len(self.bits):
            raise ValueError("inconsistent syndrome split")

    @property
    def gauss_bits(self) -> tuple[int, ...]:
        return self.bits[: self.n_gauss]

    @property
    def x_bits(self) -> tuple[int, ...]:
        return self.bits[self.n_gauss:]

    @property
    def weight(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class DecodeResult:
    status: str  # clean | corrected | uncorrectable
    correction: PauliString


# -- construction ------------------------------------------------------------


def gauss_generators(lattice: Lattice) -> list[PauliString]:
    """Signed Gauss check per site: Z on the site and its 2d incident links,
    with a minus sign on odd-parity sites."""
    out = []
    for coords in lattice.sites():
        site_q, links = lattice.gauss_support(coords)
        z_mask = 1 << site_q
        for q in links:
            z_mask ^= 1 << q  # xor so a self-loop link cancels exactly
        phase = 0 if lattice.staggered_sign(coords) == 1 else 2
        out.append(PauliString(lattice.n_qubits, 0, z_mask, phase))
    return out


def classical_code(lattice: Lattice, require_distance: bool = True) -> StabilizerCode:
    """Bare Gauss code: corrects single X errors, blind to Z errors."""
    if require_distance and not lattice.supports_distance3():
        raise ValueError(
            f"distance-3 construction needs at least {3 ** lattice.ndim} sites, "
            f"got {lattice.n_sites}; pass require_distance=False to build anyway"
        )
    n = lattice.n_qubits
    gens = tuple(gauss_generators(lattice))
    logical_z = []
    logical_x = []
    for coords, axis in lattice.links():
        q = lattice.link_qubit(coords, axis)
        s1 = lattice.site_qubit(coords)
        s2 = lattice.site_qubit(lattice.shift(coords, axis))
        logical_z.append(PauliString(n, 0, 1 << q))
        # xor, so a self-loop link (s1 == s2) leaves X on the link alone
        logical_x.append(PauliString(n, (1 << q) ^ (1 << s1) ^ (1 << s2), 0))
    distance = 3 if lattice.supports_distance3() else None
    return StabilizerCode(
        n_physical=n,
        generators=gens,
        logical_x=tuple(logical_x),
        logical_z=tuple(logical_z),
        params=(n, lattice.n_links, distance),
        kind="classical_gauss",
        lattice=lattice,
        n_gauss=len(gens),
    )


def _bit_image(mask: int, images) -> int:
    """XOR of images[q] over the set bits q of mask: the image of a Pauli
    mask under a qubit-wise linear map, such as an encoding."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= images[low.bit_length() - 1]
        mask ^= low
    return out


def concat_repetition(code: StabilizerCode, order: str) -> StabilizerCode:
    """Concatenate the classical Gauss code with the 3-qubit phase-flip
    repetition code, in either order."""
    if code.kind != "classical_gauss":
        raise ValueError("concatenation starts from the classical Gauss code")
    n_base = code.n_physical
    n = 3 * n_base
    lat = code.lattice

    if order == "phase_first":
        # inner code first: each base qubit becomes a triple, so the Gauss
        # checks triple in weight while the new X checks are weight 2
        triples = [0b111 << (3 * q) for q in range(n_base)]
        firsts = [1 << (3 * q) for q in range(n_base)]
        gauss = [PauliString(n, 0, _bit_image(g.z_mask, triples), g.phase_exp) for g in code.gauss_checks]
        x_checks = []
        for q in range(n_base):
            x_checks.append(PauliString(n, 0b011 << (3 * q), 0))
            x_checks.append(PauliString(n, 0b110 << (3 * q), 0))
        logical_z = [PauliString(n, 0, _bit_image(lz.z_mask, triples), lz.phase_exp) for lz in code.logical_z]
        logical_x = [PauliString(n, _bit_image(lx.x_mask, firsts), 0) for lx in code.logical_x]
        kind = "concat_phase_first"
    elif order == "gauss_first":
        # three copies of the base code; X checks compare base logical X
        # operators between neighbouring copies (weight 6)
        gauss = []
        for copy in range(3):
            for g in code.gauss_checks:
                gauss.append(g.shifted(copy * n_base, n))
        x_checks = []
        for lx in code.logical_x:
            m0, m1, m2 = (lx.x_mask << (c * n_base) for c in range(3))
            x_checks.append(PauliString(n, m0 | m1, 0))
            x_checks.append(PauliString(n, m1 | m2, 0))
        logical_z = []
        for lz in code.logical_z:
            mask = lz.z_mask | (lz.z_mask << n_base) | (lz.z_mask << (2 * n_base))
            logical_z.append(PauliString(n, 0, mask))
        logical_x = [lx.shifted(0, n) for lx in code.logical_x]
        kind = "concat_gauss_first"
    else:
        raise ValueError(f"order must be phase_first or gauss_first, got {order!r}")

    return StabilizerCode(
        n_physical=n,
        generators=tuple(gauss) + tuple(x_checks),
        logical_x=tuple(logical_x),
        logical_z=tuple(logical_z),
        params=(n, code.params[1], 3 if code.params[2] else None),
        kind=kind,
        lattice=lat,
        n_gauss=len(gauss),
    )


# -- Hamming concatenation -------------------------------------------------


@dataclass(frozen=True)
class HammingParams:
    """Size accounting for the Hamming-based concatenation.

    k is the logical count after adding the Gauss checks; k_alt records the
    other count printed in the source material (the embedded register size),
    kept for reporting only.
    """

    n_base: int
    r: int
    r_formula: float
    n_physical: int
    total_formula: float
    k: int
    k_alt: int
    distance: int
    code: StabilizerCode | None


def _hamming_rows(r: int) -> list[int]:
    """Parity-check rows of the [2^r-1, 2^r-1-r] Hamming code as bitmasks;
    column c-1 carries the binary expansion of c."""
    n = (1 << r) - 1
    rows = []
    for i in range(r):
        mask = 0
        for c in range(1, n + 1):
            if (c >> i) & 1:
                mask |= 1 << (c - 1)
        rows.append(mask)
    return rows


def _css_logical_pairs(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Paired logical X/Z masks for the self-dual CSS code with X and Z
    checks both equal to `rows`; pair i anticommutes only with partner i."""
    kernel = _gf2.kernel_basis(rows, n)
    solver = _gf2.Solver()
    for rvec in rows:
        solver.add_row(rvec)
    reps = []
    for v in kernel:
        if solver.solve(v) is None:
            reps.append(v)
            solver.add_row(v)
    k = len(reps)
    lz = reps
    # build the anticommutation matrix and normalize it to the identity
    m_rows = []
    for x in reps:
        mask = 0
        for j, z in enumerate(lz):
            if (x & z).bit_count() & 1:
                mask |= 1 << j
        m_rows.append(mask)
    inv = _gf2.invert_matrix(m_rows, k)
    if inv is None:
        raise AssertionError("degenerate symplectic pairing")
    lx = []
    for i in range(k):
        v = 0
        for j in range(k):
            if (inv[i] >> j) & 1:
                v ^= reps[j]
        lx.append(v)
    for i, x in enumerate(lx):
        for j, z in enumerate(lz):
            if ((x & z).bit_count() & 1) != (i == j):
                raise AssertionError(f"logical pair ({i}, {j}) breaks the symplectic pairing")
    return lx, lz


def concat_hamming(lattice: Lattice, require_distance: bool = True) -> HammingParams:
    """Concatenate the classical Gauss code with a quantum Hamming code.

    The base register's qubits are carried by logical qubits of the
    [[2^r-1, 2^r-1-2r, 3]] code; Gauss checks lift to logical-Z products and
    unused logical slots are pinned. Explicit construction only below the
    size cap; above it only the parameter formulas are evaluated.
    """
    base = classical_code(lattice, require_distance=require_distance)
    n_base = base.n_physical
    r = 3
    while (1 << r) - 1 - 2 * r < n_base:
        r += 1
    n_phys = (1 << r) - 1
    lg = math.log2(n_base + 1)
    r_formula = lg + math.log2(1 + 6 * lg / (n_base + 1))
    total_formula = n_base + 1 + 6 * lg
    k = base.params[1]

    code = None
    if n_phys <= HAMMING_BUILD_CAP:
        rows = _hamming_rows(r)
        lx, lz = _css_logical_pairs(rows, n_phys)
        if len(lx) < n_base:
            raise AssertionError("Hamming code too small for the base register")
        z_checks = [PauliString(n_phys, 0, m) for m in rows]
        for g in base.gauss_checks:
            z_checks.append(PauliString(n_phys, 0, _bit_image(g.z_mask, lz), g.phase_exp))
        # pin the logical slots the base register does not use
        for q in range(n_base, len(lz)):
            z_checks.append(PauliString(n_phys, 0, lz[q]))
        x_checks = [PauliString(n_phys, m, 0) for m in rows]
        logical_z = []
        logical_x = []
        logical_z = [PauliString(n_phys, 0, _bit_image(blz.z_mask, lz)) for blz in base.logical_z]
        logical_x = [PauliString(n_phys, _bit_image(blx.x_mask, lx), 0) for blx in base.logical_x]
        code = StabilizerCode(
            n_physical=n_phys,
            generators=tuple(z_checks) + tuple(x_checks),
            logical_x=tuple(logical_x),
            logical_z=tuple(logical_z),
            params=(n_phys, k, 3 if base.params[2] else None),
            kind="concat_hamming",
            lattice=lattice,
            n_gauss=len(z_checks),
        )

    return HammingParams(
        n_base=n_base,
        r=r,
        r_formula=r_formula,
        n_physical=n_phys,
        total_formula=total_formula,
        k=k,
        k_alt=n_base,
        distance=3,
        code=code,
    )


# -- syndromes --------------------------------------------------------------


def _column_image(code: StabilizerCode, pauli: PauliString) -> int:
    """Bit r set where pauli anticommutes with row r of generators +
    logical_x + logical_z: the XOR of its qubits' syndrome columns."""
    if pauli.n_qubits != code.n_physical:
        raise ValueError("qubit count mismatch")
    x_cols, z_cols = code.columns
    return _bit_image(pauli.x_mask, x_cols) ^ _bit_image(pauli.z_mask, z_cols)


def syndrome_of(code: StabilizerCode, error: PauliString) -> Syndrome:
    """Symbolic syndrome: bit 1 where the error anticommutes with a check."""
    image = _column_image(code, error)
    return Syndrome(tuple((image >> r) & 1 for r in range(len(code.generators))), code.n_gauss)


def acts_trivially(code: StabilizerCode, residual: PauliString) -> bool:
    """True when residual commutes with every generator and every logical
    operator, so it triggers no check and moves no logical qubit."""
    return _column_image(code, residual) == 0


def measure_syndrome(code: StabilizerCode, state) -> Syndrome:
    """Syndrome read off a statevector; the state must be an eigenstate of
    every generator (true for any Pauli error applied to a codeword)."""
    bits = []
    for g in code.generators:
        e = sv.expectation_pauli(state, g)
        if abs(abs(e) - 1.0) > 1e-6:
            raise ValueError("state is not a stabilizer eigenstate")
        bits.append(0 if e > 0 else 1)
    return Syndrome(tuple(bits), code.n_gauss)


def _split_bits(code: StabilizerCode, syndrome, want: str) -> tuple[int, ...]:
    if isinstance(syndrome, Syndrome):
        bits = syndrome.bits
    else:
        bits = tuple(int(b) for b in syndrome)
    n_gauss = code.n_gauss
    n_x = len(code.generators) - n_gauss
    if len(bits) == len(code.generators):
        return bits[:n_gauss] if want == "gauss" else bits[n_gauss:]
    if want == "gauss" and len(bits) == n_gauss:
        return bits
    if want == "x" and len(bits) == n_x:
        return bits
    raise ValueError(f"syndrome length {len(bits)} does not match the code")


# -- decoding ----------------------------------------------------------------


def _identity(code: StabilizerCode) -> PauliString:
    return PauliString.identity(code.n_physical)


def _single_error(code: StabilizerCode, bits, letter: str) -> DecodeResult:
    key = 0
    for i, b in enumerate(bits):
        if b:
            key |= 1 << i
    if not key:
        return DecodeResult("clean", _identity(code))
    q = code._decode_tables[letter].get(key)
    if q is None:
        return DecodeResult("uncorrectable", _identity(code))
    return DecodeResult("corrected", PauliString.from_ops(code.n_physical, {q: letter}))


def decode_x(code: StabilizerCode, syndrome) -> DecodeResult:
    """Single-bit-flip decoding from the Z-check (Gauss) syndrome: the lowest
    qubit whose X error gives exactly that syndrome. On the lattice codes one
    defect is a site error and two adjacent defects point at a shared link."""
    if code.kind == "concat_hamming":
        raise ValueError("single-error decoding is defined for the lattice codes only")
    return _single_error(code, _split_bits(code, syndrome, "gauss"), "X")


def decode_z(code: StabilizerCode, syndrome) -> DecodeResult:
    """Single-phase-flip decoding from the X-check syndrome: the lowest qubit
    whose Z error gives exactly that syndrome."""
    if code.kind == "classical_gauss":
        raise ValueError("the bare Gauss code has no phase-flip checks")
    if code.kind == "concat_hamming":
        raise ValueError("single-error decoding is defined for the lattice codes only")
    return _single_error(code, _split_bits(code, syndrome, "x"), "Z")


def decode(code: StabilizerCode, syndrome: Syndrome) -> DecodeResult:
    """Combined X and Z decoding of a full syndrome."""
    dx = decode_x(code, syndrome)
    if code.kind == "classical_gauss":
        return dx
    dz = decode_z(code, syndrome)
    statuses = {dx.status, dz.status}
    if "uncorrectable" in statuses:
        return DecodeResult("uncorrectable", _identity(code))
    if statuses == {"clean"}:
        return DecodeResult("clean", _identity(code))
    return DecodeResult("corrected", dx.correction * dz.correction)


# -- validation ---------------------------------------------------------------


def _stabilizer_solver(code: StabilizerCode) -> _gf2.Solver:
    solver = _gf2.Solver()
    for g in code.generators:
        solver.add_row(g.symplectic())
    return solver


def validate(code: StabilizerCode, sweep: bool = True) -> dict:
    """Structural report: commutation, rank, logical pairing, plus an
    exhaustive single-error sweep for the declared error class. Collects
    problems instead of raising, so fixtures can be inspected as-is."""
    n = code.n_physical
    report: dict = {
        "kind": code.kind,
        "params": tuple(code.params),
        "n_generators": len(code.generators),
        "failures": [],
        "warnings": [],
    }

    for i in range(len(code.generators)):
        for j in range(i + 1, len(code.generators)):
            if not code.generators[i].commutes(code.generators[j]):
                report["failures"].append(f"generators {i} and {j} anticommute")

    rank = _gf2.rank([g.symplectic() for g in code.generators])
    report["rank"] = rank
    report["k_from_rank"] = n - rank
    if rank != len(code.generators):
        report["warnings"].append(
            f"only {rank} of {len(code.generators)} generators are independent"
        )
    if code.params[1] != n - rank:
        report["failures"].append(
            f"declared k={code.params[1]} but n - rank = {n - rank}"
        )

    for i, lx in enumerate(code.logical_x):
        for j, lz in enumerate(code.logical_z):
            if lx.commutes(lz) == (i == j):
                report["failures"].append(f"logical pairing broken at X[{i}], Z[{j}]")
    for name, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for i, op in enumerate(ops):
            for g_idx, g in enumerate(code.generators):
                if not op.commutes(g):
                    report["failures"].append(
                        f"logical {name}[{i}] anticommutes with generator {g_idx}"
                    )
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not ops[i].commutes(ops[j]):
                    report["failures"].append(f"logical {name}[{i}] and {name}[{j}] anticommute")

    if sweep:
        report["sweep"] = _error_sweep(code)
        if report["sweep"]["failures"]:
            report["failures"].extend(report["sweep"]["failures"])
        if code.kind != "concat_hamming" and code.lattice is not None and code.lattice.n_sites >= 2:
            report["double_error_demo"] = _double_error_demo(code)

    report["ok"] = not report["failures"]
    return report


def _error_sweep(code: StabilizerCode) -> dict:
    """Inject every single-qubit error of the declared class; check detection,
    decodability and syndrome injectivity (up to stabilizer degeneracy)."""
    n = code.n_physical
    letters = ("X",) if code.kind == "classical_gauss" else ("X", "Y", "Z")
    decodable = code.kind in ("classical_gauss", "concat_phase_first", "concat_gauss_first")
    solver = _stabilizer_solver(code)
    out: dict = {
        "error_class": "".join(letters),
        "n_errors": 0,
        "n_corrected": 0,
        "failures": [],
        "rows": [],
    }
    by_syndrome: dict[tuple, PauliString] = {}
    for qubit in range(n):
        for letter in letters:
            err = PauliString.from_ops(n, {qubit: letter})
            syn = syndrome_of(code, err)
            out["n_errors"] += 1
            row = {
                "error_qubit": qubit,
                "error_pauli": letter,
                "syndrome": "".join(map(str, syn.bits)),
            }
            if syn.weight == 0:
                out["failures"].append(f"{letter} on qubit {qubit} is undetected")
                row["status"] = "undetected"
                out["rows"].append(row)
                continue
            seen = by_syndrome.get(syn.bits)
            if seen is not None:
                residual = (seen * err).symplectic()
                if solver.solve(residual) is None:
                    out["failures"].append(
                        f"syndrome collision: {letter} on qubit {qubit} vs {seen}"
                    )
            else:
                by_syndrome[syn.bits] = err
            if decodable:
                result = decode(code, syn)
                row["status"] = result.status
                if result.status != "corrected":
                    out["failures"].append(
                        f"{letter} on qubit {qubit} not corrected ({result.status})"
                    )
                else:
                    residual = (err * result.correction).symplectic()
                    if solver.solve(residual) is None:
                        out["failures"].append(
                            f"{letter} on qubit {qubit}: correction leaves a logical residue"
                        )
                    else:
                        out["n_corrected"] += 1
            else:
                row["status"] = "detected"
            out["rows"].append(row)
    return out


def _double_error_demo(code: StabilizerCode) -> dict:
    """Two X errors exceed the single-error budget: show the miscorrection."""
    n = code.n_physical
    lat = code.lattice
    q1 = lat.site_qubit(lat.site_coords(0))
    q2 = lat.site_qubit(lat.site_coords(1))
    if code.kind == "concat_phase_first":
        q1, q2 = 3 * q1, 3 * q2
    err = PauliString(n, (1 << q1) | (1 << q2), 0)
    syn = syndrome_of(code, err)
    result = decode(code, syn)
    residual_ok = False
    if result.status == "corrected":
        solver = _stabilizer_solver(code)
        residual_ok = solver.solve((err * result.correction).symplectic()) is not None
    return {
        "errors": [f"X@{q1}", f"X@{q2}"],
        "status": result.status,
        "faithful": residual_ok,
        "note": "beyond the single-error budget; decoding may misidentify the pattern",
    }


# -- size accounting ---------------------------------------------------------


def patch_sizes(ndim: int = 2, doubling: bool = False) -> int:
    """Physical qubits a single fault can be confined to during a plaquette
    measurement in two dimensions: 3 per site or link over 5 sites plus 16
    links without doubling, or 1 site plus 4 doubled links with it."""
    if ndim != 2:
        raise ValueError("patch accounting is only worked out for two dimensions")
    if doubling:
        return 3 * (1 + 4 * 2)
    return 3 * (5 + 16)


# -- fixtures -----------------------------------------------------------------

_TABLE2_X_CHECKS = (
    (0, 2, 4, 6, 8, 10),
    (1, 2, 5, 6, 9, 10),
    (3, 4, 5, 6),
    (7, 8, 9, 10),
)
_TABLE2_Z_CHECKS = (
    (1, 2, 7, 8),
    (1, 4, 5, 7, 8),
    (0, 3, 4),
    (3, 6, 7, 10),
    (3, 6, 8, 9),
)
_TABLE2_LOGICAL_Z = (
    (0, 1, 2),
    (1, 2, 3, 4),
    (3, 4, 5, 6),
    (5, 6, 7, 8),
    (2, 3, 6),
)
_TABLE2_LOGICAL_X = (
    (0,),
    (0, 2, 3, 4),
    (3, 4, 6, 7),
    (7,),
    (1, 2),
)


def _mask(qubits) -> int:
    out = 0
    for q in qubits:
        out |= 1 << q
    return out


def table2_fixture() -> tuple[StabilizerCode, dict]:
    """Verbatim 11-qubit Hamming phase-flip fixture, returned with a
    report-mode validation (discrepancies are listed, never raised)."""
    n = 11
    z_checks = tuple(PauliString(n, 0, _mask(qs)) for qs in _TABLE2_Z_CHECKS)
    x_checks = tuple(PauliString(n, _mask(qs), 0) for qs in _TABLE2_X_CHECKS)
    code = StabilizerCode(
        n_physical=n,
        generators=z_checks + x_checks,
        logical_x=tuple(PauliString(n, _mask(qs), 0) for qs in _TABLE2_LOGICAL_X),
        logical_z=tuple(PauliString(n, 0, _mask(qs)) for qs in _TABLE2_LOGICAL_Z),
        params=(11, 5, 3),
        kind="concat_hamming",
        n_gauss=len(z_checks),
        meta={"fixture": "two-site Hamming phase-flip table"},
    )
    return code, validate(code, sweep=True)


# -- cross-code transversality ----------------------------------------------

_STEANE_SUPPORTS = ((3, 4, 5, 6), (1, 2, 5, 6), (0, 2, 4, 6))


def transversal_cnot_check() -> dict:
    """Logical CNOT between a 7-qubit self-dual CSS block (control) and the
    3-qubit phase-flip repetition code (target) via three physical CNOTs.

    Returns a report with the logical truth table and the stabilizer
    expectations of every output state; pass requires all four basis states
    to map correctly within 1e-10 and all stabilizers to stay +1.
    """
    n = 10
    steane_x = [PauliString(n, _mask(qs), 0) for qs in _STEANE_SUPPORTS]
    steane_z = [PauliString(n, 0, _mask(qs)) for qs in _STEANE_SUPPORTS]
    rep_checks = [
        PauliString(n, _mask((7, 8)), 0),
        PauliString(n, _mask((8, 9)), 0),
    ]
    stabilizers = steane_x + steane_z + rep_checks
    xbar_c = PauliString(n, _mask((0, 1, 2)), 0)
    zbar_c = PauliString(n, 0, _mask((0, 1, 2)))
    xbar_t = PauliString(n, _mask((7, 8, 9)), 0)
    zbar_t = PauliString(n, 0, _mask((7, 8, 9)))

    def encoded(a: int, b: int) -> sv.Statevector:
        state = sv.Statevector(n, [1.0] * (1 << n))
        state.normalize()
        sv.project_codespace(state, stabilizers + [zbar_c, zbar_t])
        state.normalize()
        if a:
            sv.apply_pauli(state, xbar_c)
        if b:
            sv.apply_pauli(state, xbar_t)
        return state

    report = {"cases": [], "pass": True}
    for a in (0, 1):
        for b in (0, 1):
            state = encoded(a, b)
            for q in range(3):
                sv.apply_cnot(state, q, 7 + q)
            expected = encoded(a, a ^ b)
            fidelity = abs(state.overlap(expected))
            stab_ok = all(
                abs(sv.expectation_pauli(state, g) - 1.0) < 1e-10 for g in stabilizers
            )
            case = {
                "input": f"|{a}{b}>",
                "expected": f"|{a}{a ^ b}>",
                "fidelity": fidelity,
                "stabilizers_plus_one": stab_ok,
            }
            if fidelity < 1.0 - 1e-10 or not stab_ok:
                report["pass"] = False
            report["cases"].append(case)
    return report

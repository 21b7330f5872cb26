"""Symplectic representation and algebra of n-qubit Pauli operators.

A PauliString is stored as two bitmasks plus a quartic phase exponent:

    operator = i**phase_exp * (X over x_mask) * (Z over z_mask)

with all X factors written to the left of all Z factors. Bit q of a mask
refers to qubit q; in text labels qubit 0 is the leftmost character. The
global product convention is fixed by this normal form: on a single qubit
X*Z has phase_exp 0 and prints as "-iY" (since Y = i*X*Z).

PauliSum is an ordered, duplicate-merged list of (coefficient, PauliString)
terms. The public form is Hermitian with real coefficients; intermediate
algebra (ladder operators, string products) may carry complex coefficients
until hermitian() is called.
"""

from __future__ import annotations

from dataclasses import dataclass

_SIGN_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_SIGN_EXPS = {"+": 0, "+i": 1, "-": 2, "-i": 3, "": 0, "i": 1}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

COEFF_EPS = 1e-15  # terms smaller than this are dropped when merging


@dataclass(frozen=True)
class PauliString:
    """Immutable n-qubit Pauli operator i^phase_exp * X^x * Z^z."""

    n_qubits: int
    x_mask: int = 0
    z_mask: int = 0
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask does not fit the qubit count")
        if self.phase_exp not in (0, 1, 2, 3):
            object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits)

    @classmethod
    def from_ops(cls, n_qubits: int, ops: dict[int, str], phase_exp: int = 0) -> "PauliString":
        """Build from {qubit: letter}; letters are plain (+1) I/X/Y/Z factors."""
        x = z = 0
        extra = 0
        for q, letter in ops.items():
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range")
            xb, zb = _LETTER_BITS[letter]
            x |= xb << q
            z |= zb << q
            if letter == "Y":
                extra += 1  # Y = i X Z picks up one factor of i in normal form
        return cls(n_qubits, x, z, (phase_exp + extra) % 4)

    @classmethod
    def from_label(cls, text: str) -> "PauliString":
        """Parse canonical text: optional sign in {+, -, +i, -i}, then one
        letter per qubit from {I, X, Y, Z}, qubit 0 leftmost."""
        if not text:
            raise ValueError("empty Pauli label")
        body = text
        sign = ""
        for prefix in ("+i", "-i", "i", "+", "-"):
            if body.startswith(prefix):
                sign = prefix
                body = body[len(prefix):]
                break
        if not body:
            raise ValueError(f"no Pauli letters in {text!r}")
        x = z = 0
        n_y = 0
        for q, letter in enumerate(body):
            if letter not in _LETTER_BITS:
                raise ValueError(f"illegal character {letter!r} in {text!r}")
            xb, zb = _LETTER_BITS[letter]
            x |= xb << q
            z |= zb << q
            n_y += letter == "Y"
        return cls(len(body), x, z, (_SIGN_EXPS[sign] + n_y) % 4)

    # -- basic queries ---------------------------------------------------

    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def _n_y(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def is_hermitian(self) -> bool:
        # i^phase * (XZ pairs contribute (-i) each relative to Y): Hermitian
        # iff the total power of i is even
        return (self.phase_exp + self._n_y) % 2 == 0

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def commutes(self, other: "PauliString") -> bool:
        """Symplectic inner product (a.x*b.z + a.z*b.x) mod 2 == 0."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        overlap = (self.x_mask & other.z_mask).bit_count() + (self.z_mask & other.x_mask).bit_count()
        return overlap % 2 == 0

    # -- group algebra ---------------------------------------------------

    def multiply(self, other: "PauliString") -> "PauliString":
        """Group product self*other with exact phase tracking.

        Moving other's X block through self's Z block gives one (-1) per
        overlapping qubit, hence the 2*popcount term in the phase.
        """
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        phase = (self.phase_exp + other.phase_exp + 2 * (self.z_mask & other.x_mask).bit_count()) % 4
        return PauliString(self.n_qubits, self.x_mask ^ other.x_mask, self.z_mask ^ other.z_mask, phase)

    __mul__ = multiply

    def dagger(self) -> "PauliString":
        # (X^x Z^z)^dagger = Z^z X^x = (-1)^{x.z overlap} X^x Z^z
        phase = (-self.phase_exp + 2 * self._n_y) % 4
        return PauliString(self.n_qubits, self.x_mask, self.z_mask, phase)

    def with_phase(self, phase_exp: int) -> "PauliString":
        return PauliString(self.n_qubits, self.x_mask, self.z_mask, phase_exp % 4)

    def letter_form(self) -> "PauliString":
        """Same letters with a plain + sign, e.g. -iY -> +Y."""
        return self.with_phase(self._n_y)

    def sign_exp(self) -> int:
        """Exponent k with self = i^k * (plain letter product)."""
        return (self.phase_exp - self._n_y) % 4

    def symplectic(self) -> int:
        """GF(2) row x | z << n of the phase-free operator."""
        return self.x_mask | (self.z_mask << self.n_qubits)

    def shifted(self, offset: int, n_qubits: int) -> "PauliString":
        """The same operator moved up by offset qubits in an n_qubits register."""
        return PauliString(n_qubits, self.x_mask << offset, self.z_mask << offset, self.phase_exp)

    # -- text ---------------------------------------------------------------

    def label(self) -> str:
        letters = []
        for q in range(self.n_qubits):
            bits = ((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)
            letters.append(_BITS_LETTER[bits])
        return _SIGN_LABELS[self.sign_exp()] + "".join(letters)

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


def parse(text: str) -> PauliString:
    return PauliString.from_label(text)


class PauliSum:
    """Ordered sum of coefficient * PauliString with duplicate merging.

    Terms are keyed by (x_mask, z_mask); each stored op is in letter form
    (plain + sign) and any i^k from the operator moves into the coefficient.
    Insertion order of first appearance is preserved, which downstream code
    relies on for deterministic Trotter orderings.
    """

    def __init__(self, n_qubits: int, terms=None, *, allow_complex: bool = False):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self._allow_complex = allow_complex
        self._order: list[tuple[int, int]] = []
        self._coeffs: dict[tuple[int, int], complex] = {}
        for coeff, op in terms or []:
            self.add_term(coeff, op)

    # -- construction ------------------------------------------------------

    def add_term(self, coeff, op: PauliString) -> None:
        if op.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        coeff = complex(coeff) * (1j ** op.sign_exp())
        if not self._allow_complex:
            if abs(coeff.imag) > COEFF_EPS:
                raise ValueError(f"non-real coefficient {coeff} for {op.letter_form()}")
            if not op.is_hermitian():
                raise ValueError(f"non-Hermitian term {op}")
            coeff = coeff.real
        key = (op.x_mask, op.z_mask)
        if key not in self._coeffs:
            self._coeffs[key] = 0
            self._order.append(key)
        self._coeffs[key] += coeff

    def _prune(self) -> None:
        dead = [k for k in self._order if abs(self._coeffs[k]) < COEFF_EPS]
        for k in dead:
            self._order.remove(k)
            del self._coeffs[k]

    # -- views --------------------------------------------------------------

    @property
    def terms(self) -> list[tuple[float, PauliString]]:
        """Merged (real coefficient, letter-form op) pairs in first-seen order."""
        out = []
        for x, z in self._order:
            c = self._coeffs[(x, z)]
            if abs(c) < COEFF_EPS:
                continue
            if abs(complex(c).imag) > 1e-12:
                raise ValueError(f"term with non-real coefficient {c}; call hermitian() first")
            n_y = (x & z).bit_count()
            out.append((float(complex(c).real), PauliString(self.n_qubits, x, z, n_y % 4)))
        return out

    def complex_terms(self) -> list[tuple[complex, PauliString]]:
        out = []
        for x, z in self._order:
            c = self._coeffs[(x, z)]
            if abs(c) < COEFF_EPS:
                continue
            n_y = (x & z).bit_count()
            out.append((complex(c), PauliString(self.n_qubits, x, z, n_y % 4)))
        return out

    def __len__(self) -> int:
        return sum(1 for k in self._order if abs(self._coeffs[k]) >= COEFF_EPS)

    def __iter__(self):
        return iter(self.terms)

    def coefficient(self, op: PauliString) -> complex:
        """Coefficient of the letter-form of op (0 when absent)."""
        c = self._coeffs.get((op.x_mask, op.z_mask), 0)
        return c * (1j ** (-op.sign_exp() % 4))

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        out = PauliSum(self.n_qubits, allow_complex=True)
        for c, op in self.complex_terms():
            out.add_term(c, op)
        for c, op in other.complex_terms():
            out.add_term(c, op)
        out._prune()
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "PauliSum":
        out = PauliSum(self.n_qubits, allow_complex=True)
        for c, op in self.complex_terms():
            out.add_term(c * factor, op)
        return out

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        out = PauliSum(self.n_qubits, allow_complex=True)
        for ca, a in self.complex_terms():
            for cb, b in other.complex_terms():
                out.add_term(ca * cb, a * b)
        out._prune()
        return out

    __rmul__ = __mul__

    def dagger(self) -> "PauliSum":
        out = PauliSum(self.n_qubits, allow_complex=True)
        for c, op in self.complex_terms():
            out.add_term(complex(c).conjugate(), op.dagger())
        return out

    def hermitian(self, atol: float = 1e-12) -> "PauliSum":
        """Finalize into the public real-coefficient Hermitian form."""
        out = PauliSum(self.n_qubits)
        for x, z in self._order:
            c = self._coeffs[(x, z)]
            if abs(c) < COEFF_EPS:
                continue
            if abs(complex(c).imag) > atol:
                raise ValueError(f"residual imaginary coefficient {c}")
            n_y = (x & z).bit_count()
            out.add_term(complex(c).real, PauliString(self.n_qubits, x, z, n_y % 4))
        return out

    # -- serialization -------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [{"coeff": c, "pauli": op.label()} for c, op in self.terms]

    @classmethod
    def from_records(cls, n_qubits: int, records) -> "PauliSum":
        return cls(n_qubits, [(r["coeff"], PauliString.from_label(r["pauli"])) for r in records])

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{op.label()}" for c, op in self.terms[:4]]
        more = "" if len(self) <= 4 else f" ... ({len(self)} terms)"
        return f"PauliSum({' '.join(parts)}{more})"

"""GF(2) linear algebra on integer bitmasks.

Vectors are python ints (bit q = coordinate q), which keeps row operations
at O(n/w) and avoids any dense boolean matrices. Used for stabilizer rank
counts, syndrome-span membership and logical-operator completion.
"""

from __future__ import annotations


def rank(rows: list[int]) -> int:
    """Rank of the span of the given bit vectors."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


class Solver:
    """Incremental GF(2) solver that remembers how each pivot was built.

    Rows are added once; solve() then expresses a target as an XOR of the
    original rows, returning the combination as a bitmask over row indices
    (bit i set = row i used), or None when the target is outside the span.
    """

    def __init__(self) -> None:
        # list of (reduced vector, combination mask), kept with distinct
        # leading bits so reduction is a single pass
        self._pivots: list[tuple[int, int]] = []
        self._n_rows = 0

    def add_row(self, vec: int) -> None:
        combo = 1 << self._n_rows
        self._n_rows += 1
        vec, combo = self._reduce(vec, combo)
        if vec:
            self._pivots.append((vec, combo))
            self._pivots.sort(key=lambda p: -p[0])

    def _reduce(self, vec: int, combo: int) -> tuple[int, int]:
        for pvec, pcombo in self._pivots:
            nxt = vec ^ pvec
            if nxt < vec:
                vec, combo = nxt, combo ^ pcombo
        return vec, combo

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def solve(self, target: int) -> int | None:
        vec, combo = self._reduce(target, 0)
        if vec:
            return None
        return combo


def invert_matrix(rows: list[int], n: int) -> list[int] | None:
    """Inverse of an n x n GF(2) matrix given as row bitmasks, or None when
    the matrix is singular. Row i of the result is returned as a bitmask."""
    work = [(rows[i], 1 << i) for i in range(n)]
    out: list[tuple[int, int]] = []
    for col in range(n):
        pivot = None
        for i, (vec, _) in enumerate(work):
            if (vec >> col) & 1:
                pivot = i
                break
        if pivot is None:
            return None
        pvec, pinv = work.pop(pivot)
        for i, (vec, inv) in enumerate(work):
            if (vec >> col) & 1:
                work[i] = (vec ^ pvec, inv ^ pinv)
        for i, (vec, inv) in enumerate(out):
            if (vec >> col) & 1:
                out[i] = (vec ^ pvec, inv ^ pinv)
        out.append((pvec, pinv))
    return [inv for _, inv in out]


def kernel_basis(rows: list[int], n: int) -> list[int]:
    """Basis of {v : popcount(v & r) even for every r in rows}, as bitmasks.

    Computed by eliminating on the n coordinate columns of the row matrix.
    """
    # column-echelon elimination over the rows; free columns generate the kernel
    work = list(rows)
    pivot_col_of_row: list[int] = []
    used_cols: set[int] = set()
    reduced: list[int] = []
    for r in work:
        for rr, pc in zip(reduced, pivot_col_of_row):
            if (r >> pc) & 1:
                r ^= rr
        if r == 0:
            continue
        pc = r.bit_length() - 1
        # clear this column from earlier reduced rows
        for i, rr in enumerate(reduced):
            if (rr >> pc) & 1:
                reduced[i] = rr ^ r
        reduced.append(r)
        pivot_col_of_row.append(pc)
        used_cols.add(pc)
    free_cols = [c for c in range(n) if c not in used_cols]
    out = []
    for c in free_cols:
        v = 1 << c
        # each pivot column lives in exactly one reduced row, so toggling it
        # fixes that row's parity without disturbing the others
        for rr, pc in zip(reduced, pivot_col_of_row):
            if (rr & v).bit_count() & 1:
                v ^= 1 << pc
        out.append(v)
    for v in out:
        for r in rows:
            if (v & r).bit_count() % 2:
                raise AssertionError("kernel vector is not orthogonal to every row")
    return out

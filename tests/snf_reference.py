"""Reference lattice routines for the tests.

``smith_normal_form`` is the textbook dense algorithm with both unimodular
transforms, over its own integer matrix class.  It shares no code with
``liecert.exact``, whose ``invariant_factors`` and ``hermite_insert`` are
checked against it.  ``hermite_pivots`` reads the pivots of the row Hermite
form that ``hermite_insert`` builds; it is the span test of the reference
enumerator in ``test_qgraded``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from liecert.exact import hermite_insert


@dataclass(frozen=True)
class MatZ:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("MatZ entries must be ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "MatZ":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(map(int, row))
        return MatZ(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "MatZ":
        return MatZ(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def mul(self, other: "MatZ") -> "MatZ":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        b_cols = list(zip(*other.to_rows())) or [()] * other.cols
        return MatZ.from_rows([[sum(map(operator.mul, row, col)) for col in b_cols] for row in self.to_rows()])

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


def _snf_min_entry(rows: list[list[int]], t: int, nr: int, nc: int) -> tuple[int, int] | None:
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            v = rows[i][j]
            if v != 0 and (best is None or abs(v) < abs(rows[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(a: MatZ) -> tuple[MatZ, MatZ, MatZ]:
    """Smith normal form ``u * a * v = d`` with unimodular ``u``, ``v``.

    ``d`` is diagonal with nonnegative entries and ``d_i | d_{i+1}``.
    """
    nr, nc = a.rows, a.cols
    m = a.to_rows()
    u = MatZ.identity(nr).to_rows()
    v = MatZ.identity(nc).to_rows()

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for row in m:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    while t < min(nr, nc):
        pos = _snf_min_entry(m, t, nr, nc)
        if pos is None:
            break
        while True:
            pos = _snf_min_entry(m, t, nr, nc)
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // pivot
                    add_row(i, t, -q)
                    if m[i][t] != 0:
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // pivot
                    add_col(j, t, -q)
                    if m[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry; if not, fold the
            # offending row in and restart the reduction of this corner
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    um, dm, vm = MatZ.from_rows(u), MatZ.from_rows(m), MatZ.from_rows(v)
    if um.mul(a).mul(vm).entries != dm.entries:
        raise AssertionError("Smith normal form identity u * a * v = d fails")
    return um, dm, vm


def smith_factors(vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal of the reference Smith form; ``()`` for no vectors."""
    if not vectors:
        return ()
    _, d, _ = smith_normal_form(MatZ.from_rows(vectors))
    return tuple(x for x in d.diagonal() if x)


def hermite_pivots(vectors: Iterable[Sequence[int]], dim: int) -> list[int]:
    """Pivot entries, in column order, of the row Hermite form of the lattice
    that the integer vectors span in Z^dim.

    The vectors span Z^dim iff there are ``dim`` pivots and every one is 1.
    """
    pivots: dict[int, list[int]] = {}
    for vec in vectors:
        hermite_insert(pivots, vec, dim)
    return [pivots[c][c] for c in sorted(pivots)]

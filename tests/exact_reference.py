"""Reduced row echelon form and the sparse solver for the tests.

``rref`` reads the unique reduced row echelon form, its rank and its pivot
columns off ``liecert.exact.Echelon``.  No command needs the dense form, so
it lives here, where tests use it for ranks and as the engine's read-out
against sympy and the ``Fraction`` reference engine.

``solve_sparse`` is ``liecert.exact.solve`` for ``{column: value}`` rows, as
it was before ``exact.Solver``: the right-hand side is one more column of the
elimination.  Its only caller in the package was the windowed ``inner-match``
search, now the oracle in ``loopalg_reference``; on the rows of a ``MatQ`` it
is the oracle for ``Solver`` and ``solve``.

``DenseMatQ`` is ``liecert.exact.MatQ`` as it was while it stored every
entry in a row-major tuple, and ``dense_kernel_basis``, ``dense_inverse``
and ``DenseSolver`` are the package's readers of that time, which fed the
elimination one dense row at a time.  They are the oracle for the sparse
``MatQ``.  ``dense(m)`` is the one way the tests densify a ``MatQ``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from liecert.exact import (
    _ONE,
    _ZERO,
    Echelon,
    MatQ,
    Rat,
    _ReadOnly,
    _Value,
    expect_json,
    json_field,
    rat_from_str,
    rat_to_str,
)


@dataclass(frozen=True)
class RrefResult:
    reduced: MatQ
    rank: int
    pivots: tuple[int, ...]


def rref(m: MatQ) -> RrefResult:
    """Unique reduced row-echelon form, with rank and pivot columns."""
    ech = Echelon()
    for row in m.row_dicts():
        ech.add(row)
    red = ech.reduced()
    flat = {i * m.cols + j: x for i, row in enumerate(red.values()) for j, x in row.items()}
    return RrefResult(MatQ(m.rows, m.cols, flat), len(red), tuple(red))


def solve_sparse(rows: list[dict[int, Rat]], rhs: Sequence[Rat | int], ncols: int) -> tuple[Rat, ...] | None:
    """One exact solution of the ``{column: value}`` rows, with the witness
    of ``liecert.exact.solve`` (free variables zeroed); None at the first row
    that reduces to a nonzero constant."""
    # the right-hand side is column ncols, the last, so it leads a row only
    # when that row is inconsistent
    ech = Echelon()
    for row, b in zip(rows, rhs):
        if ech.add({**row, ncols: b}) and ncols in ech._rows:
            return None
    x = [_ZERO] * ncols
    for c, (d, row) in ech._back().items():
        x[c] = Fraction(row[ncols], d) if ncols in row else _ZERO
    return tuple(x)


def dense(m: MatQ) -> DenseMatQ:
    """The entries of m, every one stored, as the old dense class."""
    return DenseMatQ(m.rows, m.cols, tuple(m.at(i, j) for i in range(m.rows) for j in range(m.cols)))


class DenseMatQ(_Value):
    """Dense rational matrix, row-major, immutable."""

    def __init__(self, rows: int, cols: int, entries: tuple[Rat, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat | int]]) -> "DenseMatQ":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Rat] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(v if isinstance(v, Fraction) else Fraction(v) for v in row)
        return DenseMatQ(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "DenseMatQ":
        return DenseMatQ(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def sparse(rows: int, cols: int, entries: Mapping[int, Rat]) -> "DenseMatQ":
        """The matrix with the given entries by row-major index and the shared
        zero elsewhere; its ``nonzeros`` are known without a scan."""
        live = {u: x for u, x in entries.items() if x}
        flat = [_ZERO] * (rows * cols)
        for u, x in live.items():
            flat[u] = x
        m = DenseMatQ(rows, cols, tuple(flat))
        m.__dict__["nonzeros"] = MappingProxyType(live)  # what the cached property would compute
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "DenseMatQ":
        return DenseMatQ(rows, cols, (_ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @cached_property
    def nonzeros(self) -> Mapping[int, Rat]:
        """The nonzero entries by row-major index, read once per matrix (the
        shared zero is skipped by identity) and kept read-only."""
        return MappingProxyType({u: x for u, x in enumerate(self.entries) if x is not _ZERO and x})

    def mul(self, other: "DenseMatQ") -> "DenseMatQ":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        n = other.cols
        # the nonzeros of other, by row; untouched entries stay the shared zero
        by_row: list[list[tuple[int, Rat]]] = [[] for _ in range(other.rows)]
        for u, b in other.nonzeros.items():
            by_row[u // n].append((u % n, b))
        out = [_ZERO] * (self.rows * n)
        for u, a in self.nonzeros.items():
            i, k = divmod(u, self.cols)
            for j, b in by_row[k]:
                out[i * n + j] += a * b
        return DenseMatQ(self.rows, n, tuple(out))

    def mul_vec(self, v: Sequence[Rat | int]) -> tuple[Rat, ...]:
        """``self v`` over the nonzeros; every coordinate is a ``Fraction``,
        the shared zero where no product lands."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        n = self.cols
        out = [_ZERO] * self.rows
        for u, a in self.nonzeros.items():
            b = v[u % n]
            if b:
                out[u // n] += a * b
        return tuple(out)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i)
        )

    def to_json(self) -> dict:
        entries = ["0" if e is _ZERO else rat_to_str(e) for e in self.entries]  # the shared zero needs no check
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @staticmethod
    def from_json(obj: dict) -> "DenseMatQ":
        expect_json(obj, dict, "matrix")
        rows, cols = (expect_json(json_field(obj, k, "matrix"), int, f"matrix {k}") for k in ("rows", "cols"))
        entries = expect_json(json_field(obj, "entries", "matrix"), list, "matrix entries")
        return DenseMatQ(rows, cols, tuple(rat_from_str(e) for e in entries))


def dense_kernel_basis(m: DenseMatQ) -> list[tuple[Rat, ...]]:
    """Basis of the right null space, one vector per free column, ascending."""
    ech = Echelon()
    for i in range(m.rows):
        ech.add(dict(enumerate(m.row(i))))
    return ech.kernel(m.cols)


def dense_inverse(m: DenseMatQ) -> DenseMatQ | None:
    """The inverse of a square matrix, or None when it is singular: ``[m | I]``
    is reduced in one :class:`Echelon`, and m is invertible iff no pivot falls
    in the right half, which then holds the inverse."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of a non-square matrix")
    ech = Echelon()
    for i in range(n):
        ech.add({**dict(enumerate(m.row(i))), n + i: _ONE})
    if any(c >= n for c in ech._rows):
        return None
    red = ech.reduced()
    return DenseMatQ(n, n, tuple(red[c].get(n + j, _ZERO) for c in range(n) for j in range(n)))


class DenseSolver(_ReadOnly):
    """``m x = b`` for one matrix m and any number of right-hand sides b.

    ``[m | I]`` is reduced once.  Its rows with a pivot c in m are
    ``[R_c | E_c]``, where R is the reduced row echelon form of m and E the
    row operations that give it; its other rows are ``[0 | y]`` with
    ``y m = 0``, and they span the left null space.  So ``m x = b`` is
    consistent iff ``y . b = 0`` for each such y, and then ``[R | E b]`` is
    the unique reduced form of ``[m | b]``: ``solve`` returns
    ``x[c] = E_c . b`` at each pivot c and zero elsewhere."""

    def __init__(self, m: DenseMatQ):
        rows, cols = m.rows, m.cols
        ech = Echelon()
        for i in range(rows):
            ech.add({**dict(enumerate(m.row(i))), cols + i: _ONE})
        # each reduced row as the pairs (i, coefficient of b_i) of its right half
        red = {c: tuple((j - cols, v) for j, v in row.items() if j >= cols) for c, row in ech.reduced().items()}
        self.__dict__.update(
            rows=rows,
            cols=cols,
            pivots=tuple((c, e) for c, e in red.items() if c < cols),
            checks=tuple(y for c, y in red.items() if c >= cols),
        )

    def solve(self, b: Sequence[Rat | int]) -> tuple[Rat, ...] | None:
        """One solution of ``m x = b`` with the free variables zero, or None
        when it is inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        if any(sum(v * b[i] for i, v in y if b[i]) for y in self.checks):
            return None
        x = [_ZERO] * self.cols
        for c, e in self.pivots:
            x[c] = sum((v * b[i] for i, v in e if b[i]), _ZERO)
        return tuple(x)

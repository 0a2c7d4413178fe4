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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from liecert.exact import _ZERO, Echelon, MatQ, Rat


@dataclass(frozen=True)
class RrefResult:
    reduced: MatQ
    rank: int
    pivots: tuple[int, ...]


def rref(m: MatQ) -> RrefResult:
    """Unique reduced row-echelon form, with rank and pivot columns."""
    ech = Echelon()
    for i in range(m.rows):
        ech.add(dict(enumerate(m.row(i))))
    red = ech.reduced()
    flat = [row.get(j, _ZERO) for row in red.values() for j in range(m.cols)]
    flat += [_ZERO] * ((m.rows - len(red)) * m.cols)
    return RrefResult(MatQ(m.rows, m.cols, tuple(flat)), len(red), tuple(red))


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

"""Reduced row echelon form for the tests.

``rref`` reads the unique reduced row echelon form, its rank and its pivot
columns off ``liecert.exact.Echelon``.  No command needs the dense form, so
it lives here, where tests use it for ranks and as the engine's read-out
against sympy and the ``Fraction`` reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from liecert.exact import _ZERO, Echelon, MatQ


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

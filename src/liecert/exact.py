"""Exact rational and integer linear algebra.

Everything runs over arbitrary-precision integers and ``fractions.Fraction``;
no floating point anywhere.  One sparse elimination engine, :class:`Echelon`,
sits behind ``rref``, ``kernel_basis``, ``inverse``, ``solve`` and
``solve_sparse``; their results are read off the unique reduced row echelon
form, with free variables zeroed, so they do not depend on elimination order.
The Smith form fixes its own sign normalisation.  Downstream certificates are
therefore reproducible byte-for-byte.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

__all__ = [
    "Rat",
    "MatQ",
    "MatZ",
    "RrefResult",
    "Echelon",
    "rref",
    "kernel_basis",
    "inverse",
    "solve",
    "solve_sparse",
    "smith_normal_form",
    "hermite_insert",
    "hermite_pivots",
    "rat_to_str",
    "rat_from_str",
    "expect_json",
]


def rat_to_str(x: Rat | int) -> str:
    """Serialize a rational as ``"p"`` or ``"p/q"`` in lowest terms."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Rat:
    # strings only: a JSON float would be read as its binary value, a boolean as 0 or 1
    if not isinstance(s, str):
        raise ValueError(f"expected a rational as a string, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


_JSON_KINDS = {dict: "object", list: "array", int: "integer"}


def expect_json(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (dict, list or int), else ValueError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what}: expected a JSON {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class MatQ:
    """Dense rational matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat | int]]) -> "MatQ":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Rat] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(Fraction(v) for v in row)
        return MatQ(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "MatQ":
        return MatQ(rows, cols, (Fraction(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out: list[Rat] = []
        orows = other.to_rows()
        for i in range(self.rows):
            ri = self.row(i)
            acc = [Fraction(0)] * other.cols
            for k, a in enumerate(ri):
                if a:
                    rk = orows[k]
                    for j in range(other.cols):
                        if rk[j]:
                            acc[j] += a * rk[j]
            out.extend(acc)
        return MatQ(self.rows, other.cols, tuple(out))

    def mul_vec(self, v: Sequence[Rat | int]) -> tuple[Rat, ...]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        # entries are Fractions, so products with int coordinates are Fractions too
        return tuple(sum((a * b for a, b in zip(self.row(i), v) if a and b), Fraction(0)) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i)
        )

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [rat_to_str(e) for e in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "MatQ":
        expect_json(obj, dict, "matrix")
        rows, cols = (expect_json(obj[k], int, f"matrix {k}") for k in ("rows", "cols"))
        entries = expect_json(obj["entries"], list, "matrix entries")
        return MatQ(rows, cols, tuple(rat_from_str(e) for e in entries))


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


@dataclass(frozen=True)
class RrefResult:
    reduced: MatQ
    rank: int
    pivots: tuple[int, ...]


class Echelon:
    """Sparse row echelon form over Q, grown one row at a time: ``rows`` maps
    each leading (smallest) column to its ``{column: value}`` row, scaled so
    the leading entry is 1.  This is the module's only elimination routine."""

    def __init__(self):
        self.rows: dict[int, dict[int, Rat]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: dict[int, Rat | int]) -> bool:
        """Reduce ``row`` and keep what is left; False if it was dependent."""
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in self.rows:
                f = Fraction(row[c])
                self.rows[c] = {cc: v / f for cc, v in row.items()}
                return True
            _subtract(row, row[c], self.rows[c])
        return False

    def reduced(self) -> dict[int, dict[int, Rat]]:
        """The unique reduced row echelon form, keyed by pivot, ascending."""
        red: dict[int, dict[int, Rat]] = {}
        for c in sorted(self.rows, reverse=True):
            row = dict(self.rows[c])
            for p in [p for p in row if p != c and p in red]:
                _subtract(row, row[p], red[p])
            red[c] = row
        return dict(sorted(red.items()))

    def kernel(self, ncols: int) -> list[tuple[Rat, ...]]:
        """Null space basis, one vector per free column, ascending."""
        red = self.reduced()
        return [
            tuple(-red[c].get(fc, _ZERO) if c in red else (_ONE if c == fc else _ZERO) for c in range(ncols))
            for fc in range(ncols)
            if fc not in red
        ]


_ZERO, _ONE = Fraction(0), Fraction(1)


def _subtract(row: dict[int, Rat], f: Rat, prow: dict[int, Rat]) -> None:
    """``row -= f * prow`` in place, dropping the entries that vanish."""
    for c, v in prow.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            del row[c]


def _echelon(m: MatQ) -> Echelon:
    ech = Echelon()
    for i in range(m.rows):
        ech.add(dict(enumerate(m.row(i))))
    return ech


def rref(m: MatQ) -> RrefResult:
    """Unique reduced row-echelon form, with rank and pivot columns."""
    red = _echelon(m).reduced()
    flat = [row.get(j, _ZERO) for row in red.values() for j in range(m.cols)]
    flat += [_ZERO] * ((m.rows - len(red)) * m.cols)
    return RrefResult(MatQ(m.rows, m.cols, tuple(flat)), len(red), tuple(red))


def kernel_basis(m: MatQ) -> list[tuple[Rat, ...]]:
    """Basis of the right null space, one vector per free column, ascending."""
    return _echelon(m).kernel(m.cols)


def inverse(m: MatQ) -> MatQ | None:
    """The inverse of a square matrix, or None when it is singular: ``[m | I]``
    is reduced in one :class:`Echelon`, and m is invertible iff no pivot falls
    in the right half, which then holds the inverse."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of a non-square matrix")
    ech = Echelon()
    for i in range(n):
        ech.add({**dict(enumerate(m.row(i))), n + i: _ONE})
    if any(c >= n for c in ech.rows):
        return None
    red = ech.reduced()
    return MatQ(n, n, tuple(red[c].get(n + j, _ZERO) for c in range(n) for j in range(n)))


def solve(m: MatQ, b: Sequence[Rat | int]) -> tuple[Rat, ...] | None:
    """One exact solution of ``m x = b``, or None when inconsistent.

    Deterministic: free variables are set to zero, so repeated runs (and
    reorderings of untouched data) give the identical witness vector.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    return _solve((dict(enumerate(m.row(i))) for i in range(m.rows)), b, m.cols)


def solve_sparse(rows: list[dict[int, Rat]], rhs: Sequence[Rat | int], ncols: int) -> tuple[Rat, ...] | None:
    """:func:`solve` for ``{column: value}`` rows, with the same witness;
    returns None at the first row that reduces to a nonzero constant."""
    return _solve(rows, rhs, ncols)


def _solve(rows, rhs, ncols: int) -> tuple[Rat, ...] | None:
    # shared by solve and solve_sparse, so that neither public entry point
    # calls the other.  The right-hand side is column ncols, the last, so it
    # leads a row only when that row is inconsistent.
    ech = Echelon()
    for row, b in zip(rows, rhs):
        if ech.add({**row, ncols: b}) and ncols in ech.rows:
            return None
    x = [_ZERO] * ncols
    for c in sorted(ech.rows, reverse=True):
        row = ech.rows[c]
        x[c] = row.get(ncols, _ZERO) - sum((v * x[cc] for cc, v in row.items() if c < cc < ncols), _ZERO)
    return tuple(x)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``g = gcd(a, b) = s*a + t*b`` and ``g >= 0``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def hermite_insert(pivots: dict[int, list[int]], vec: Sequence[int], dim: int) -> None:
    """Reduce one integer vector into ``pivots``, the rows of a row Hermite
    form keyed by pivot column, by unimodular extended-gcd row operations.

    The rows then span the old lattice plus ``vec``.  Rows are replaced,
    never changed in place, so a shallow copy of ``pivots`` keeps the old form.
    """
    v = list(vec)
    for c in range(dim):
        x = v[c]
        if x == 0:
            continue
        p = pivots.get(c)
        if p is None:
            pivots[c] = v if x > 0 else [-y for y in v]
            return
        # [[s, t], [-b, a]] has determinant (s*p[c] + t*x) / g = 1
        g, s, t = _xgcd(p[c], x)
        a, b = p[c] // g, x // g
        pivots[c] = [s * y + t * z for y, z in zip(p, v)]
        v = [a * z - b * y for y, z in zip(p, v)]


def hermite_pivots(vectors: Iterable[Sequence[int]], dim: int) -> list[int]:
    """Pivot entries, in column order, of the row Hermite form of the lattice
    that the integer vectors span in Z^dim.

    The vectors span Z^dim iff there are ``dim`` pivots and every one is 1.
    """
    pivots: dict[int, list[int]] = {}
    for vec in vectors:
        hermite_insert(pivots, vec, dim)
    return [pivots[c][c] for c in sorted(pivots)]


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

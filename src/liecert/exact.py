"""Exact rational and integer linear algebra.

Everything runs over arbitrary-precision integers and ``fractions.Fraction``;
no floating point anywhere.  A matrix, :class:`MatQ`, holds only its
nonzero entries, by row-major index.  One sparse elimination engine,
:class:`Echelon`, sits behind ``kernel_basis``, ``inverse``, ``solve`` and
:class:`Solver`.
It is fraction-free: an added row has its denominators cleared and is kept
as a primitive integer row, and the ``Fraction``s of a result are made only
when it is read out of the unique reduced row echelon form, with free
variables zeroed, so they do not depend on elimination order.
Downstream certificates are therefore reproducible byte-for-byte.

Lattices over Z have one engine of their own, ``hermite_insert``: the
``minimal`` walk grows its Hermite pivots one root at a time, and
``invariant_factors`` reads the Smith invariant factors off alternating
Hermite passes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from types import MappingProxyType

Rat = Fraction
_ZERO, _ONE = Fraction(0), Fraction(1)

__all__ = [
    "Rat",
    "MatQ",
    "Echelon",
    "kernel_basis",
    "inverse",
    "solve",
    "Solver",
    "hermite_insert",
    "invariant_factors",
    "rat_to_str",
    "rat_from_str",
    "expect_json",
    "json_field",
]


def rat_to_str(x: Rat | int) -> str:
    """Serialize a rational as ``"p"`` or ``"p/q"`` in lowest terms."""
    # a float would print its binary value, a bool as 0 or 1
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Rat:
    # strings only: a JSON float would be read as its binary value, a boolean as 0 or 1
    if not isinstance(s, str):
        raise ValueError(f"expected a rational as a string, got {s!r}")
    # an ASCII integer skips the regular expression that Fraction(str) parses by
    digits = s[1:] if s[:1] == "-" else s
    if digits.isascii() and digits.isdigit():
        return Fraction(int(s))
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


def json_field(obj: dict, key: str, what: str):
    """The required field ``key`` of the JSON object ``obj``, else a
    ValueError that names it (a bare KeyError would print only the key)."""
    if key not in obj:
        raise ValueError(f'{what}: missing field "{key}"')
    return obj[key]


class _ReadOnly:
    """Base of the package's read-only classes.  ``__init__`` stores the
    attributes through ``self.__dict__``; assigning or deleting one later
    raises AttributeError.  ``cached_property`` writes to ``__dict__``
    directly, so it still caches.  Instances compare and hash by identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")


class _Value(_ReadOnly):
    """A read-only record that compares and hashes by its fields, and equals
    instances of its own class only.  Its fields are the parameters of its
    ``__init__``, in order, and ``__init__`` stores each under its own name."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _key(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={self.__dict__[f]!r}' for f in self._fields)})"


class MatQ(_Value):
    """Sparse rational matrix, immutable: ``nonzeros`` maps the row-major
    index ``i * cols + j`` of each nonzero entry to its value, and every
    other entry is zero.  The constructor drops zero values and raises
    ValueError for an index outside ``0 .. rows*cols-1``.  Matrices compare
    and hash by their shape and their nonzeros."""

    def __init__(self, rows: int, cols: int, nonzeros: Mapping[int, Rat]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if nonzeros and (min(nonzeros) < 0 or max(nonzeros) >= rows * cols):
            raise ValueError("matrix index out of range")
        live = {u: x for u, x in nonzeros.items() if x}
        self.__dict__.update(rows=rows, cols=cols, nonzeros=MappingProxyType(live))

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.nonzeros.items())))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat | int]]) -> "MatQ":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        cells = ((i * c + j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
        return MatQ(len(rows), c, {u: v if isinstance(v, Fraction) else Fraction(v) for u, v in cells})

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ(n, n, {i * (n + 1): _ONE for i in range(n)})

    def at(self, i: int, j: int) -> Rat:
        return self.nonzeros.get(i * self.cols + j, _ZERO)

    def row_dicts(self) -> list[dict[int, Rat]]:
        """The nonzeros as one new ``{column: value}`` dict per row."""
        out: list[dict[int, Rat]] = [{} for _ in range(self.rows)]
        for u, x in self.nonzeros.items():
            i, j = divmod(u, self.cols)
            out[i][j] = x
        return out

    def mul(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        n, onz = other.cols, other.nonzeros
        # the keys ascend, so row k of other is keys[start[k] : start[k + 1]]
        keys = sorted(onz)
        start = [bisect_left(keys, k * n) for k in range(other.rows + 1)]
        out: dict[int, Rat] = {}
        for u, a in self.nonzeros.items():
            i, k = divmod(u, self.cols)
            shift = (i - k) * n  # entry (k, j) of other lands on entry (i, j)
            for w in keys[start[k] : start[k + 1]]:
                v = w + shift
                out[v] = out.get(v, 0) + a * onz[w]
        return MatQ(self.rows, n, out)

    def mul_vec(self, v: Sequence[Rat | int]) -> tuple[Rat, ...]:
        """``self v`` over the nonzeros; every coordinate is a ``Fraction``."""
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
        n, nz = self.cols, self.nonzeros
        return self.rows == n and all(nz.get(u % n * n + u // n) == x for u, x in nz.items())

    def to_json(self) -> dict:
        """The JSON matrix: ``rows``, ``cols`` and every entry, row-major."""
        entries = ["0"] * (self.rows * self.cols)
        for u, x in self.nonzeros.items():
            entries[u] = rat_to_str(x)
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @staticmethod
    def from_json(obj: dict) -> "MatQ":
        expect_json(obj, dict, "matrix")
        rows, cols = (expect_json(json_field(obj, k, "matrix"), int, f"matrix {k}") for k in ("rows", "cols"))
        entries = expect_json(json_field(obj, "entries", "matrix"), list, "matrix entries")
        nonzeros = {u: x for u, x in enumerate(map(rat_from_str, entries)) if x}
        # a negative shape is the constructor's error, whatever the count
        if len(entries) != rows * cols and rows >= 0 and cols >= 0:
            raise ValueError("entry count does not match rows*cols")
        return MatQ(rows, cols, nonzeros)


class Echelon:
    """Sparse row echelon form over Q, grown one row at a time and kept over
    the integers: ``_rows`` maps each leading (smallest) column to a
    primitive ``{column: int}`` row with a positive leading entry.  This is
    the module's only elimination routine; it makes a ``Fraction`` only when
    a result is read out."""

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict[int, Rat]]:
        """The rows scaled so that each leading entry is 1."""
        return {c: {j: Fraction(v, row[c]) for j, v in row.items()} for c, row in self._rows.items()}

    def add(self, row: dict[int, Rat | int]) -> bool:
        """Reduce ``row`` and keep what is left; False if it was dependent."""
        live = [(c, v) for c, v in row.items() if v]
        den = lcm(*(v.denominator for _, v in live))
        row = {c: v.numerator * (den // v.denominator) for c, v in live}
        while row:
            c = min(row)
            prow = self._rows.get(c)
            if prow is None:
                g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
                self._rows[c] = {j: v // g for j, v in row.items()}
                return True
            # row = s row - t prow with s / t = prow[c] / row[c] in lowest terms clears column c
            g = gcd(row[c], prow[c])
            s, t = prow[c] // g, row[c] // g
            if s != 1:
                row = {j: s * v for j, v in row.items()}
            for j, v in prow.items():
                v = row.get(j, 0) - t * v
                if v:
                    row[j] = v
                else:
                    del row[j]
        return False

    def _back(self) -> dict[int, tuple[int, dict[int, int]]]:
        """The reduced row echelon form over the integers, by one
        back-elimination from the last pivot up: for each pivot c, ascending,
        ``(d, row)`` with ``row[j] / d`` the entry in column j of reduced row
        c, for the non-pivot columns j."""
        red: dict[int, tuple[int, dict[int, int]]] = {}
        for c in sorted(self._rows, reverse=True):
            row = self._rows[c]
            deps = [p for p in row if p in red]
            # reduced row p is red[p][1] / red[p][0]: subtract over one common denominator
            den = lcm(*(red[p][0] for p in deps))
            out = {j: den * v for j, v in row.items() if j not in self._rows}
            for p in deps:
                dp, rp = red[p]
                f = row[p] * (den // dp)
                for j, w in rp.items():
                    out[j] = out.get(j, 0) - f * w
            g = gcd(den * row[c], *out.values())
            red[c] = (den * row[c] // g, {j: v // g for j, v in out.items() if v})
        return dict(sorted(red.items()))

    def reduced(self) -> dict[int, dict[int, Rat]]:
        """The unique reduced row echelon form, keyed by pivot, ascending."""
        return {c: {c: _ONE, **{j: Fraction(v, d) for j, v in row.items()}} for c, (d, row) in self._back().items()}

    def kernel(self, ncols: int) -> list[tuple[Rat, ...]]:
        """Null space basis, one vector per free column, ascending."""
        free = {fc: [_ZERO] * ncols for fc in range(ncols) if fc not in self._rows}
        for c, (d, row) in self._back().items():
            for fc, v in row.items():
                free[fc][c] = Fraction(-v, d)
        for fc, vec in free.items():
            vec[fc] = _ONE
        return [tuple(vec) for vec in free.values()]


def kernel_basis(m: MatQ) -> list[tuple[Rat, ...]]:
    """Basis of the right null space, one vector per free column, ascending."""
    ech = Echelon()
    for row in m.row_dicts():
        ech.add(row)
    return ech.kernel(m.cols)


def inverse(m: MatQ) -> MatQ | None:
    """The inverse of a square matrix, or None when it is singular: ``[m | I]``
    is reduced in one :class:`Echelon`, and m is invertible iff no pivot falls
    in the right half, which then holds the inverse."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of a non-square matrix")
    ech = Echelon()
    for i, row in enumerate(m.row_dicts()):
        ech.add({**row, n + i: _ONE})
    if any(c >= n for c in ech._rows):
        return None
    return MatQ(n, n, {c * n + j - n: x for c, row in ech.reduced().items() for j, x in row.items() if j >= n})


def solve(m: MatQ, b: Sequence[Rat | int]) -> tuple[Rat, ...] | None:
    """One exact solution of ``m x = b``, or None when inconsistent.

    Deterministic: free variables are set to zero, so repeated runs (and
    reorderings of untouched data) give the identical witness vector.  A
    caller with many right-hand sides keeps the :class:`Solver` of m.
    """
    return Solver(m).solve(b)


class Solver(_ReadOnly):
    """``m x = b`` for one matrix m and any number of right-hand sides b.

    ``[m | I]`` is reduced once.  Its rows with a pivot c in m are
    ``[R_c | E_c]``, where R is the reduced row echelon form of m and E the
    row operations that give it; its other rows are ``[0 | y]`` with
    ``y m = 0``, and they span the left null space.  So ``m x = b`` is
    consistent iff ``y . b = 0`` for each such y, and then ``[R | E b]`` is
    the unique reduced form of ``[m | b]``: ``solve`` returns
    ``x[c] = E_c . b`` at each pivot c and zero elsewhere."""

    def __init__(self, m: MatQ):
        rows, cols = m.rows, m.cols
        ech = Echelon()
        for i, row in enumerate(m.row_dicts()):
            ech.add({**row, cols + i: _ONE})
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


def invariant_factors(vectors: Iterable[Sequence[int]], dim: int) -> tuple[int, ...]:
    """The nonzero Smith invariant factors ``d_1 | d_2 | ...`` of the lattice
    that the integer vectors span in Z^dim; ``()`` for the zero lattice.

    Hermite passes alternate with transposes (Kannan and Bachem, SIAM J.
    Comput. 8(4), 1979), with ``hermite_insert`` as the only elimination.  A
    pass puts its rows into row Hermite form, then reduces every entry above
    a pivot modulo that pivot, bottom row first and each row left to right;
    once every column holds a pivot, this is the unique reduced form of the
    lattice.  While some row has a nonzero off its pivot, the transposed form
    is the next pass's input.  Each pass is unimodular on one side, so the
    invariant factors never change; the last form has one nonzero per row,
    and gcd/lcm pairs put its pivots into divisibility order.

    Termination: let row s be the first row with a nonzero off its pivot p.
    The rows above it are single entries that no later pass changes, as
    every other row is zero in their columns.  The next pass's pivot in row s
    is the gcd of row s, a divisor of p.  It equals p only when p divides all
    of row s.  Then the transposed rows hold ``p e_s`` (the column of p) and
    have every s-th coordinate in pZ.  A transposed form has full column
    rank, so every column of the next form holds a pivot, and its reduced
    row s is ``p e_s`` itself: the first row with a nonzero off its pivot
    comes later.  So the pair ``(s, -p)`` grows with every pass, and as
    p >= 1 the passes run out.  A pass where it does not grow raises
    AssertionError rather than looping.  (Without the reduction,
    ``[[1, 1], [0, 1]]`` comes back unchanged.)

    Also raises AssertionError, under ``python -O`` too, unless there are as
    many factors as first-pass pivots (the rank), and their product divides
    the product of those pivots, equal to it at full rank: there both are
    the index of the lattice in Z^dim.
    """
    rows, width = list(vectors), dim
    rank = index = progress = None
    while True:
        pivots: dict[int, list[int]] = {}
        for vec in rows:
            hermite_insert(pivots, vec, width)
        cols = sorted(pivots)
        form = [pivots[c] for c in cols]
        for i in reversed(range(len(form))):
            row = form[i]
            for j in range(i + 1, len(form)):
                q = row[cols[j]] // form[j][cols[j]]
                if q:
                    row = [x - q * y for x, y in zip(row, form[j])]
            form[i] = row
        diag = [row[c] for row, c in zip(form, cols)]
        if rank is None:
            rank, index = len(diag), prod(diag)
        s = next((i for i, (row, c) in enumerate(zip(form, cols)) if any(row[c + 1 :])), None)
        if s is None:
            break
        if progress is not None and (s, -diag[s]) <= progress:
            raise AssertionError("a Hermite pass made no progress towards the Smith form")
        progress = (s, -diag[s])
        rows, width = [list(col) for col in zip(*form)], len(form)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    if len(diag) != rank or index % prod(diag) or (rank == dim and index != prod(diag)):
        raise AssertionError("invariant factors disagree with the first Hermite pass")
    return tuple(diag)

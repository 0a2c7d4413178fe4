"""The integer elimination engine of ``exact`` against the ``Fraction``
engine it replaced, and against sympy.

``FractionEchelon`` below is the former ``exact.Echelon``: every row is
scaled to a leading 1 and reduced with ``Fraction`` arithmetic.  It is kept
here only as a reference.  The reduced row echelon form is unique, so both
engines must agree exactly, entry by entry, on every read-out.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from liecert.exact import Echelon, MatQ, inverse, kernel_basis, solve
from exact_reference import dense, rref, solve_sparse

_ZERO, _ONE = Fraction(0), Fraction(1)


class FractionEchelon:
    """Sparse row echelon form over Q with leading-1 ``Fraction`` rows."""

    def __init__(self):
        self.rows = {}

    def add(self, row):
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in self.rows:
                f = Fraction(row[c])
                self.rows[c] = {cc: v / f for cc, v in row.items()}
                return True
            _subtract(row, row[c], self.rows[c])
        return False

    def reduced(self):
        red = {}
        for c in sorted(self.rows, reverse=True):
            row = dict(self.rows[c])
            for p in [p for p in row if p != c and p in red]:
                _subtract(row, row[p], red[p])
            red[c] = row
        return dict(sorted(red.items()))

    def kernel(self, ncols):
        red = self.reduced()
        return [
            tuple(-red[c].get(fc, _ZERO) if c in red else (_ONE if c == fc else _ZERO) for c in range(ncols))
            for fc in range(ncols)
            if fc not in red
        ]


def _subtract(row, f, prow):
    for c, v in prow.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            del row[c]


def _reference_echelon(m):
    ech = FractionEchelon()
    for i in range(m.rows):
        ech.add(dict(enumerate(dense(m).row(i))))
    return ech


def ref_rref(m):
    red = _reference_echelon(m).reduced()
    flat = [row.get(j, _ZERO) for row in red.values() for j in range(m.cols)]
    flat += [_ZERO] * ((m.rows - len(red)) * m.cols)
    return MatQ(m.rows, m.cols, dict(enumerate(flat))), tuple(red)


def ref_inverse(m):
    n = m.rows
    ech = FractionEchelon()
    for i in range(n):
        ech.add({**dict(enumerate(dense(m).row(i))), n + i: _ONE})
    if any(c >= n for c in ech.rows):
        return None
    red = ech.reduced()
    return MatQ(n, n, dict(enumerate(red[c].get(n + j, _ZERO) for c in range(n) for j in range(n))))


def ref_solve(rows, rhs, ncols):
    ech = FractionEchelon()
    for row, b in zip(rows, rhs):
        if ech.add({**row, ncols: b}) and ncols in ech.rows:
            return None
    x = [_ZERO] * ncols
    for c in sorted(ech.rows, reverse=True):
        row = ech.rows[c]
        x[c] = row.get(ncols, _ZERO) - sum((v * x[cc] for cc, v in row.items() if c < cc < ncols), _ZERO)
    return tuple(x)


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


def _systems(rng):
    """Rational systems: small and 30-digit entries, dense and sparse, plain
    ints mixed in, zero rows, rank-deficient ones (whose random right-hand
    sides are mostly inconsistent) and singular squares."""

    def entry(big):
        if big:
            return Fraction(rng.randrange(-(10**30), 10**30), rng.randrange(1, 10**30))
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def dense(nr, nc, density, big=False):
        return [[entry(big) if rng.random() < density else _ZERO for _ in range(nc)] for _ in range(nr)]

    def combination(low):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in low]
        return [sum((c * r[j] for c, r in zip(coeffs, low)), _ZERO) for j in range(len(low[0]))]

    for big in (False, True):
        for nr, nc, density in [(4, 4, 0.9), (3, 7, 0.7), (7, 3, 0.8), (6, 9, 0.3), (5, 5, 1.0)]:
            for _ in range(3):
                yield dense(nr, nc, density, big)
        for n in (1, 3, 5):
            low = dense(n, n + 1, 0.8, big)
            yield low + [combination(low) for _ in range(2)]  # rank deficient, tall
        for n in (2, 3, 4):
            low = dense(n - 1, n, 0.9, big)
            yield low + [combination(low)]  # singular square
    # zero rows, an all-zero matrix and plain ints mixed with Fractions
    yield [[_ZERO, 1, 2], [0, 0, 0], [3, _ZERO, Fraction(1, 2)], [0, 0, 0]]
    yield [[0, 0], [0, 0]]
    yield [[_ZERO]]
    yield [[1, 2, 3], [2, 4, 6], [1, 0, -1]]
    yield [[Fraction(10**30 + 1, 10**29 + 7), -1], [2, Fraction(-(10**31), 3)]]


def _check_against_reference(rng, rows):
    m = MatQ.from_rows(rows)
    res = rref(m)
    want, pivots = ref_rref(m)
    assert (res.reduced, res.pivots, res.rank) == (want, pivots, len(pivots))
    assert _all_fractions(dense(res.reduced).entries)

    basis = kernel_basis(m)
    assert basis == _reference_echelon(m).kernel(m.cols)
    assert all(_all_fractions(v) for v in basis)

    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    hidden = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.cols)]
    outcomes = []
    for b in ([Fraction(rng.randint(-3, 3)) for _ in range(m.rows)], list(m.mul_vec(hidden))):
        want = ref_solve(sparse, b, m.cols)
        got = solve(m, b)
        assert got == want and solve_sparse(sparse, b, m.cols) == want
        if got is not None:
            assert _all_fractions(got) and m.mul_vec(got) == tuple(b)
        outcomes.append(got is not None)
    assert outcomes[1]  # m x = m hidden is consistent

    inv = None
    if m.rows == m.cols:
        inv = inverse(m)
        assert inv == ref_inverse(m)
        if inv is not None:
            assert _all_fractions(dense(inv).entries) and m.mul(inv) == MatQ.identity(m.rows)
    return outcomes[0], inv


def test_engine_matches_fraction_reference():
    rng = random.Random(71)
    seen = {"inconsistent": 0, "singular": 0, "invertible": 0}
    for rows in _systems(rng):
        feasible, inv = _check_against_reference(rng, rows)
        seen["inconsistent"] += not feasible
        if len(rows) == len(rows[0]):
            seen["singular" if inv is None else "invertible"] += 1
    assert all(seen.values()), seen


def test_engine_matches_sympy_on_large_entries():
    sympy = pytest.importorskip("sympy")

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    def sym(m):
        return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in dense(m).entries])

    rng = random.Random(73)
    checked = infeasible = 0
    for rows in _systems(rng):
        m = MatQ.from_rows(rows)
        if m.rows * m.cols > 30:
            continue
        sm = sym(m)
        red, pivots = sm.rref()
        assert dense(rref(m).reduced).entries == tuple(frac(x) for x in red)
        assert rref(m).pivots == tuple(pivots)
        assert kernel_basis(m) == [tuple(frac(x) for x in v) for v in sm.nullspace()]
        if m.rows == m.cols:
            assert inverse(m) == (None if sm.det() == 0 else MatQ(m.rows, m.cols, dict(enumerate(frac(x) for x in sm.inv()))))

        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.rows)]
        aug, apiv = sm.row_join(sym(MatQ.from_rows([[v] for v in b]))).rref()
        want = None
        if m.cols not in apiv:
            x = [_ZERO] * m.cols
            for r, c in enumerate(apiv):
                x[c] = frac(aug[r, m.cols])
            want = tuple(x)
        infeasible += want is None
        assert solve(m, b) == want
        assert solve_sparse([{j: v for j, v in enumerate(r) if v} for r in rows], b, m.cols) == want
        checked += 1
    assert checked > 20 and infeasible


def test_echelon_rows_are_primitive_integer_rows():
    ech = Echelon()
    assert ech.add({0: Fraction(-2, 3), 1: Fraction(4, 9), 3: 2})
    assert ech.add({1: Fraction(10**30, 7), 2: Fraction(-1, 10**30)})
    assert not ech.add({0: Fraction(-4, 3), 1: Fraction(8, 9), 3: 4})
    for c, row in ech._rows.items():
        assert c == min(row) and row[c] > 0
        assert all(type(v) is int for v in row.values()) and gcd(*row.values()) == 1
    assert ech.rows[0] == {0: 1, 1: Fraction(-2, 3), 3: -3}
    assert all(_all_fractions(row.values()) for row in ech.rows.values())


def test_engine_matches_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    small = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))
    entries = st.one_of(st.just(_ZERO), st.just(_ZERO), small, large)

    @st.composite
    def systems(draw):
        nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
        # a row that repeats a combination makes rank deficiency common
        if nr > 1 and draw(st.booleans()):
            c = draw(small)
            rows[-1] = [c * v for v in rows[0]]
        return rows, draw(st.integers(0, 2**32))

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(systems())
    def check(case):
        rows, seed = case
        _check_against_reference(random.Random(seed), rows)

    check()

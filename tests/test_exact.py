"""Exact linear algebra: golden cases plus independent oracles."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

from liecert.dercalc import _leibniz_rows, diagonal_toral_algebra
from liecert.exact import (
    Echelon,
    MatQ,
    hermite_insert,
    int_det,
    inverse,
    invariant_factors,
    kernel_basis,
    rat_from_str,
    rat_to_str,
    solve,
)
from liecert.rootsys import build_root_system
from exact_reference import dense, rref, solve_sparse
from snf_reference import MatZ, hermite_pivots, smith_factors, smith_normal_form


def det_cofactor(rows):
    """Determinant by recursive cofactor expansion (oracle, independent of rref)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def rank_by_minors(m: MatQ) -> int:
    """Rank oracle: largest k with some nonzero k x k minor."""
    rows = dense(m).to_rows()
    for k in range(min(m.rows, m.cols), 0, -1):
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) != 0:
                    return k
    return 0


def random_matq(rng, rows, cols, lo=-5, hi=5):
    return MatQ.from_rows(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def test_rat_serialization_round_trip():
    for s in ["3", "-1/2", "0", "7/3"]:
        assert rat_to_str(rat_from_str(s)) == s
    assert rat_to_str(Fraction(2, 4)) == "1/2"
    assert rat_to_str(-7) == "-7"


def _fraction_or_value_error(f, s):
    """``f(s)``, or ValueError for any string Fraction refuses (a zero
    denominator included, which rat_from_str reports as ValueError)."""
    try:
        return f(s)
    except (ValueError, ZeroDivisionError):
        return ValueError


def test_rat_from_str_is_fraction_of_the_string_hypothesis():
    # the integer fast path accepts the strings Fraction(s) accepts and gives
    # the same value; every other string still goes through Fraction(s), and
    # the value is an int exactly when it is integral
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    signed = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-", "+", "--", " ", "-0"]), st.text("0123456789", max_size=30))
    edge = st.sampled_from(["", "-", "0", "-0", "007", "1_000", " 3 ", "3/0", "1/2", "-7/3", "+5", "4/2", "-6/3", "2/4", "1e3", "1.5", "\u0663", "\uff13", "nan", "inf"])

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.one_of(st.text(max_size=12), signed, edge))
    def check(s):
        got = _fraction_or_value_error(rat_from_str, s)
        assert got == _fraction_or_value_error(Fraction, s), s
        assert got is ValueError or type(got) is (int if got.denominator == 1 else Fraction)

    check()


@pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1/2", None])
def test_rat_to_str_rejects_non_rationals(value):
    # Fraction(0.1) would print its binary value, a bool would print as 0 or 1
    with pytest.raises(TypeError):
        rat_to_str(value)


def test_rref_identity():
    m = MatQ.identity(3)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)


def test_rref_proportional_rows():
    m = MatQ.from_rows([[1, 2], [2, 4]])
    res = rref(m)
    assert res.reduced == MatQ.from_rows([[1, 2], [0, 0]])
    assert res.rank == 1


def test_rref_rank_matches_minor_oracle():
    rng = random.Random(7)
    for _ in range(8):
        m = random_matq(rng, 5, 7)
        assert rref(m).rank == rank_by_minors(m)


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matq(rng, 4, 6, -3, 3)
        red = rref(m).reduced
        assert rref(red).reduced == red


def test_kernel_invertible_is_empty():
    assert kernel_basis(MatQ.from_rows([[1, 1], [0, 3]])) == []


def test_kernel_one_dim():
    (v,) = kernel_basis(MatQ.from_rows([[1, 1]]))
    assert v[0] * (-1) == v[1] and v != (0, 0)


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(10):
        m = random_matq(rng, 3, 6, -4, 4)
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rref(m).rank
        for v in basis:
            assert all(x == 0 for x in m.mul_vec(v))
        # linear independence: stack and check rank
        if basis:
            assert rref(MatQ.from_rows([list(v) for v in basis])).rank == len(basis)


def test_solve_identity():
    m = MatQ.identity(3)
    assert solve(m, [1, 2, 3]) == (1, 2, 3)


def test_solve_free_variable_zeroed():
    assert solve(MatQ.from_rows([[1, 1]]), [1]) == (1, 0)


def test_solve_inconsistent():
    assert solve(MatQ.from_rows([[1], [1]]), [0, 1]) is None


def test_solve_random_consistent_systems():
    rng = random.Random(17)
    for _ in range(10):
        m = random_matq(rng, 4, 5, -3, 3)
        xtrue = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        b = m.mul_vec(xtrue)
        x = solve(m, b)
        assert x is not None
        assert m.mul_vec(x) == b


def test_solve_sparse_agrees_with_dense_on_feasibility():
    """Not only the same feasibility verdict: the identical witness."""
    rng = random.Random(41)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nr):
            row = {}
            for c in rng.sample(range(nc), rng.randint(0, nc)):
                v = rng.randint(-3, 3)
                if v:
                    row[c] = Fraction(v)
            rows.append(row)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(nr)]
        dense = MatQ.from_rows(
            [[rows[i].get(j, Fraction(0)) for j in range(nc)] for i in range(nr)]
        )
        got = solve_sparse(rows, b, nc)
        assert got == solve(dense, b)
        if got is not None:
            assert dense.mul_vec(got) == tuple(b)


def test_solve_skips_only_zero_rows_with_a_zero_right_hand_side():
    # a zero row with a nonzero right-hand side is still 0 = b, inconsistent
    for b in ([0, 1, 0], [0, 0, Fraction(-1, 2)]):
        assert solve(MatQ.from_rows([[1, 2], [0, 0], [0, 0]]), b) is None
    # zero rows with zero right-hand sides, between and around the others,
    # leave the reference solution and the kernel as they are
    rng = random.Random(43)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        x = [rng.randint(-2, 2) for _ in range(nc)]
        b = list(MatQ.from_rows(rows).mul_vec(x))
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, len(rows))
            rows.insert(k, [0] * nc)
            b.insert(k, 0)
        m = MatQ.from_rows(rows)
        got = solve(m, b)
        assert got == solve_sparse([{j: v for j, v in enumerate(r) if v} for r in rows], b, nc)
        assert got is not None and m.mul_vec(got) == tuple(b)
        assert kernel_basis(m) == kernel_basis(MatQ.from_rows([r for r in rows if any(r)] or [[0] * nc]))


def test_solve_sparse_deterministic():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    assert solve_sparse(rows, [Fraction(1)], 3) == solve_sparse(rows, [Fraction(1)], 3)
    assert solve_sparse([{}], [Fraction(1)], 2) is None


def test_echelon_add_rejects_dependent_row():
    ech = Echelon()
    assert ech.add({0: Fraction(1), 2: Fraction(2)})
    assert ech.add({1: Fraction(3), 2: Fraction(-1)})
    assert not ech.add({0: Fraction(2), 1: Fraction(-3), 2: Fraction(5)})  # 2*r0 - r1
    assert not ech.add({})
    assert ech.rank == 2
    assert ech.rows == {0: {0: 1, 2: 2}, 1: {1: 1, 2: Fraction(-1, 3)}}


def _sympy_systems(rng):
    """Random rational systems: square, wide, tall, sparse, Leibniz-shaped,
    rank-deficient ones whose random right-hand sides are mostly
    inconsistent, and singular square ones."""
    def dense(nr, nc, density):
        return [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0) for _ in range(nc)]
            for _ in range(nr)
        ]

    def combination(low):
        coeffs = [rng.randint(-2, 2) for _ in low]
        return [sum(c * r[j] for c, r in zip(coeffs, low)) for j in range(len(low[0]))]

    for nr, nc, density in [(4, 4, 0.9), (3, 9, 0.7), (8, 3, 0.8), (7, 14, 0.15), (10, 12, 0.3)]:
        for _ in range(6):
            yield dense(nr, nc, density)
    for _ in range(6):
        low = dense(3, 7, 0.8)
        yield low + [combination(low) for _ in range(5)]
    for weights in ([[1, 0], [0, 1], [1, 1]], [[2, -1], [-1, 2]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        g = diagonal_toral_algebra(weights)
        rows = [row for i in range(g.dim) for j in range(i + 1, g.dim) for row in _leibniz_rows(g, i, j, True, True, range(g.dim))]
        yield [[Fraction(row.get(c, 0)) for c in range(g.dim**2)] for row in rows]
    # singular square ones, so that inverse meets both outcomes
    yield [[Fraction(0)]]
    for n in (2, 4, 5):
        low = dense(n - 1, n, 0.8)
        yield low + [combination(low)]


def test_rref_kernel_solve_match_sympy():
    sympy = pytest.importorskip("sympy")

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    rng = random.Random(59)
    feasible = infeasible = singular = invertible = 0
    for rows in _sympy_systems(rng):
        m = MatQ.from_rows(rows)
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in dense(m).entries])
        red, pivots = sm.rref()
        res = rref(m)
        assert res.pivots == tuple(pivots) and res.rank == len(pivots)
        assert dense(res.reduced).entries == tuple(frac(x) for x in red)
        assert kernel_basis(m) == [tuple(frac(x) for x in v) for v in sm.nullspace()]

        b = [Fraction(rng.randint(-3, 3)) for _ in range(m.rows)]
        aug, apiv = sm.row_join(sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in b])).rref()
        if m.cols in apiv:
            want = None
            infeasible += 1
        else:
            x = [Fraction(0)] * m.cols
            for r, c in enumerate(apiv):
                x[c] = frac(aug[r, m.cols])
            want = tuple(x)
            feasible += 1
        assert solve(m, b) == want
        assert solve_sparse([{j: v for j, v in enumerate(r) if v} for r in rows], b, m.cols) == want

        if m.rows == m.cols:
            if sm.det() == 0:
                want_inv = None
                singular += 1
            else:
                want_inv = MatQ(m.rows, m.cols, dict(enumerate(frac(x) for x in sm.inv())))
                invertible += 1
            assert inverse(m) == want_inv
    assert feasible and infeasible
    assert singular and invertible


def test_snf_unimodular_input():
    a = MatZ.from_rows([[1, 0], [2, 1]])
    _, d, _ = smith_normal_form(a)
    assert d.diagonal() == (1, 1)


def test_snf_already_diagonal():
    a = MatZ.from_rows([[2, 0], [0, 4]])
    _, d, _ = smith_normal_form(a)
    assert d.diagonal() == (2, 4)


def test_snf_row_gcd_is_first_factor():
    a = MatZ.from_rows([[2, 4, 4]])
    _, d, _ = smith_normal_form(a)
    # oracle: first invariant factor is the gcd of all entries
    assert d.at(0, 0) == 2
    assert d.to_rows() == [[2, 0, 0]]


def test_snf_random_properties():
    rng = random.Random(23)
    for _ in range(12):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = MatZ.from_rows([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        u, d, v = smith_normal_form(a)
        assert u.mul(a).mul(v).entries == d.entries
        assert abs(det_cofactor(u.to_rows())) == 1
        assert abs(det_cofactor(v.to_rows())) == 1
        diag = d.diagonal()
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        # off-diagonal must vanish
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d.at(i, j) == 0


@pytest.mark.parametrize(
    "vectors, pivots",
    [
        ([(0, 1), (2, 1)], [2, 1]),  # B2 beta, 2a+b: invariant factors (1, 2)
        ([(1, 0), (2, 1)], [1, 1]),
        ([(2, 4), (-3, -6)], [1]),  # rank one, gcd 1
        ([(-2, 0), (0, 0)], [2]),
        ([], []),
    ],
)
def test_hermite_pivots_examples(vectors, pivots):
    assert hermite_pivots(vectors, 2) == pivots


def test_hermite_pivots_match_smith_form():
    # random integer combinations of up to dim random base vectors, so rank
    # deficiency and lattice index > 1 both occur
    rng = random.Random(31)
    seen = {"spans": 0, "deficient": 0, "index": 0}
    for _ in range(400):
        dim = rng.randint(1, 4)
        base = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
        vecs = [
            [sum(c * b[i] for c, b in zip(coef, base)) for i in range(dim)]
            for coef in ([rng.randint(-2, 2) for _ in base] for _ in range(rng.randint(1, 6)))
        ]
        pivots = hermite_pivots(vecs, dim)
        _, d, _ = smith_normal_form(MatZ.from_rows(vecs))
        factors = [x for x in d.diagonal() if x]
        assert len(pivots) == len(factors) and all(p > 0 for p in pivots)
        spans = len(factors) == dim and all(x == 1 for x in factors)
        assert (pivots == [1] * dim) == spans
        if len(factors) == dim:
            prod_p = prod_f = 1
            for p, f in zip(pivots, factors):
                prod_p, prod_f = prod_p * p, prod_f * f
            assert prod_p == prod_f  # both are the index of the lattice in Z^dim
        seen["spans" if spans else "deficient" if len(factors) < dim else "index"] += 1
    assert all(seen.values()), seen


def test_hermite_insert_leaves_a_copied_form_alone():
    # the enumerator carries one form per walk node and copies it per root taken
    pivots = {}
    for vec in [(2, 4), (0, 3)]:
        hermite_insert(pivots, vec, 2)
    before = {c: list(row) for c, row in pivots.items()}
    grown = dict(pivots)
    hermite_insert(grown, (1, 1), 2)
    assert pivots == before
    assert [grown[c][c] for c in sorted(grown)] == [1, 1]
    assert [pivots[c][c] for c in sorted(pivots)] == hermite_pivots([(2, 4), (0, 3)], 2) == [2, 3]


@pytest.mark.parametrize(
    "vectors, dim, factors",
    [
        ([(1, 1), (0, 1)], 2, (1, 1)),  # cycles unless entries above pivots are reduced
        ([(1, 1), (1, 0)], 2, (1, 1)),
        ([(0, 0, 0), (0, 0, 0)], 3, ()),
        ([], 3, ()),
        ([(0, 1), (2, 1)], 2, (1, 2)),  # B2 beta, 2a+b
        ([(0, 0), (2, 4), (0, 0), (4, 2)], 2, (2, 6)),
        ([(2, 4, 4)], 3, (2,)),
        ([(2, 4, 4), (-2, -4, -4)], 3, (2,)),
        ([(6, 0), (0, 4)], 2, (2, 12)),
    ],
)
def test_invariant_factors_examples(vectors, dim, factors):
    assert invariant_factors(vectors, dim) == factors
    assert smith_factors([list(v) for v in vectors]) == factors


def _random_lattice(rng, max_dim, max_entry):
    """Integer vectors whose span may be deficient in rank or of index > 1."""
    nr, dim = rng.randint(1, max_dim), rng.randint(1, max_dim)
    if rng.random() < 0.5:
        return [[rng.randint(-max_entry, max_entry) for _ in range(dim)] for _ in range(nr)], dim
    base = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
    return [[sum(rng.randint(-3, 3) * b[i] for b in base) for i in range(dim)] for _ in range(nr)], dim


def test_invariant_factors_match_reference_smith_form():
    rng = random.Random(37)
    seen = {"spans": 0, "deficient": 0, "index": 0}
    for _ in range(300):
        vectors, dim = _random_lattice(rng, 10, 50)
        factors = invariant_factors(vectors, dim)
        assert factors == smith_factors(vectors), vectors
        spans = factors == (1,) * dim
        seen["spans" if spans else "deficient" if len(factors) < dim else "index"] += 1
    assert all(seen.values()), seen


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(41)
    for _ in range(60):
        vectors, dim = _random_lattice(rng, 6, 20)
        want = tuple(int(x) for x in sympy_factors(sympy.Matrix(vectors), domain=sympy.ZZ) if x)
        assert invariant_factors(vectors, dim) == want, vectors


def _random_square(rng, max_dim):
    """A square integer matrix up to ``max_dim``: dense, sparse, below full
    rank (a product through fewer columns), or with a zero top-left entry."""
    n, kind = rng.randint(1, max_dim), rng.choice(["dense", "sparse", "deficient", "zero-lead"])
    if kind == "deficient":
        r = rng.randint(0, n - 1)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if r else [0] * n for row in left]
    m = [[rng.randint(-9, 9) if kind != "sparse" or rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
    if kind == "zero-lead":
        m[0][0] = 0
    return m


def test_int_det_matches_the_invariant_factors():
    # |det| is the index of the lattice the rows span, the product of the
    # Smith factors at full rank, and 0 below it
    rng = random.Random(43)
    seen = {"full": 0, "singular": 0, "row swap": 0}
    for _ in range(400):
        m = _random_square(rng, 8)
        n, factors = len(m), invariant_factors(m, len(m))
        full = len(factors) == n
        assert abs(int_det(m)) == (prod(factors) if full else 0), m
        seen["full" if full else "singular"] += 1
        seen["row swap"] += full and m[0][0] == 0
    assert all(v >= 20 for v in seen.values()), seen


def test_int_det_examples():
    assert int_det([]) == 1
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[0, 1], [2, 1]]) == -2  # B2 beta, 2a+b
    assert int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        int_det([[1, 2]])


def test_int_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    for _ in range(150):
        m = _random_square(rng, 8)
        assert int_det(m) == int(sympy.Matrix(m).det()), m


def test_invariant_factors_of_every_frozen_minimal_set():
    # every printed set spans the root lattice over Z; each proper prefix
    # gets the reference's factors
    frozen = json.loads((Path(__file__).parent / "golden" / "minimal_sets.json").read_text(encoding="utf-8"))
    for key, sets in frozen.items():
        rs = build_root_system(key[0], int(key[1:]))
        for text in sets:
            psi = [tuple(map(int, r.split(","))) for r in text.split(";")]
            assert invariant_factors(psi, rs.rank) == (1,) * rs.rank, (key, text)
            for k in range(len(psi)):
                assert invariant_factors(psi[:k], rs.rank) == smith_factors(psi[:k]), (key, text, k)


def test_invariant_factors_match_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def lattices(draw):
        dim = draw(st.integers(1, 6))
        vectors = draw(st.lists(st.lists(st.integers(-30, 30), min_size=dim, max_size=dim), max_size=7))
        # a repeated multiple makes rank deficiency common
        if vectors and draw(st.booleans()):
            k = draw(st.integers(-4, 4))
            vectors.append([k * v for v in vectors[0]])
        return vectors, dim

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(lattices())
    def check(case):
        vectors, dim = case
        assert invariant_factors(vectors, dim) == smith_factors(vectors)

    check()


def test_fraction_field_axioms_randomized():
    rng = random.Random(29)
    for _ in range(50):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


def test_matq_json_round_trip():
    m = MatQ.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert MatQ.from_json(m.to_json()) == m
    obj = m.to_json()
    assert obj["entries"][0] == "1/2"


@pytest.mark.parametrize("rows,cols,entries", [(-1, -1, ["5"]), (-2, -3, ["1"] * 6), (-2, 0, []), (0, -3, [])])
def test_matq_rejects_negative_shapes(rows, cols, entries):
    # (-1) * (-1) = 1 entry count would otherwise match
    with pytest.raises(ValueError, match="negative matrix shape"):
        MatQ.from_json({"rows": rows, "cols": cols, "entries": entries})
    with pytest.raises(ValueError, match="negative matrix shape"):
        MatQ(rows, cols, dict(enumerate(Fraction(e) for e in entries)))


def test_solve_rejects_bad_shape():
    with pytest.raises(ValueError):
        solve(MatQ.identity(2), [1, 2, 3])


# ---------------------------------------------------------------------------
# solve against the reference elimination of [m | b] (``_augmented_solve``)
# ---------------------------------------------------------------------------


def _augmented_solve(m, b):
    return solve_sparse([dict(enumerate(dense(m).row(i))) for i in range(m.rows)], b, m.cols)


def _solver_cases():
    """Each minimal set's root weights ``beta_i(h_j)`` (the identity on a dual
    torus), the dependent square A3 set, and non-square closed sets: the
    positive roots of A2 and of B2, and all of Phi(B2)."""
    from liecert.chevalley import SubalgebraSpec, extract_subalgebra
    from liecert.qgraded import enumerate_minimal

    def beta_of_h(spec):
        g = extract_subalgebra(spec)
        return MatQ.from_rows(g.weights[g.torus :])

    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        rs = build_root_system(family, rank)
        for psi in enumerate_minimal(rs):
            yield f"{family}{rank} {psi}", beta_of_h(SubalgebraSpec(rs, psi))
    a3 = build_root_system("A", 3)
    yield "A3 dependent", beta_of_h(SubalgebraSpec(a3, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        yield f"{family}{rank} positive", beta_of_h(SubalgebraSpec(rs, rs.positive_roots))
    b2 = build_root_system("B", 2)
    yield "B2 all", beta_of_h(SubalgebraSpec(b2, b2.roots))


def test_solver_matches_solve_on_torus_systems():
    rng = random.Random(23)
    outcomes = set()
    names = []
    for name, m in _solver_cases():
        names.append(name)
        # seeded right-hand sides: images m h, which are feasible, and free draws,
        # which are infeasible wherever m has more rows than rank
        for _ in range(12):
            h = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.cols)]
            for rhs in (m.mul_vec(h), [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.rows)], [0] * m.rows):
                got = solve(m, rhs)
                assert got == _augmented_solve(m, rhs), (name, rhs)
                assert got is None or all(type(x) is Fraction for x in got)
                outcomes.add(got is None)
    assert outcomes == {True, False}
    assert "A3 dependent" in names and "B2 positive" in names


def test_solver_matches_solve_on_random_systems():
    rng = random.Random(31)
    for rows, cols in [(0, 2), (2, 0), (1, 1), (3, 3), (4, 2), (2, 4), (5, 5)]:
        for density in (1.0, 0.4, 0.0):
            m = MatQ(rows, cols, dict(enumerate(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < density else Fraction(0)
                for _ in range(rows * cols)
            )))
            if rows >= 2 and cols and rng.random() < 0.5:  # a repeated row: dependent
                m = MatQ(rows, cols, dict(enumerate(
                    dense(m).entries[:cols] + dense(m).entries[:cols] + dense(m).entries[2 * cols :]
                )))
            for _ in range(6):
                rhs = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
                for b in (rhs, m.mul_vec([rng.randint(-2, 2) for _ in range(cols)])):
                    assert solve(m, b) == _augmented_solve(m, b), (m, b)
    with pytest.raises(ValueError, match="length mismatch"):
        solve(MatQ.identity(2), [1])
    # no equations: every x solves, and the free variables are zero
    assert solve(MatQ(0, 3, {}), []) == (0, 0, 0) == _augmented_solve(MatQ(0, 3, {}), [])

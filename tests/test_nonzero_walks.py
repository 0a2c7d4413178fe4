"""The sparse walks of the hot paths against dense references.

``MatQ.mul_vec`` and ``LieAlgebra.form_value`` walk the nonzero entries of
the matrix, ``affine_bracket`` walks the structure table over the nonzero
coordinates with each side's denominators cleared, and
``LoopOperator.apply`` reads the nonzeros of each symbol block.  Each is
compared with a dense double loop over every index, on int and ``Fraction``
inputs and on vectors holding the shared zero.  Every coordinate that
``mul_vec`` and ``form_value`` give back must be a ``Fraction``; the loop
layer keeps integral scalars as ints, so its coordinates must be ints or
``Fraction``s, never bools or floats, and on integral inputs ints.  The
per-root solver builds its central term only for the roots it reads; it is
compared with the solver that builds it for every root up front, and the
witness searches on ints with the reference solver on an all-``Fraction``
copy of the input.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from liecert.chevalley import SubalgebraSpec, extract_subalgebra
from liecert.exact import _ZERO, MatQ
from liecert.loopalg import (
    DiagonalDerivative,
    Inner,
    LaurentPoly,
    OperatorSum,
    TensorDerivation,
    ToralToCenter,
    _bezout,
    _normal_form_solve,
    affine_bracket,
    aid_obstruction_check,
    loop_context,
    toral_center_witness,
    torus_component_obstruction,
)
from liecert.rootsys import build_root_system
from loopalg_reference import _coordinate as coordinate_poly, normal_form_solve


def _chain(rank):
    return tuple(tuple(1 if k <= i else 0 for k in range(rank)) for i in range(rank))


CONTEXTS = {
    "B2": ("B", 2, ((1, 0), (2, 1))),
    "G2": ("G", 2, ((0, 1), (1, 1))),
    "A3-chain": ("A", 3, _chain(3)),
    "A4-chain": ("A", 4, _chain(4)),
}


def ctx_of(name):
    family, rank, psi = CONTEXTS[name]
    return loop_context(SubalgebraSpec(build_root_system(family, rank), psi))


@pytest.fixture(scope="module", params=sorted(CONTEXTS))
def ctx(request):
    return ctx_of(request.param)


def _coordinate(rng):
    """An int, a Fraction or the shared zero."""
    r = rng.random()
    if r < 0.3:
        return _ZERO
    if r < 0.6:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _vector(rng, n):
    return tuple(_coordinate(rng) for _ in range(n))


SCALARS = (int, Fraction)  # the loop layer's scalars: never a bool or a float


def _all_fractions(vec):
    return all(type(v) is Fraction for v in vec)


def dense_mul_vec(m, v):
    return tuple(sum((m.at(i, j) * v[j] for j in range(m.cols)), Fraction(0)) for i in range(m.rows))


def dense_form_value(g, x, y):
    return sum((x[i] * g.form.at(i, j) * y[j] for i in range(g.dim) for j in range(g.dim)), Fraction(0))


def dense_bracket(g, x, y):
    out = [Fraction(0)] * g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in g.bracket_basis(i, j):
                out[k] += x[i] * y[j] * c
    return tuple(out)


def dense_affine_bracket(x, y):
    c, g = x.ctx, x.ctx.algebra
    support, central = {}, Fraction(0)
    for m, xv in x.support.items():
        for n, yv in y.support.items():
            acc = support.setdefault(m + n, [Fraction(0)] * c.dim)
            for k, v in enumerate(dense_bracket(g, xv, yv)):
                acc[k] += v
            if m + n == 0:
                central += m * dense_form_value(g, xv, yv)
    return c.element({d: tuple(v) for d, v in support.items()}, central)


def dense_apply(op, x):
    c, sym = op.ctx, op._symbol
    support, central = {}, Fraction(0)
    for n, vec in x.support.items():
        for s, (a, b) in sym.loop.items():
            acc = support.setdefault(n + s, [Fraction(0)] * c.dim)
            for i in range(c.dim):
                acc[i] += sum(((a.at(i, j) + n * b.at(i, j)) * vec[j] for j in range(c.dim)), Fraction(0))
        central += sum((u * v for u, v in zip(sym.central.get(n, (0,) * c.dim), vec)), Fraction(0))
    return c.element({d: tuple(v) for d, v in support.items()}, central)


def _element(c, rng, span=2):
    support = {d: _vector(rng, c.dim) for d in rng.sample(range(-span, span + 1), rng.randint(1, 3))}
    return c.element(support, rng.randint(-2, 2))


def test_mul_vec_against_the_dense_product():
    rng = random.Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [_coordinate(rng) for _ in range(rows * cols)]
        for m in (MatQ.from_rows([entries[i * cols : (i + 1) * cols] for i in range(rows)]),
                  MatQ(rows, cols, {u: Fraction(v) for u, v in enumerate(entries) if v})):
            v = _vector(rng, cols)
            got = m.mul_vec(v)
            assert got == dense_mul_vec(m, v) and len(got) == rows
            assert _all_fractions(got)
    # an all-zero product is the shared zero in every coordinate
    assert MatQ(2, 3, {}).mul_vec((1, 2, 3)) == (0, 0) and _all_fractions(MatQ(2, 3, {}).mul_vec((1, 2, 3)))
    with pytest.raises(ValueError, match="shape"):
        MatQ.identity(2).mul_vec((1,))


def test_form_value_against_the_dense_sum():
    rng = random.Random(32)
    for family, rank, psi in CONTEXTS.values():
        g = extract_subalgebra(SubalgebraSpec(build_root_system(family, rank), psi))
        for _ in range(10):
            x, y = _vector(rng, g.dim), _vector(rng, g.dim)
            got = g.form_value(x, y)
            assert got == dense_form_value(g, x, y) and type(got) is Fraction
    # off the torus block as well: the ambient Killing form of B2 pairs opposite root spaces
    g = extract_subalgebra(SubalgebraSpec(build_root_system("B", 2), build_root_system("B", 2).roots))
    for _ in range(10):
        x, y = _vector(rng, g.dim), _vector(rng, g.dim)
        assert g.form_value(x, y) == dense_form_value(g, x, y)


def test_affine_bracket_against_the_dense_bracket(ctx):
    rng = random.Random(33)
    for _ in range(15):
        x, y = _element(ctx, rng), _element(ctx, rng)
        got, want = affine_bracket(x, y), dense_affine_bracket(x, y)
        assert got == want and got.to_json() == want.to_json()
        assert type(got.central) in SCALARS and all(type(a) in SCALARS for v in got.support.values() for a in v)


def test_apply_against_the_dense_symbol(ctx):
    rng = random.Random(34)
    l = ctx.l
    for _ in range(8):
        x = _element(ctx, rng)
        diag = [0] * l + [rng.choice([-2, -1, 1, 2]) for _ in range(l)]
        tensor = MatQ.from_rows([[diag[r] if r == q else 0 for q in range(ctx.dim)] for r in range(ctx.dim)])
        ops = [
            Inner(_element(ctx, rng)),
            ToralToCenter(ctx, rng.randint(1, l), rng.randint(-2, 2)),
            TensorDerivation(ctx, tensor, LaurentPoly.from_dict({rng.randint(-1, 1): rng.randint(1, 2)})),
            DiagonalDerivative(ctx, tuple(LaurentPoly.monomial(rng.randint(-1, 2), rng.randint(1, 2)) for _ in range(l))),
        ]
        ops.append(OperatorSum(ctx, tuple((Fraction(rng.randint(-2, 2), 2), op) for op in ops)))
        for op in ops:
            got, want = op(x), dense_apply(op, x)
            assert got == want and got.to_json() == want.to_json()
            assert type(got.central) in SCALARS and all(type(a) in SCALARS for v in got.support.values() for a in v)


def test_normal_form_solve_against_the_eager_central_term(ctx):
    rng = random.Random(35)
    l = ctx.l
    statuses = set()
    for case in range(40):
        x = _element(ctx, rng)
        if case % 5 == 0:  # degree 0 only: no bracket reaches the center
            x = ctx.element({0: _vector(rng, ctx.dim)})
        kind = case % 4
        if kind == 0:
            z = ToralToCenter(ctx, rng.randint(1, l), rng.choice([-2, -1, 1, 2]))(x)
        elif kind == 1:
            z = Inner(_element(ctx, rng))(x)
        elif kind == 2:  # a root-block target, often not divisible
            z = ctx.element({rng.randint(-2, 2): (0,) * l + _vector(rng, l)}, rng.randint(-1, 1))
        else:
            z = affine_bracket(x, _element(ctx, rng)) + ctx.central(rng.randint(-2, 2))
        z = ctx.element({d: (0,) * l + v[l:] for d, v in z.support.items()}, z.central)  # no torus component
        got, want = _normal_form_solve(ctx, x, z), normal_form_solve(ctx, x, z)
        assert got.status == want.status and got.detail == want.detail, case
        assert (got.y is None) == (want.y is None)
        if got.y is not None:
            assert got.y.to_json() == want.y.to_json(), case
            assert affine_bracket(x, got.y) == z
        statuses.add(got.status)
    assert "witnessed" in statuses and len(statuses) >= 2, statuses


def _result_json(res) -> str:
    return json.dumps({"status": res.status, "y": None if res.y is None else res.y.to_json(), "detail": res.detail})


def _element_scalars(x):
    yield x.central
    for vec in x.support.values():
        yield from vec


def test_witness_searches_on_ints_against_the_all_fraction_reference_hypothesis():
    # X with int and p/q coordinates on 1-3 degrees: toral_center_witness and
    # aid_obstruction_check (dij, inner and tensor terms) write the bytes that
    # the reference solver writes on an all-Fraction copy of X, and every
    # scalar of X, Y, Z and of the Bezout cofactors is an int or a Fraction
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    contexts = {name: ctx_of(name) for name in ("B2", "A3-chain", "A4-chain")}
    scalar = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    sparse = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        ctx = contexts[data.draw(st.sampled_from(sorted(contexts)))]
        l, dim = ctx.l, ctx.dim
        vector = st.lists(scalar, min_size=dim, max_size=dim).map(tuple)
        # degree 0 alone as well: no bracket against such an X reaches the center
        degrees = data.draw(st.one_of(st.just([0]), st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)))
        x = ctx.element({d: data.draw(vector) for d in degrees})
        kind = data.draw(st.sampled_from(["witness", "dij", "inner", "tensor"]))
        i = data.draw(st.integers(1, l))
        if kind == "witness":
            op = ToralToCenter(ctx, i, data.draw(st.sampled_from([-2, -1, 1, 2])))
            got = toral_center_witness(ctx, op.i, op.j, x)
        else:
            if kind == "dij":
                op = ToralToCenter(ctx, i, data.draw(st.sampled_from(degrees)))
            elif kind == "inner":
                op = Inner(ctx.element({data.draw(st.integers(-2, 2)): data.draw(vector)}))
            else:
                # any matrix, so that the obstructions are drawn too; one into the root block has no torus part
                f = LaurentPoly.from_dict({data.draw(st.integers(-1, 1)): data.draw(scalar)})
                rows = data.draw(st.lists(st.lists(sparse, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
                if data.draw(st.booleans()):
                    rows[:l] = [[0] * dim] * l
                op = TensorDerivation(ctx, MatQ.from_rows(rows), f)
            got = aid_obstruction_check(ctx, op, x)
        z = op(x)
        if got.status == "torus-obstruction":
            assert torus_component_obstruction(z) is not None
        else:
            xf = ctx.element({d: tuple(map(Fraction, v)) for d, v in x.support.items()}, Fraction(x.central))
            assert _result_json(got) == _result_json(normal_form_solve(ctx, xf, op(xf)))
        scalars = [*_element_scalars(x), *_element_scalars(z), *(_element_scalars(got.y) if got.y else ())]
        coords = [coordinate_poly(x, k) for k in range(dim)]
        for b, c in zip(coords[:l], coords[l:]):
            if not (b.is_zero and c.is_zero):
                scalars += [a for p in _bezout(b, c) for _, a in p.coeffs]
        assert all(type(a) in SCALARS for a in scalars), {type(a) for a in scalars}

    check()


def test_affine_bracket_clears_denominators_against_the_dense_bracket(ctx):
    # each side is cleared by the lcm of its own denominators: coprime and
    # large ones on the two sides, an all-int side, the zero element and a
    # central-only element, in both orders
    rng = random.Random(37)
    big = 2**61 - 1

    def element(pool, degrees, central=0):
        return ctx.element({d: tuple(rng.choice(pool) for _ in range(ctx.dim)) for d in degrees}, central)

    seen = set()
    for _ in range(6):
        small = element([0, Fraction(1, 2), Fraction(-1, 3), 1], (-1, 1, 2))
        large_pool = [0, Fraction(1, 5), Fraction(7, 4), Fraction(-1, big), Fraction(3, big)]
        large = element(large_pool, (-2, -1, 1), Fraction(1, 3))
        ints = element([0, 1, -2, 3], (-1, 0, 1), 5)
        for x, y in product([small, large, ints, ctx.zero(), ctx.central(Fraction(7, 4))], repeat=2):
            got, want = affine_bracket(x, y), dense_affine_bracket(x, y)
            assert got == want and got.to_json() == want.to_json()
            scalars = list(_element_scalars(got))
            assert all(type(a) in SCALARS and not (type(a) is Fraction and a.denominator == 1) for a in scalars)
            seen.update(type(a) is Fraction and a.denominator % big == 0 for a in scalars)
            seen.add(("central", bool(got.central)))
    assert seen == {False, True, ("central", False), ("central", True)}, seen


@pytest.mark.parametrize("name", ["B2", "A3-chain", "A4-chain"])
def test_integral_inputs_give_int_scalars(name):
    # with all-int X, Y and operator data, every scalar of the bracket and of
    # op(X) is an int: never a Fraction, not even one with denominator 1
    c = ctx_of(name)
    l, dim = c.l, c.dim
    rng = random.Random(38)

    def element():
        degrees = rng.sample(range(-2, 3), rng.randint(1, 3))
        return c.element({d: tuple(rng.randint(-3, 3) for _ in range(dim)) for d in degrees}, rng.randint(-2, 2))

    h1 = c.basis_at(0, 1)
    central = affine_bracket(h1, c.basis_at(0, -1)).central
    assert type(central) is int and central == c.algebra.form.at(0, 0)
    for _ in range(10):
        x, y = element(), element()
        tensor = MatQ(dim, dim, {u: rng.randint(-2, 2) for u in range(dim * dim) if rng.random() < 0.3})
        ops = [
            Inner(y),
            ToralToCenter(c, rng.randint(1, l), rng.randint(-2, 2)),
            TensorDerivation(c, tensor, LaurentPoly.from_dict({rng.randint(-1, 1): rng.randint(1, 3)})),
            DiagonalDerivative(c, tuple(LaurentPoly.monomial(rng.randint(-1, 2), rng.randint(1, 2)) for _ in range(l))),
        ]
        ops.append(OperatorSum(c, tuple((rng.randint(-2, 2), op) for op in ops)))
        for z in [affine_bracket(x, y), *(op(x) for op in ops)]:
            assert all(type(a) is int for a in _element_scalars(z)), z.to_json()

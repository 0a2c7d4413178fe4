"""The sparse walks of the hot paths against dense references.

``MatQ.mul_vec`` and ``LieAlgebra.form_value`` walk the nonzero entries of
the matrix, ``affine_bracket`` walks the structure table over the nonzero
coordinates, and ``LoopOperator.apply`` reads the symbol through
``mul_vec``.  Each is compared with a dense double loop over every index, on
int and ``Fraction`` inputs and on vectors holding the shared zero, and
every coordinate that comes back must be a ``Fraction``.  The per-root
solver builds its central term only for the roots it reads; it is compared
with the solver that builds it for every root up front.
"""

import random
from fractions import Fraction

import pytest

from liecert.chevalley import SubalgebraSpec, extract_subalgebra
from liecert.exact import _ZERO, MatQ
from liecert.loopalg import (
    Inner,
    LaurentPoly,
    OperatorSum,
    TensorDerivation,
    ToralToCenter,
    _normal_form_solve,
    affine_bracket,
    diagonal_derivative,
    loop_context,
)
from liecert.rootsys import build_root_system
from loopalg_reference import normal_form_solve


def _chain(rank):
    return tuple(tuple(1 if k <= i else 0 for k in range(rank)) for i in range(rank))


CONTEXTS = {
    "B2": ("B", 2, ((1, 0), (2, 1))),
    "G2": ("G", 2, ((0, 1), (1, 1))),
    "A3-chain": ("A", 3, _chain(3)),
    "A4-chain": ("A", 4, _chain(4)),
}


@pytest.fixture(scope="module", params=sorted(CONTEXTS))
def ctx(request):
    family, rank, psi = CONTEXTS[request.param]
    return loop_context(SubalgebraSpec(build_root_system(family, rank), psi))


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
        assert type(got.central) is Fraction and all(_all_fractions(v) for v in got.support.values())


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
            diagonal_derivative(ctx, [LaurentPoly.monomial(rng.randint(-1, 2), rng.randint(1, 2)) for _ in range(l)]),
        ]
        ops.append(OperatorSum(ctx, tuple((Fraction(rng.randint(-2, 2), 2), op) for op in ops)))
        for op in ops:
            got, want = op(x), dense_apply(op, x)
            assert got == want and got.to_json() == want.to_json()
            assert type(got.central) is Fraction and all(_all_fractions(v) for v in got.support.values())


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

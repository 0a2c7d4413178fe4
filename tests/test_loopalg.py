"""Affinization bracket, operator calculus, and the witness solvers."""

import io
import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from liecert.chevalley import SubalgebraSpec, build_semisimple
from liecert.dercalc import centroid_space, derivation_space
from liecert.exact import Echelon, MatQ
from liecert import chevalley, loopalg
from liecert.loopalg import (
    AffineElement,
    DiagonalDerivative,
    Inner,
    LaurentPoly,
    LoopOperator,
    OperatorSum,
    Symbol,
    TensorDerivation,
    ToralToCenter,
    affine_bracket,
    aid_obstruction_check,
    decompose_derivation,
    global_inner_match,
    laurent_div,
    leibniz_check,
    loop_context,
    toral_center_witness,
)
from liecert.rootsys import build_root_system
from liecert.selfcheck import loop_operator_cases, tensor_witness
from exact_reference import dense, solve_sparse
from loopalg_reference import bracket_match
import loopalg_reference
from chevalley_reference import torus_reference


@pytest.fixture(scope="module")
def ctx():
    rs = build_root_system("B", 2)
    return loop_context(SubalgebraSpec(rs, ((1, 0), (2, 1))))


@pytest.fixture(
    scope="module",
    params=[("B", 2, ((1, 0), (2, 1))), ("G", 2, ((0, 1), (1, 1))), ("A", 2, ((1, 0), (1, 1)))],
    ids=["B2", "G2", "A2"],
)
def any_ctx(request):
    family, rank, psi = request.param
    rs = build_root_system(family, rank)
    return loop_context(SubalgebraSpec(rs, psi))


def rand_element(ctx, rng, span=3):
    support = {}
    for deg in rng.sample(range(-span, span + 1), rng.randint(1, 3)):
        support[deg] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ctx.dim))
    return ctx.element(support, rng.randint(-2, 2))


@dataclass(frozen=True, eq=False)
class FromSymbol(LoopOperator):
    """An operator given by nothing but its shift symbol."""

    ctx: object
    sym: Symbol

    def symbol(self):
        return self.sym


def in_span(basis, m):
    span = Echelon()
    for b in basis:
        span.add(dict(enumerate(dense(b).entries)))
    return not span.add(dict(enumerate(dense(m).entries)))


def centroid_like(ctx, m):
    return in_span(centroid_space(ctx.algebra).basis, m)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


def test_laurent_from_dict_converts_each_coefficient_once():
    half = Fraction(1, 2)
    f = LaurentPoly.from_dict({3: 2, -1: half, 0: Fraction(0), 1: 0})
    assert f.coeffs == ((-1, half), (3, Fraction(2)))
    assert f.coeffs[0][1] is half  # a Fraction is kept, not rebuilt
    assert [type(v) for _, v in f.coeffs] == [Fraction, int]  # and an int stays an int


def test_laurent_arithmetic():
    f = LaurentPoly.from_dict({-1: 1, 2: Fraction(1, 2)})
    g = LaurentPoly.monomial(1, 3)
    assert (f * g).to_dict() == {0: Fraction(3), 3: Fraction(3, 2)}
    assert (f + (-f)).is_zero
    assert f.derivative().to_dict() == {-2: Fraction(-1), 1: Fraction(1)}
    assert LaurentPoly.from_json(f.to_json()) == f


def test_laurent_division():
    num = LaurentPoly.from_dict({0: 1, 1: 2, 2: 1})  # (1+t)^2
    den = LaurentPoly.from_dict({0: 1, 1: 1})
    assert laurent_div(num, den) == den
    assert laurent_div(den, num) is None
    # monomials always divide
    assert laurent_div(LaurentPoly.monomial(-3, 5), LaurentPoly.monomial(2, 2)) == LaurentPoly.monomial(
        -5, Fraction(5, 2)
    )
    # t^-1 does not divide into t + t^2 with polynomial remainder zero? it does:
    assert laurent_div(LaurentPoly.from_dict({1: 1, 2: 1}), LaurentPoly.monomial(-1)) == LaurentPoly.from_dict(
        {2: 1, 3: 1}
    )
    # the divisibility failure used by the witness example
    assert laurent_div(LaurentPoly.monomial(-1), LaurentPoly.from_dict({1: 1, 2: 1})) is None


# ---------------------------------------------------------------------------
# affinization bracket
# ---------------------------------------------------------------------------


def test_bracket_torus_against_dual_gives_central(ctx):
    rs = build_root_system("B", 2)
    dual = torus_reference(build_semisimple(rs), SubalgebraSpec(rs, ((1, 0), (2, 1)))).dual_torus
    h1 = ctx.basis_at(0, 1)
    h1p = ctx.element({-1: dual[0]})
    out = affine_bracket(h1, h1p)
    assert out.support == {} and out.central == 1


def test_central_element_brackets_to_zero(ctx):
    k = ctx.central(5)
    rng = random.Random(1)
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert affine_bracket(k, x).is_zero
        assert affine_bracket(x, k).is_zero


def test_bracket_antisymmetry_and_jacobi_random(ctx):
    rng = random.Random(2)
    for _ in range(10):
        x, y, z = (rand_element(ctx, rng) for _ in range(3))
        assert affine_bracket(x, y) == affine_bracket(y, x).scale(-1)
        total = (
            affine_bracket(affine_bracket(x, y), z)
            + affine_bracket(affine_bracket(y, z), x)
            + affine_bracket(affine_bracket(z, x), y)
        )
        assert total.is_zero


def test_affine_element_json_round_trip(ctx):
    x = ctx.element({1: (Fraction(1, 2), 0, 3, 0), -2: (0, 1, 0, 0)}, Fraction(-2, 3))
    assert AffineElement.from_json(ctx, x.to_json()) == x


def test_mismatched_contexts_rejected(ctx):
    rs = build_root_system("B", 2)
    other = loop_context(SubalgebraSpec(rs, ((0, 1), (1, 1))))
    with pytest.raises(ValueError):
        affine_bracket(ctx.basis_at(0, 0), other.basis_at(0, 0))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_toral_to_center_action(ctx):
    op = ToralToCenter(ctx, 1, 1)
    assert op(ctx.basis_at(0, 1)) == ctx.central(1)
    assert op(ctx.basis_at(3, 5)).is_zero  # root block dies
    assert op(ctx.basis_at(0, 2)).is_zero  # wrong degree
    assert op(ctx.central(7)).is_zero


def test_diagonal_derivative_action(ctx):
    one = LaurentPoly.one()
    op = DiagonalDerivative(ctx, (one, one))
    assert op(ctx.basis_at(0, 0)).is_zero  # j = 0 annihilated
    img = op(ctx.basis_at(0, 2))
    assert img == ctx.element({1: (Fraction(2), 0, 0, 0)})
    f1 = LaurentPoly.from_dict({0: 1, 1: 1})
    op2 = DiagonalDerivative(ctx, (f1, LaurentPoly.zero()))
    img2 = op2(ctx.basis_at(2, 3))  # x_1 (x) t^3
    assert img2 == ctx.element({2: (0, 0, Fraction(3), 0), 3: (0, 0, Fraction(3), 0)})


def test_leibniz_inner_exact_including_central(ctx):
    rng = random.Random(3)
    for _ in range(3):
        op = Inner(rand_element(ctx, rng))
        ok, _ = leibniz_check(op, include_central=True)
        assert ok


def test_leibniz_toral_to_center_exact(ctx):
    for (i, j) in [(1, 1), (2, -2), (1, 0)]:
        ok, _ = leibniz_check(ToralToCenter(ctx, i, j), include_central=True)
        assert ok


def test_leibniz_tensor_derivation(ctx):
    basis = derivation_space(ctx.algebra)
    f = LaurentPoly.from_dict({-1: 2, 1: 1})
    op = TensorDerivation(ctx, basis.der_basis[0], f)
    ok, _ = leibniz_check(op)
    assert ok
    # a non-derivation matrix must be caught with a witness pair
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[0][2] = Fraction(1)
    bad = TensorDerivation(ctx, MatQ.from_rows(rows), LaurentPoly.one())
    ok, pair = leibniz_check(bad)
    assert not ok and pair is not None


def test_diagonal_derivative_is_loop_derivation(ctx):
    op = DiagonalDerivative(ctx, (LaurentPoly.from_dict({0: 1, 2: -1}), LaurentPoly.monomial(-1)))
    ok, _ = leibniz_check(op)
    assert ok


def test_leibniz_check_reads_the_symbol(ctx):
    # a derivation part at shift 2 passes; the same matrix as a t-derivative
    # part B_2 is outside the centroid and fails at (b_i t, b_j)
    basis = derivation_space(ctx.algebra)
    d = next(m for m in basis.der_basis if not centroid_like(ctx, m))
    zero = MatQ(ctx.dim, ctx.dim, {})
    assert leibniz_check(FromSymbol(ctx, Symbol({2: (d, zero)}, {}))) == (True, None)
    ok, (x, y) = leibniz_check(FromSymbol(ctx, Symbol({2: (zero, d)}, {})))
    assert not ok and x.degrees() == [1] and y.degrees() == [0]


def test_symbols_of_the_operator_families(ctx):
    g, zero = ctx.algebra, MatQ(ctx.dim, ctx.dim, {})
    y = ctx.element({-1: (1, 0, 2, 0), 0: (0, 1, 0, 0)}, 5)
    sym = Inner(y).symbol()
    assert sym.loop == {-1: (g.ad(y.component(-1)), zero), 0: (g.ad(y.component(0)), zero)}
    assert sym.central == {1: tuple(-u for u in g.form.mul_vec(y.component(-1)))}
    assert ToralToCenter(ctx, 2, -3).symbol() == Symbol({}, {-3: g.basis_vector(1)})
    f = LaurentPoly.from_dict({0: 2, 3: -1})
    sym = DiagonalDerivative(ctx, (f, LaurentPoly.zero())).symbol()
    assert sorted(sym.loop) == [-1, 2] and sym.central == {}
    assert sym.loop[-1] == (zero, MatQ.from_rows([[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]))
    # a sum cancels to the zero symbol
    op = Inner(y)
    assert OperatorSum(ctx, ((Fraction(1), op), (Fraction(-1), op))).symbol() == Symbol({}, {})


def centroid_multiplier(ctx, coeffs, f):
    """``h_i(x)g -> c_i h_i(x)(f g)`` (likewise on x_i): the tensor derivation
    of the centroid element ``sum_i c_i C_i`` of L, over the basis C of
    ``centroid_space``."""
    entries = {}
    for c, m in zip(coeffs, centroid_space(ctx.algebra).basis, strict=True):
        for u, v in m.nonzeros.items():
            entries[u] = entries.get(u, 0) + Fraction(c) * v
    return TensorDerivation(ctx, MatQ(ctx.dim, ctx.dim, {u: v for u, v in entries.items() if v}), f)


def test_centroid_multiplier_axioms(ctx):
    rng = random.Random(4)
    sigma = centroid_multiplier(ctx, [1, 0], LaurentPoly.monomial(1))
    # sigma(lambda_1, t): h_1 (x) t^j -> h_1 (x) t^{j+1}, kills index 2
    assert sigma(ctx.basis_at(0, 2)) == ctx.basis_at(0, 3)
    assert sigma(ctx.basis_at(1, 2)).is_zero
    ident = centroid_multiplier(ctx, [1, 1], LaurentPoly.one())
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert ident(x).loop_equal(x)
    for _ in range(8):
        lam = [rng.randint(-2, 2), rng.randint(-2, 2)]
        f = LaurentPoly.from_dict({rng.randint(-2, 2): rng.randint(-2, 2)})
        phi = centroid_multiplier(ctx, lam, f)
        x, y = rand_element(ctx, rng), rand_element(ctx, rng)
        lhs = phi(affine_bracket(x, y))
        assert lhs.loop_equal(affine_bracket(phi(x), y))
        assert lhs.loop_equal(affine_bracket(x, phi(y)))


def test_centroid_multiplier_is_a_diagonal_tensor_derivation(ctx):
    sigma = centroid_multiplier(ctx, [2, Fraction(1, 3)], LaurentPoly.monomial(-1))
    assert isinstance(sigma, TensorDerivation) and sigma.f == LaurentPoly.monomial(-1)
    assert sigma.matrix == MatQ.from_rows(
        [[2, 0, 0, 0], [0, Fraction(1, 3), 0, 0], [0, 0, 2, 0], [0, 0, 0, Fraction(1, 3)]]
    )


def test_centroid_multipliers_commute(ctx):
    rng = random.Random(14)
    for _ in range(5):
        a = centroid_multiplier(
            ctx, [rng.randint(-2, 2), rng.randint(-2, 2)], LaurentPoly.from_dict({rng.randint(-1, 1): 1})
        )
        b = centroid_multiplier(
            ctx, [rng.randint(-2, 2), rng.randint(-2, 2)], LaurentPoly.from_dict({rng.randint(-1, 1): 1})
        )
        x = rand_element(ctx, rng)
        assert a(b(x)).loop_equal(b(a(x)))


def test_diagonal_derivative_kills_l_tensor_one(ctx):
    op = DiagonalDerivative(ctx, (LaurentPoly.from_dict({1: 2}), LaurentPoly.one()))
    for k in range(ctx.dim):
        assert op(ctx.basis_at(k, 0)).is_zero


# ---------------------------------------------------------------------------
# decomposition and loop-level AID
# ---------------------------------------------------------------------------


def test_decompose_tensor_term_is_identity(ctx):
    basis = derivation_space(ctx.algebra)
    op = TensorDerivation(ctx, basis.der_basis[1], LaurentPoly.monomial(3))
    dec = decompose_derivation(op)
    assert len(dec.tensor_terms) == 1
    term = dec.tensor_terms[0]
    assert term.matrix == basis.der_basis[1] and term.f == LaurentPoly.monomial(3)
    for k in range(ctx.dim):
        assert dec.residual(ctx.basis_at(k, 0)).is_zero


def test_decompose_inner_loop_element(ctx):
    y = ctx.element({2: (0, 0, Fraction(1), 0), 0: (Fraction(1), 0, 0, 0)})
    dec = decompose_derivation(Inner(y))
    rng = random.Random(10)
    d = dec.tensor_sum()
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert (d(x) + dec.residual(x)).loop_equal(Inner(y)(x))
        assert dec.residual(x).loop_part().is_zero  # inner ops are pure tensor parts


def test_decompose_diagonal_derivative_residual(ctx):
    op = DiagonalDerivative(ctx, (LaurentPoly.one(), LaurentPoly.monomial(2)))
    dec = decompose_derivation(op)
    assert dec.tensor_terms == ()
    rng = random.Random(11)
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert dec.residual(x).loop_equal(op(x))


def test_loop_aid_reduce_inner_components(ctx):
    # the tensor-term check of selftest criterion 7: one aid_membership
    # witness per term, and Inner(Y) equals the tensor sum
    g = ctx.algebra
    rng = random.Random(12)
    terms = []
    for f in (LaurentPoly.monomial(-1), LaurentPoly.monomial(0, 3), LaurentPoly.from_dict({0: 1, 2: -2})):
        w = tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim))
        terms.append(TensorDerivation(ctx, g.ad(w), f))
    y = tensor_witness(ctx, terms)
    d = OperatorSum(ctx, tuple((Fraction(1), t) for t in terms))
    assert Inner(y)._symbol.loop == d._symbol.loop
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert Inner(y)(x).loop_equal(d(x))


def test_loop_aid_reduce_zero(ctx):
    assert tensor_witness(ctx, []).is_zero


def test_loop_aid_reduce_rejects_non_inner_component(ctx):
    # a tensor term whose matrix is not even a derivation of L cannot get an
    # inner witness
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[3][0] = Fraction(1)  # h_1 -> x_2 breaks Leibniz on (h_1, h_2)
    bad = TensorDerivation(ctx, MatQ.from_rows(rows), LaurentPoly.monomial(1))
    good = TensorDerivation(ctx, ctx.algebra.ad(ctx.algebra.basis_vector(2)), LaurentPoly.monomial(0))
    assert tensor_witness(ctx, [good]) is not None
    assert tensor_witness(ctx, [good, bad]) is None


def test_diagonal_derivative_aid_check(ctx):
    # at the first torus index k with f_k != 0, the value at h_k (x) t is
    # h_k (x) f_k, whose torus component no bracket has
    for fs, k in [((LaurentPoly.one(), LaurentPoly.zero()), 0), ((LaurentPoly.zero(), LaurentPoly.monomial(4)), 1)]:
        res = aid_obstruction_check(ctx, DiagonalDerivative(ctx, fs), ctx.basis_at(k, 1))
        assert res.status == "torus-obstruction" and res.y is None
        assert res.detail["index"] == k + 1
    zero = DiagonalDerivative(ctx, (LaurentPoly.zero(), LaurentPoly.zero()))
    res = aid_obstruction_check(ctx, zero, ctx.basis_at(0, 1))
    assert res.status == "witnessed" and res.y.is_zero


# ---------------------------------------------------------------------------
# witness searches
# ---------------------------------------------------------------------------


def test_toral_witness_single_term(ctx):
    for (i, j) in [(1, 1), (1, -2), (2, 3)]:
        x = ctx.basis_at(i - 1, j)
        res = toral_center_witness(ctx, i, j, x)
        assert res.status == "witnessed"
        assert affine_bracket(x, res.y) == ctx.central(1)


def test_toral_witness_pure_root_part(ctx):
    x = ctx.basis_at(2, 5) + ctx.basis_at(3, -1)
    res = toral_center_witness(ctx, 1, 1, x)
    assert res.status == "witnessed"
    assert res.y.is_zero  # target already zero


def test_toral_witness_divisibility_example(ctx):
    # torus poly t + t^2 on h_1 plus constant root part x_1: t + t^2 does not
    # divide the unit root part, yet the kernel direction (b_1, c_1) meets
    # the central equation
    x = ctx.element(
        {
            1: (Fraction(1), 0, 0, 0),
            2: (Fraction(1), 0, 0, 0),
            0: (0, 0, Fraction(1), 0),
        }
    )
    res = toral_center_witness(ctx, 1, 1, x)
    assert res.status == "witnessed" and res.detail is None
    assert affine_bracket(x, res.y) == ctx.central(1)


def test_toral_witness_random_suite(any_ctx):
    # the pairing data behind the cocycle differs per ambient type, so the
    # witness equations are genuinely different systems across these contexts
    c = any_ctx
    rng = random.Random(2024)
    for (i, j) in [(1, 1), (2, -1), (1, 2)]:
        for _ in range(10):
            x = rand_element(c, rng)
            res = toral_center_witness(c, i, j, x)
            assert res.status == "witnessed"
            target = ToralToCenter(c, i, j)(x)
            assert affine_bracket(x, res.y) == target


def test_bracket_jacobi_random_all_contexts(any_ctx):
    rng = random.Random(6)
    for _ in range(6):
        x, y, z = (rand_element(any_ctx, rng) for _ in range(3))
        total = (
            affine_bracket(affine_bracket(x, y), z)
            + affine_bracket(affine_bracket(y, z), x)
            + affine_bracket(affine_bracket(z, x), y)
        )
        assert total.is_zero


def test_obstruction_and_inner_match_all_contexts(any_ctx):
    c = any_ctx
    res = aid_obstruction_check(c, ToralToCenter(c, 1, 0), c.basis_at(0, 0))
    assert res.status == "central-obstruction"
    assert global_inner_match(c, {(1, 1): 1}, (-2, 2)) is None
    y = global_inner_match(c, {}, (-2, 2))
    assert y is not None and y.is_zero


def test_toral_witness_rejects_degree_zero(ctx):
    with pytest.raises(ValueError, match="degree 0"):
        toral_center_witness(ctx, 1, 0, ctx.basis_at(0, 0))


def test_obstruction_degree_zero_is_central_obstruction(ctx):
    op = ToralToCenter(ctx, 1, 0)
    res = aid_obstruction_check(ctx, op, ctx.basis_at(0, 0))
    assert res.status == "central-obstruction"


def test_obstruction_witnessed_for_nonzero_degree(ctx):
    op = ToralToCenter(ctx, 1, 1)
    rng = random.Random(15)
    for _ in range(5):
        x = rand_element(ctx, rng)
        res = aid_obstruction_check(ctx, op, x)
        assert res.status == "witnessed"
        assert affine_bracket(x, res.y) == op(x)


def test_obstruction_with_radical_components_at_nonzero_degree(ctx):
    # root vectors lie in the radical of the restricted form, so an element
    # whose only nonzero-degree parts are root vectors still cannot reach the
    # center by bracketing, and a central target stays obstructed
    op = ToralToCenter(ctx, 1, 0)
    x = ctx.basis_at(0, 0) + ctx.basis_at(2, 1) + ctx.basis_at(3, -2)
    res = aid_obstruction_check(ctx, op, x)
    assert res.status == "central-obstruction"
    # a torus component at nonzero degree revives the pairing: witnessed now
    x2 = x + ctx.basis_at(0, 1)
    res2 = aid_obstruction_check(ctx, ToralToCenter(ctx, 1, 1), x2)
    assert res2.status == "witnessed"
    assert affine_bracket(x2, res2.y) == ToralToCenter(ctx, 1, 1)(x2)


def test_obstruction_mixed_operator_sum(ctx):
    rng = random.Random(21)
    y = rand_element(ctx, rng)
    op = OperatorSum(
        ctx,
        ((Fraction(2), ToralToCenter(ctx, 1, 1)), (Fraction(1), Inner(y))),
    )
    for _ in range(4):
        x = rand_element(ctx, rng)
        res = aid_obstruction_check(ctx, op, x)
        assert res.status == "witnessed"
        assert affine_bracket(x, res.y) == op(x)


def test_obstruction_inner_operator(ctx):
    rng = random.Random(16)
    y = rand_element(ctx, rng)
    op = Inner(y)
    x = rand_element(ctx, rng)
    res = aid_obstruction_check(ctx, op, x)
    assert res.status == "witnessed"
    assert affine_bracket(x, res.y) == op(x)


DIFFERENTIAL_CONTEXTS = [
    ("B", 2, ((1, 0), (2, 1))),
    ("G", 2, ((0, 1), (1, 1))),
    ("A", 2, ((1, 0), (1, 1))),
    ("A", 3, ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
    ("A", 4, ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1))),
]


def _differential_query(c, rng, kind):
    """A seeded X and operator of the given kind over the context c."""
    l = c.l
    if kind in ("tensor", "diagonal-derivative"):
        # root-block X: the diagonal derivative would give a torus value on torus parts
        x = c.element({d: (0,) * l + tuple(rng.randint(-2, 2) for _ in range(l)) for d in rng.sample(range(-2, 3), 2)})
    elif kind == "degree-0" and rng.random() < 0.5:
        x = c.element({0: tuple(rng.randint(-2, 2) for _ in range(c.dim))})
    else:
        x = rand_element(c, rng, span=2)
    if kind == "dij":
        op = ToralToCenter(c, rng.randint(1, l), rng.choice([-2, -1, 1, 2]))
    elif kind == "degree-0":
        op = ToralToCenter(c, rng.randint(1, l), 0)
    elif kind == "inner":
        op = Inner(rand_element(c, rng, span=2))
    elif kind == "tensor":
        diag = [0] * l + [rng.choice([-2, -1, 1, 2]) for _ in range(l)]
        matrix = MatQ.from_rows([[diag[r] if r == q else 0 for q in range(c.dim)] for r in range(c.dim)])
        op = TensorDerivation(c, matrix, LaurentPoly.from_dict({d: rng.choice([-1, 1, 2]) for d in rng.sample(range(-1, 2), 2)}))
    else:
        op = DiagonalDerivative(c, tuple(LaurentPoly.from_dict({rng.randint(-1, 2): rng.randint(1, 2)}) for _ in range(l)))
    return x, op


def test_exact_solver_agrees_with_the_windowed_oracle():
    # the windowed search over degrees [-10, 10] never finds a Y where the
    # exact solver refuses, and every refusal is a refusal of the oracle too
    outcomes = {"witnessed": 0, "root-obstruction": 0, "central-obstruction": 0, "oracle-none": 0}
    for family, rank, psi in DIFFERENTIAL_CONTEXTS:
        c = loop_context(SubalgebraSpec(build_root_system(family, rank), psi))
        rng = random.Random(f"{family}{rank}")
        for kind in ("dij", "degree-0", "inner", "tensor", "diagonal-derivative"):
            for _ in range(6):
                x, op = _differential_query(c, rng, kind)
                res = aid_obstruction_check(c, op, x)
                oracle = bracket_match(c, [(x, op(x))], (-10, 10))
                outcomes[res.status] += 1
                outcomes["oracle-none"] += oracle is None
                if oracle is not None:
                    assert res.status == "witnessed", (family, kind, x.to_json())
                if res.status != "witnessed":
                    assert oracle is None and res.y is None, (family, kind, x.to_json())
                else:
                    assert affine_bracket(x, res.y) == op(x)
                if kind == "dij" and op.j and any(vec[op.i - 1] for deg, vec in x.support.items() if deg == op.j):
                    assert res.status == "witnessed"
    assert all(outcomes.values()), outcomes


def test_root_obstruction_names_the_root(ctx):
    # X = (1 + t) x_1 and the derivation h_i t^j -> j t^j h_i with weight t
    # on index 1: the value is t x_1, and 1 + t does not divide t
    x = ctx.element({0: (0, 0, 1, 0), 1: (0, 0, 1, 0)})
    op = DiagonalDerivative(ctx, (LaurentPoly.monomial(1), LaurentPoly.zero()))
    res = aid_obstruction_check(ctx, op, x)
    assert res.status == "root-obstruction" and res.y is None
    assert res.detail["root"] == 1
    assert res.detail["gcd"] == {"0": "1", "1": "1"} and res.detail["component"] == {"1": "1"}
    assert bracket_match(ctx, [(x, op(x))], (-10, 10)) is None


def test_non_normal_psi_is_invalid_input():
    # |Psi| = rank but 1,0,0 + 0,1,0 = 1,1,0 lies in Psi: no normal form
    c = loop_context(SubalgebraSpec(build_root_system("A", 3), ((1, 0, 0), (0, 1, 0), (1, 1, 0))))
    assert not chevalley.normal_form(c.algebra)
    with pytest.raises(ValueError, match="normal form"):
        toral_center_witness(c, 1, 2, c.basis_at(0, 2))
    with pytest.raises(ValueError, match="normal form"):
        aid_obstruction_check(c, ToralToCenter(c, 1, 1), c.basis_at(0, 1))


def test_bezout_cofactors_and_gcd():
    f = LaurentPoly.from_dict({-1: 1, 0: 1})  # t^-1 (1 + t)
    g = LaurentPoly.from_dict({2: 1, 4: -1})  # t^2 (1 - t)(1 + t)
    d, s, r = loopalg._bezout(f, g)
    assert d == LaurentPoly.from_dict({0: 1, 1: 1})
    assert s * f + r * g == d
    d, s, r = loopalg._bezout(LaurentPoly.zero(), g)
    assert d == LaurentPoly.from_dict({0: -1, 2: 1}) and r * g == d
    d, s, r = loopalg._bezout(LaurentPoly.monomial(3, 2), LaurentPoly.from_dict({0: 1, 1: 1}))
    assert d == LaurentPoly.one() and s * LaurentPoly.monomial(3, 2) + r * LaurentPoly.from_dict({0: 1, 1: 1}) == d


def test_global_inner_match_zero_gives_zero(ctx):
    y = global_inner_match(ctx, {}, (-2, 2))
    assert y is not None and y.is_zero


def test_global_inner_match_single_term_absent(ctx):
    assert global_inner_match(ctx, {(1, 1): 1}, (-2, 2)) is None


def test_global_inner_match_combination_absent(ctx):
    assert global_inner_match(ctx, {(1, 1): 2, (2, -1): -3}, (-2, 2)) is None


def test_root_block_isotropic_across_minimal_subalgebras():
    # every frozen minimal set (A1-A4, B2, B3, C3, G2, D4) extracts to the
    # normal form the exact solver accepts: the torus dual to Psi, only the
    # brackets [t_k, x_k] = x_k, and root vectors pairing to zero
    frozen = json.loads((Path(__file__).parent / "golden" / "minimal_sets.json").read_text(encoding="utf-8"))
    count = 0
    for key, sets in frozen.items():
        rs = build_root_system(key[0], int(key[1:]))
        for text in sets:
            c = loop_context(SubalgebraSpec(rs, tuple(tuple(map(int, r.split(","))) for r in text.split(";"))))
            assert chevalley.normal_form(c.algebra), (key, text)
            assert all(c.algebra.form.at(c.l + a, c.l + b) == 0 for a in range(c.m) for b in range(c.m))
            assert c.algebra.structure == {(k, c.l + k): ((c.l + k, 1),) for k in range(c.l)}
            res = toral_center_witness(c, 1, -1, c.basis_at(0, -1) + c.basis_at(c.l, 1))
            assert res.status == "witnessed", (key, text)
            count += 1
    assert count == 942


def test_affine_element_coerces_ints_and_checks_length(ctx):
    x = ctx.element({1: (1, 0, Fraction(1, 2), 0)}, 3)
    assert x.support[1] == (Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0))
    assert [type(v) for v in x.support[1]] == [int, int, Fraction, int] and type(x.central) is int
    assert ctx.element({0: (0, 0, 0, 0)}).is_zero
    with pytest.raises(ValueError, match="length"):
        ctx.element({0: (1, 0, 0)})


def test_empty_and_vacuous_windows_rejected(ctx):
    x = ctx.basis_at(0, 1)
    with pytest.raises(ValueError, match="empty window"):
        bracket_match(ctx, [(x, ctx.central(1))], (1, -1))
    with pytest.raises(ValueError, match="empty window"):
        global_inner_match(ctx, {}, (1, -1))
    with pytest.raises(ValueError, match="misses degree 1"):
        global_inner_match(ctx, {(1, 1): 1}, (0, 0))
    # a zero-weight term is no term, so nothing is left for the window to miss
    assert global_inner_match(ctx, {(1, 1): 0}, (0, 0)).is_zero


# ---------------------------------------------------------------------------
# bracket_match against rows built one affine bracket per unknown
# ---------------------------------------------------------------------------


def reference_match(c, pairs, window):
    """The witness system built the slow way: one full ``affine_bracket``
    of X with each basis unknown ``b_k t^n``, solved by ``solve_sparse``."""
    lo, hi = window
    unknowns = [(deg, k) for deg in range(lo, hi + 1) for k in range(c.dim)]
    rows, rhs = [], []
    for x, z in pairs:
        by_output, central_row = {}, {}
        for t, (deg, k) in enumerate(unknowns):
            img = affine_bracket(x, c.basis_at(k, deg))
            for d, vec in img.support.items():
                for col, v in enumerate(vec):
                    if v:
                        by_output.setdefault((d, col), {})[t] = v
            if img.central:
                central_row[t] = img.central
        keys = set(by_output) | {(d, col) for d, vec in z.support.items() for col, v in enumerate(vec) if v}
        for d, col in sorted(keys):
            rows.append(by_output.get((d, col), {}))
            rhs.append(z.component(d)[col])
        rows.append(central_row)
        rhs.append(z.central)
    sol = solve_sparse(rows, rhs, len(unknowns))
    if sol is None:
        return None
    support = {}
    for (deg, k), v in zip(unknowns, sol):
        if v:
            support.setdefault(deg, [0] * c.dim)[k] = v
    return c.element({d: tuple(v) for d, v in support.items()})


@pytest.fixture(
    scope="module",
    params=[
        ("B", 2, ((1, 0), (2, 1))),
        ("A", 3, ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
        ("A", 4, ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1))),
    ],
    ids=["B2", "A3-chain", "A4-chain"],
)
def chain_ctx(request):
    family, rank, psi = request.param
    rs = build_root_system(family, rank)
    return loop_context(SubalgebraSpec(rs, psi))


def test_bracket_match_rows_agree_with_reference(chain_ctx):
    c = chain_ctx
    rng = random.Random(404)
    outcomes = {"solved": 0, "none": 0, "central": 0}
    for case in range(12):
        lo = rng.randint(-3, 0)
        window = (lo, lo + rng.randint(0, 3))
        pairs = []
        y0 = rand_element(c, rng, span=2).loop_part()
        y0 = c.element({d: v for d, v in y0.support.items() if window[0] <= d <= window[1]})
        for _ in range(1 + case % 2):  # one pair, or two sharing a witness
            degrees = rng.sample(range(-2, 3), 1 + case % 3)
            if case % 4 == 0 and 0 not in degrees:
                degrees[0] = 0
            x = c.element({d: tuple(Fraction(rng.randint(-2, 2)) for _ in range(c.dim)) for d in degrees})
            z = affine_bracket(x, y0)
            if case % 3 == 1:  # usually infeasible: a central or loop perturbation
                z = z + (c.central(1) if case % 2 else c.basis_at(rng.randrange(c.dim), rng.randint(-2, 2)))
            pairs.append((x, z))
        want = reference_match(c, pairs, window)
        got = bracket_match(c, pairs, window)
        if want is None:
            assert got is None, f"case {case}"
            outcomes["none"] += 1
        else:
            assert got == want and got.to_json() == want.to_json(), f"case {case}"
            outcomes["solved"] += 1
        outcomes["central"] += any(z.central != 0 for _, z in pairs)
    assert all(outcomes.values()), outcomes


def test_loop_context_ignores_a_passed_ambient_algebra():
    # called the way the benchmark's checker calls it
    for family, rank, psi in [("B", 2, ((1, 0), (2, 1))), ("A", 4, _chain(4))]:
        rs = build_root_system(family, rank)
        spec = SubalgebraSpec(rs, psi)
        got, want = loop_context(spec, build_semisimple(rs)), loop_context(spec)
        assert list(got.algebra.structure.items()) == list(want.algebra.structure.items())
        assert got.algebra.form == want.algebra.form
        assert (got.l, got.m) == (want.l, want.m)


# ---------------------------------------------------------------------------
# global_inner_match against the mixed-probe family it used to solve
# ---------------------------------------------------------------------------


def _chain(rank):
    return tuple(tuple(1 if k <= i else 0 for k in range(rank)) for i in range(rank))


def mixed_probe_inner_match(c, coefficients, window):
    """The inner match over the earlier probe family: every basis element
    ``b_k t^j`` plus every mixed sum ``h_i t^j + x_p t^n`` with ``p != i``
    (any p when l = 1), in the window."""
    terms = tuple(
        (Fraction(w), ToralToCenter(c, i, j)) for (i, j), w in sorted(coefficients.items()) if Fraction(w) != 0
    )
    op = OperatorSum(c, terms)
    l = c.l
    degrees = range(window[0], window[1] + 1)
    probes = [c.basis_at(k, j) for k in range(c.dim) for j in degrees]
    probes += [
        c.basis_at(i, j) + c.basis_at(l + p, n)
        for i, p, j, n in product(range(l), range(l), degrees, degrees)
        if p != i or l == 1
    ]
    return bracket_match(c, [(x, op(x)) for x in probes], window)


def _inner_match_cases():
    b2 = ("B", 2, ((1, 0), (2, 1)))
    # criterion 10's combinations at the default seed
    rng = random.Random(2024)
    yield b2, {}, (-2, 2)
    for case in range(20):
        width = 4 + (case % 5)
        window = (-(width // 2), width - width // 2)
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randint(1, 2), rng.randint(window[0], window[1])
            coeffs[(i, j)] = rng.choice([-3, -2, -1, 1, 2, 3])
        yield b2, coeffs, window
    # the two golden inputs
    yield b2, {(1, 1): 1}, (-2, 2)
    yield ("A", 4, _chain(4)), {(1, 1): 2, (3, -2): -1}, (-2, 2)
    # seeded combinations, zero ones included
    rng = random.Random(909)
    for family, rank, psi in [
        ("A", 1, ((1,),)),
        b2,
        ("A", 2, ((1, 0), (1, 1))),
        ("G", 2, ((0, 1), (1, 1))),
        ("A", 3, _chain(3)),
    ]:
        for case in range(10):
            lo = -rng.randint(0, 2)
            window = (lo, lo + rng.randint(0, 3))
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                coeffs[(rng.randint(1, rank), rng.randint(*window))] = rng.choice([-2, -1, 1, 3])
            if case < 2:
                coeffs = {} if case == 0 else {key: 0 for key in coeffs}
            yield (family, rank, psi), coeffs, window


def _minimal_set_inner_match_cases():
    # seeded combinations on every minimal set of A3, B3 and C3: one zero,
    # one with zero weights only, and nonzero ones
    frozen = json.loads((Path(__file__).parent / "golden" / "minimal_sets.json").read_text(encoding="utf-8"))
    rng = random.Random(2206)
    for key in ("A3", "B3", "C3"):
        for n, text in enumerate(frozen[key]):
            psi = tuple(tuple(map(int, r.split(","))) for r in text.split(";"))
            lo = -rng.randint(0, 1)
            window = (lo, lo + rng.randint(0, 2))
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                coeffs[(rng.randint(1, 3), rng.randint(*window))] = rng.choice([-2, -1, 1, 3])
            if n % 8 == 0:
                coeffs = {} if n % 16 == 0 else {k: 0 for k in coeffs}
            yield (key[0], 3, psi), coeffs, window


def test_global_inner_match_agrees_with_mixed_probes():
    # the decided answer against the windowed oracle and, on the cases of
    # the earlier probe family, against the mixed probes too
    contexts = {}
    outcomes = {"matched": 0, "none": 0, "mixed": 0}
    cases = [(case, True) for case in _inner_match_cases()]
    cases += [(case, False) for case in _minimal_set_inner_match_cases()]
    for ((family, rank, psi), coeffs, window), mixed in cases:
        if (family, psi) not in contexts:
            contexts[(family, psi)] = loop_context(SubalgebraSpec(build_root_system(family, rank), psi))
        c = contexts[(family, psi)]
        got = global_inner_match(c, coeffs, window)
        wants = [loopalg_reference.global_inner_match(c, coeffs, window)]
        if mixed:
            wants.append(mixed_probe_inner_match(c, coeffs, window))
            outcomes["mixed"] += 1
        for want in wants:
            if want is None:
                assert got is None, (family, psi, coeffs, window)
            else:
                assert got == want and got.to_json() == want.to_json(), (family, psi, coeffs, window)
        outcomes["none" if got is None else "matched"] += 1
        assert (got is None) == any(Fraction(w) for w in coeffs.values())
    assert all(outcomes.values()), outcomes
    assert len(contexts) == 5 + 32 + 72 + 80, len(contexts)


def test_inner_match_builds_no_echelon(monkeypatch):
    # the decision eliminates nothing; the subalgebras are extracted (and
    # memoized) first, since extraction inverts the pairing matrix
    from liecert import exact
    from liecert.cli import run

    inputs = Path(__file__).parent / "golden" / "inputs"
    b2 = ["--family", "B", "--rank", "2", "--psi", "1,0;2,1"]
    a4 = ["--family", "A", "--rank", "4", "--psi", "1,0,0,0;1,1,0,0;1,1,1,0;1,1,1,1"]
    cases = {
        "inner-match-B2-window2": ["inner-match", *b2, "--op", str(inputs / "op_d11.json"), "--window", "2"],
        "inner-match-A4-chain-window2": ["inner-match", *a4, "--op", str(inputs / "op_a4_mixed.json"), "--window", "2"],
    }
    for argv in cases.values():
        run(argv, out=io.StringIO())

    class Refused:
        def __init__(self):
            raise AssertionError("inner-match built an Echelon")

    for name, module in list(sys.modules.items()):
        if name.startswith("liecert") and hasattr(module, "Echelon"):
            monkeypatch.setattr(module, "Echelon", Refused)
    with pytest.raises(AssertionError, match="built an Echelon"):
        exact.inverse(MatQ.identity(2))  # the patch is live
    for name, argv in cases.items():
        buf = io.StringIO()
        assert run(argv, out=buf) == 3
        assert buf.getvalue() == (Path(__file__).parent / "golden" / f"{name}.out").read_text(encoding="utf-8")
    c = loop_context(SubalgebraSpec(build_root_system("B", 2), ((1, 0), (2, 1))))
    assert global_inner_match(c, {(1, 1): 1, (2, -3): 2}, (-3, 3)) is None
    assert global_inner_match(c, {}, (0, 0)).is_zero


def test_global_inner_match_refuses_psi_outside_the_normal_form():
    # square, but Psi = {a, -a} does not span, so Z(L) is not zero; the
    # existing window errors still come first
    c = loop_context(SubalgebraSpec(build_root_system("B", 2), ((1, 0), (-1, 0))))
    assert c.square() and not chevalley.normal_form(c.algebra)
    with pytest.raises(ValueError, match="empty window"):
        global_inner_match(c, {(2, 1): 1}, (1, -1))
    with pytest.raises(ValueError, match="misses degree 1"):
        global_inner_match(c, {(2, 1): 1}, (0, 0))
    for coeffs in ({(2, 1): 1}, {}):
        with pytest.raises(ValueError, match="needs Psi in normal form"):
            global_inner_match(c, coeffs, (-2, 2))
    # the windowed oracle matches d_{2,1} there, with Y in Z(L) (x) t^-1
    y = loopalg_reference.global_inner_match(c, {(2, 1): 1}, (-2, 2))
    assert y is not None and y.degrees() == [-1]
    assert not any(dense(c.algebra.ad(y.component(-1))).entries)  # Y lies in Z(L)


def test_a_nonzero_center_is_refused_as_outside_the_normal_form():
    # a square algebra with a nonzero center: t_2 is central, and t_1 acts
    # on both root vectors; it is not r_2^2, so every decision that reads
    # "no match" off Z(L) = 0 refuses it as invalid input (CLI exit 2)
    from liecert.chevalley import LieAlgebra
    from liecert.loopalg import LoopContext

    one = Fraction(1)
    g = LieAlgebra(
        dim=4,
        labels=("t1", "t2", "x1", "x2"),
        structure={(0, 2): ((2, one),), (0, 3): ((3, one),)},
        form=MatQ.identity(4),
        torus=2,
    )
    assert g.weights[2:] == ((1, 0), (1, 0))
    c = LoopContext(g)
    assert c.square() and not chevalley.normal_form(g)
    for coeffs in ({}, {(2, 1): 1}):
        with pytest.raises(ValueError, match="needs Psi in normal form"):
            global_inner_match(c, coeffs, (-1, 1))
    with pytest.raises(ValueError, match="needs Psi in normal form"):
        toral_center_witness(c, 2, 1, c.basis_at(1, 1))


def test_exact_witness_recheck_survives_python_O():
    """The solver's witness is re-checked by explicit code, not an assert."""
    script = textwrap.dedent(
        """
        import sys
        from liecert import loopalg
        from liecert.chevalley import SubalgebraSpec
        from liecert.rootsys import build_root_system

        assert False, "asserts must be off for this check"
        rs = build_root_system("B", 2)
        ctx = loopalg.loop_context(SubalgebraSpec(rs, ((1, 0), (2, 1))))
        loopalg._normal_form_solve = lambda ctx, x, z: loopalg.WitnessResult("witnessed", ctx.zero())
        try:
            loopalg.toral_center_witness(ctx, 1, 1, ctx.basis_at(0, 1))
        except AssertionError as exc:
            print("raised:", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "exact solver returned a non-witness" in proc.stdout


def test_witness_with_its_denominators_dropped_is_refused_under_python_O():
    """A solver that lost its witness's denominators, as a denominator-clearing
    bug would, is caught by the re-check: dij-witness exits 4 under -O."""
    x_path = Path(__file__).resolve().parent / "golden" / "inputs" / "x_h1_deg1.json"
    script = textwrap.dedent(
        """
        import io, sys
        from fractions import Fraction
        from liecert import loopalg
        from liecert.cli import run

        assert False, "asserts must be off for this check"
        solve = loopalg._normal_form_solve

        def dropped(ctx, x, z):
            res = solve(ctx, x, z)
            vecs = list(res.y.support.values())
            if not any(type(a) is Fraction for vec in vecs for a in vec):
                sys.exit("the true witness is integral, so dropping its denominators changes nothing")
            support = {d: tuple(a.numerator for a in vec) for d, vec in res.y.support.items()}
            return loopalg.WitnessResult(res.status, ctx.element(support), res.detail)

        loopalg._normal_form_solve = dropped
        out = io.StringIO()
        argv = ["dij-witness", "--family", "B", "--rank", "2", "--psi", "1,0;2,1", "--i", "1", "--j", "1", "--x"]
        print("exit", run(argv + [sys.argv[1]], out=out))
        print(out.getvalue())
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(x_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("exit 4\n"), proc.stdout
    assert "exact solver returned a non-witness" in proc.stdout


# ---------------------------------------------------------------------------
# the exact Leibniz decision against the sampled check it replaced
# ---------------------------------------------------------------------------


def _probe_elements(ctx, span=3):
    probes = [ctx.basis_at(k, j) for j in range(-span, span + 1) for k in range(ctx.dim)]
    probes.append(ctx.central(1))
    return probes


def _random_element(ctx, rng, span=3):
    support = {}
    for deg in rng.sample(range(-span, span + 1), rng.randint(1, 3)):
        support[deg] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ctx.dim))
    return ctx.element(support, rng.randint(-2, 2))


def sampled_leibniz_check(op, samples=24, seed=2024, include_central=False):
    """The Leibniz check as it was before the symbol: probes plus seeded
    random pairs, kept as an oracle for the exact decision."""
    ctx = op.ctx
    rng = random.Random(seed)
    probes = _probe_elements(ctx)
    pairs = [(a, b) for i, a in enumerate(probes) for b in probes[i + 1 :: max(1, len(probes) // 8)]]
    for _ in range(samples):
        pairs.append((_random_element(ctx, rng), _random_element(ctx, rng)))
    for x, y in pairs:
        lhs = op(affine_bracket(x, y))
        rhs = affine_bracket(op(x), y) + affine_bracket(x, op(y))
        same = lhs == rhs if include_central else lhs.loop_equal(rhs)
        if not same:
            return False, (x, y)
    return True, None


def confirm_rejection(op, pair, include_central=False):
    """The pair is two basis elements ``b_i t^m`` with a nonzero defect."""
    for e in pair:
        ((_, vec),) = e.support.items()
        assert e.central == 0 and sorted(vec)[-1] == 1 and sum(map(abs, vec)) == 1
    x, y = pair
    defect = op(affine_bracket(x, y)) - affine_bracket(op(x), y) - affine_bracket(x, op(y))
    assert defect.support or (include_central and defect.central)


def non_derivations(ctx, seed, count=24):
    """Seeded operators outside Der: an inner operator plus one symbol part,
    either an ``A_s`` (an inner derivation with one entry moved) outside
    Der(L) or a ``B_s`` (a centroid element with one entry moved) outside
    the centroid, each checked against those spaces."""
    g, rng = ctx.algebra, random.Random(seed)
    der, cent = derivation_space(g).der_basis, centroid_space(g).basis
    zero = MatQ(g.dim, g.dim, {})
    ops = []
    while len(ops) < count:
        is_a = len(ops) % 2 == 0
        if is_a:
            base = g.ad(tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim)))
        else:
            weights = [rng.randint(-2, 2) for _ in cent]
            entries = [sum(w * b.at(*divmod(k, g.dim)) for w, b in zip(weights, cent)) for k in range(g.dim**2)]
            base = MatQ(g.dim, g.dim, dict(enumerate(entries)))
        entries = list(dense(base).entries)
        entries[rng.randrange(len(entries))] += rng.choice((-1, 1))
        m = MatQ(g.dim, g.dim, dict(enumerate(Fraction(v) for v in entries)))
        if in_span(der if is_a else cent, m):
            continue
        s = rng.randint(-2, 2)
        part = FromSymbol(ctx, Symbol({s: (m, zero) if is_a else (zero, m)}, {}))
        inner = Inner(rand_element(ctx, rng))
        ops.append(OperatorSum(ctx, ((Fraction(1), inner), (Fraction(rng.randint(1, 2)), part))))
    return ops


def test_exact_and_sampled_leibniz_accept_criterion_7_operators(ctx):
    for case, (op, _, _) in enumerate(loop_operator_cases(ctx, 2024)):
        assert leibniz_check(op) == (True, None), case
        assert sampled_leibniz_check(op, samples=6, seed=2024 + case) == (True, None), case


def test_exact_leibniz_rejects_what_the_sampler_rejects(ctx):
    sampled = 0
    for k, op in enumerate(non_derivations(ctx, 77)):
        ok, pair = leibniz_check(op)
        assert not ok, k
        confirm_rejection(op, pair)
        sampled += not sampled_leibniz_check(op, samples=6, seed=k)[0]
    assert sampled > 0


def test_exact_leibniz_decides_the_central_identity(ctx):
    # a loop derivation that breaks the cocycle
    op = DiagonalDerivative(ctx, (LaurentPoly.one(), LaurentPoly.zero()))
    assert leibniz_check(op) == (True, None)
    assert sampled_leibniz_check(op, include_central=True) == (False, (ctx.basis_at(1, -2), ctx.basis_at(0, 3)))
    ok, pair = leibniz_check(op, include_central=True)
    assert not ok
    confirm_rejection(op, pair, include_central=True)
    # inner operators with one coordinate of some c_n moved onto a root
    # vector: still loop derivations, no longer affine ones
    rng = random.Random(31)
    sampled = 0
    for k in range(8):
        sym = Inner(rand_element(ctx, rng)).symbol()
        n = rng.randint(-3, 3)
        row = list(sym.central.get(n, (Fraction(0),) * ctx.dim))
        row[ctx.l + rng.randrange(ctx.m)] += rng.choice((-1, 1))
        bad = FromSymbol(ctx, Symbol(sym.loop, {**sym.central, n: tuple(row)}))
        assert leibniz_check(bad) == (True, None)
        ok, pair = leibniz_check(bad, include_central=True)
        assert not ok, k
        confirm_rejection(bad, pair, include_central=True)
        sampled += not sampled_leibniz_check(bad, samples=6, seed=k, include_central=True)[0]
    assert sampled > 0


SCALAR_SITES = {
    "from_dict": lambda ctx, v: LaurentPoly.from_dict({1: v}),
    "monomial": lambda ctx, v: LaurentPoly.monomial(1, v),
    "poly-scale": lambda ctx, v: LaurentPoly.one().scale(v),
    "vector": lambda ctx, v: ctx.element({0: (v, 0, 0, 0)}),
    "central": lambda ctx, v: ctx.element({}, v),
    "element-scale": lambda ctx, v: ctx.basis_at(0, 1).scale(v),
}


@pytest.mark.parametrize("bad", [0.1, 0.0, 2.0, True, False], ids=["0.1", "0.0", "2.0", "True", "False"])
@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_floats_and_bools_are_refused_as_scalars(ctx, site, bad):
    # a float is not exact (0.1 would read as 3602879701896397/36028797018963968),
    # and a zero float or False is refused too, not dropped as a zero
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        SCALAR_SITES[site](ctx, bad)


def _nonzero_scalars(value):
    if isinstance(value, LaurentPoly):
        return [c for _, c in value.coeffs]
    return [c for vec in value.support.values() for c in vec if c] + [value.central] * bool(value.central)


@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_ints_and_fractions_are_kept_as_given(ctx, site):
    for good in (3, Fraction(1, 2)):
        scalars = _nonzero_scalars(SCALAR_SITES[site](ctx, good))
        assert scalars == [good] and type(scalars[0]) is type(good), site

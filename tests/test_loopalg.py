"""Affinization bracket, operator calculus, and the witness solvers."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from liecert.chevalley import SubalgebraSpec, build_semisimple
from liecert.dercalc import derivation_space
from liecert.exact import MatQ, solve_sparse
from liecert.loopalg import (
    AffineElement,
    Inner,
    LaurentPoly,
    OperatorSum,
    TensorDerivation,
    ToralToCenter,
    affine_bracket,
    aid_obstruction_check,
    bracket_match,
    decompose_derivation,
    default_window,
    diagonal_derivative,
    diagonal_derivative_aid_check,
    centroid_multiplier,
    global_inner_match,
    laurent_div,
    leibniz_check,
    loop_aid_reduce,
    loop_context,
    toral_center_witness,
)
from liecert.rootsys import build_root_system


@pytest.fixture(scope="module")
def ctx():
    rs = build_root_system("B", 2)
    return loop_context(SubalgebraSpec(rs, ((1, 0), (2, 1))), build_semisimple(rs))


@pytest.fixture(
    scope="module",
    params=[("B", 2, ((1, 0), (2, 1))), ("G", 2, ((0, 1), (1, 1))), ("A", 2, ((1, 0), (1, 1)))],
    ids=["B2", "G2", "A2"],
)
def any_ctx(request):
    family, rank, psi = request.param
    rs = build_root_system(family, rank)
    return loop_context(SubalgebraSpec(rs, psi), build_semisimple(rs))


def rand_element(ctx, rng, span=3):
    support = {}
    for deg in rng.sample(range(-span, span + 1), rng.randint(1, 3)):
        support[deg] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ctx.dim))
    return ctx.element(support, rng.randint(-2, 2))


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


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
    h1 = ctx.basis_at(0, 1)
    h1p = ctx.element({-1: ctx.basis.dual_torus_local[0]})
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
    other = loop_context(SubalgebraSpec(rs, ((0, 1), (1, 1))), build_semisimple(rs))
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
    op = diagonal_derivative(ctx, [one, one])
    assert op(ctx.basis_at(0, 0)).is_zero  # j = 0 annihilated
    img = op(ctx.basis_at(0, 2))
    assert img == ctx.element({1: (Fraction(2), 0, 0, 0)})
    f1 = LaurentPoly.from_dict({0: 1, 1: 1})
    op2 = diagonal_derivative(ctx, [f1, LaurentPoly.zero()])
    img2 = op2(ctx.basis_at(2, 3))  # x_1 (x) t^3
    assert img2 == ctx.element({2: (0, 0, Fraction(3), 0), 3: (0, 0, Fraction(3), 0)})


def test_leibniz_inner_exact_including_central(ctx):
    rng = random.Random(3)
    for _ in range(3):
        op = Inner(rand_element(ctx, rng))
        ok, _ = leibniz_check(op, samples=8, seed=5, include_central=True)
        assert ok


def test_leibniz_toral_to_center_exact(ctx):
    for (i, j) in [(1, 1), (2, -2), (1, 0)]:
        ok, _ = leibniz_check(ToralToCenter(ctx, i, j), samples=8, seed=6, include_central=True)
        assert ok


def test_leibniz_tensor_derivation(ctx):
    basis = derivation_space(ctx.algebra)
    f = LaurentPoly.from_dict({-1: 2, 1: 1})
    op = TensorDerivation(ctx, basis.der_basis[0], f)
    ok, _ = leibniz_check(op, samples=8, seed=7)
    assert ok
    # a non-derivation matrix must be caught with a witness pair
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[0][2] = Fraction(1)
    bad = TensorDerivation(ctx, MatQ.from_rows(rows), LaurentPoly.one())
    ok, pair = leibniz_check(bad, samples=8, seed=8)
    assert not ok and pair is not None


def test_diagonal_derivative_is_loop_derivation(ctx):
    op = diagonal_derivative(ctx, [LaurentPoly.from_dict({0: 1, 2: -1}), LaurentPoly.monomial(-1)])
    ok, _ = leibniz_check(op, samples=8, seed=9)
    assert ok


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
    op = diagonal_derivative(ctx, [LaurentPoly.from_dict({1: 2}), LaurentPoly.one()])
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
    op = diagonal_derivative(ctx, [LaurentPoly.one(), LaurentPoly.monomial(2)])
    dec = decompose_derivation(op)
    assert dec.tensor_terms == ()
    rng = random.Random(11)
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert dec.residual(x).loop_equal(op(x))


def test_loop_aid_reduce_inner_components(ctx):
    g = ctx.algebra
    rng = random.Random(12)
    terms = []
    for deg in (-1, 0, 2):
        w = tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim))
        terms.append(TensorDerivation(ctx, g.ad(w), LaurentPoly.monomial(deg)))
    res = loop_aid_reduce(ctx, terms)
    assert res.all_inner
    inner = Inner(res.witness)
    d = OperatorSum(ctx, tuple((Fraction(1), t) for t in terms))
    for _ in range(5):
        x = rand_element(ctx, rng)
        assert inner(x).loop_equal(d(x))


def test_loop_aid_reduce_zero(ctx):
    res = loop_aid_reduce(ctx, [])
    assert res.all_inner and res.witness.is_zero


def test_loop_aid_reduce_rejects_non_inner_component(ctx):
    # a tensor term whose matrix is not even a derivation of L cannot get an
    # inner witness; the per-degree verdicts record why
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[3][0] = Fraction(1)  # h_1 -> x_2 breaks Leibniz on (h_1, h_2)
    bad = TensorDerivation(ctx, MatQ.from_rows(rows), LaurentPoly.monomial(1))
    good = TensorDerivation(ctx, ctx.algebra.ad(ctx.algebra.basis_vector(2)), LaurentPoly.monomial(0))
    res = loop_aid_reduce(ctx, [good, bad])
    assert not res.all_inner and res.witness is None
    assert (1, "not-derivation") in res.component_verdicts
    assert (0, "inner") in res.component_verdicts


def test_diagonal_derivative_aid_check(ctx):
    ok, _ = diagonal_derivative_aid_check(ctx, [LaurentPoly.zero(), LaurentPoly.zero()])
    assert ok
    ok, data = diagonal_derivative_aid_check(ctx, [LaurentPoly.one(), LaurentPoly.zero()])
    assert not ok
    # exact obstruction: the value at h_1 (x) t has a torus loop component
    assert data["value"].support and any(data["value"].component(0)[: ctx.l])
    ok, _ = diagonal_derivative_aid_check(ctx, [LaurentPoly.zero(), LaurentPoly.monomial(4)])
    assert not ok


# ---------------------------------------------------------------------------
# witness searches
# ---------------------------------------------------------------------------


def test_toral_witness_single_term(ctx):
    for (i, j) in [(1, 1), (1, -2), (2, 3)]:
        x = ctx.basis_at(i - 1, j)
        res = toral_center_witness(ctx, i, j, x)
        assert res.status == "witnessed" and not res.general_path_used
        assert affine_bracket(x, res.y) == ctx.central(1)


def test_toral_witness_pure_root_part(ctx):
    x = ctx.basis_at(2, 5) + ctx.basis_at(3, -1)
    res = toral_center_witness(ctx, 1, 1, x)
    assert res.status == "witnessed"
    assert res.y.is_zero  # target already zero


def test_toral_witness_divisibility_example_needs_general_path(ctx):
    # torus poly t + t^2 on h_1 plus constant root part x_1: the closed-form
    # ansatz fails Laurent division and the windowed search must find Y
    x = ctx.element(
        {
            1: (Fraction(1), 0, 0, 0),
            2: (Fraction(1), 0, 0, 0),
            0: (0, 0, Fraction(1), 0),
        }
    )
    res = toral_center_witness(ctx, 1, 1, x)
    assert res.status == "witnessed"
    assert res.general_path_used
    assert res.fast_path_failure == "laurent-division"
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


def test_global_inner_match_zero_gives_zero(ctx):
    y = global_inner_match(ctx, {}, (-2, 2))
    assert y is not None and y.is_zero


def test_global_inner_match_single_term_absent(ctx):
    assert global_inner_match(ctx, {(1, 1): 1}, (-2, 2)) is None


def test_global_inner_match_combination_absent(ctx):
    assert global_inner_match(ctx, {(1, 1): 2, (2, -1): -3}, (-2, 2)) is None


def test_root_block_isotropic_across_minimal_subalgebras():
    # the restricted form pairs root vectors to zero on every square minimal
    # subalgebra (no opposite root pairs), which the witness solver relies on
    from liecert.qgraded import enumerate_minimal

    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        ambient = build_semisimple(rs)
        for spec in enumerate_minimal(rs):
            c = loop_context(spec, ambient)
            assert c.root_block_isotropic()


def test_default_window_covers_support(ctx):
    x = ctx.element({-1: ctx.algebra.basis_vector(0), 3: ctx.algebra.basis_vector(2)})
    lo, hi = default_window(x, extra_degrees=(-5,))
    assert lo <= -5 and hi >= 3


def test_affine_element_coerces_ints_and_checks_length(ctx):
    x = ctx.element({1: (1, 0, Fraction(1, 2), 0)}, 3)
    assert x.support[1] == (Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0))
    assert all(type(v) is Fraction for v in x.support[1]) and type(x.central) is Fraction
    assert ctx.element({0: (0, 0, 0, 0)}).is_zero
    with pytest.raises(ValueError, match="length"):
        ctx.element({0: (1, 0, 0)})


def test_empty_and_vacuous_windows_rejected(ctx):
    x = ctx.basis_at(0, 1)
    with pytest.raises(ValueError, match="empty window"):
        bracket_match(ctx, [(x, ctx.central(1))], (1, -1))
    with pytest.raises(ValueError, match="empty window"):
        toral_center_witness(ctx, 1, 1, x, window=(3, -3))
    with pytest.raises(ValueError, match="empty window"):
        aid_obstruction_check(ctx, ToralToCenter(ctx, 1, 1), x, window=(1, -1))
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
    return loop_context(SubalgebraSpec(rs, psi), build_semisimple(rs))


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


def test_ansatz_recheck_survives_python_O():
    """The ansatz witness is re-checked by explicit code, not an assert."""
    script = textwrap.dedent(
        """
        import sys
        from liecert import loopalg
        from liecert.chevalley import SubalgebraSpec, build_semisimple
        from liecert.rootsys import build_root_system

        assert False, "asserts must be off for this check"
        rs = build_root_system("B", 2)
        ctx = loopalg.loop_context(SubalgebraSpec(rs, ((1, 0), (2, 1))), build_semisimple(rs))
        loopalg._toral_witness_ansatz = lambda ctx, i, j, x: ctx.zero()
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
    assert "ansatz produced a non-witness" in proc.stdout

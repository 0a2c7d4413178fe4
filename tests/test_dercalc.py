"""Derivation spaces, centroids, and the almost-inner decision procedure."""

import io
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from liecert import dercalc
from liecert.chevalley import LieAlgebra, SubalgebraSpec, build_semisimple, closure_violation, extract_subalgebra
from liecert.dercalc import (
    aid_membership,
    aid_precondition,
    centroid_space,
    centroid_violation,
    derivation_space,
    diagonal_map,
    diagonal_toral_algebra,
    leibniz_violation,
    verify_aid_eq_inn,
)
from liecert.exact import Echelon, MatQ, solve
from liecert.qgraded import enumerate_minimal
from liecert.rootsys import build_root_system

import dercalc_reference
from chevalley_reference import bracket
from exact_reference import dense, rref, solve_sparse


@pytest.fixture(scope="module")
def b2_minimal():
    rs = build_root_system("B", 2)
    return extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (2, 1))))


def fresh(g):
    """A new algebra with the data of g and nothing solved on it yet."""
    return LieAlgebra(dim=g.dim, labels=g.labels, structure=g.structure, form=g.form, torus=g.torus)


def abelian_algebra(n):
    return LieAlgebra(dim=n, labels=tuple(f"b{i}" for i in range(n)), structure={}, form=None)


def test_abelian_derivations_are_everything():
    g = abelian_algebra(3)
    basis = derivation_space(g)
    assert basis.dim_der == 9
    assert basis.dim_inn == 0


def test_b2_minimal_derivation_dim_and_permutation_oracle(b2_minimal):
    g = b2_minimal
    basis = derivation_space(g)
    for d in basis.der_basis:
        assert leibniz_violation(g, d) is None
    # oracle: recompute the kernel dimension over a permuted basis order
    perm = [2, 0, 3, 1]
    inv = [perm.index(k) for k in range(4)]
    structure = {}
    for i in range(4):
        for j in range(i + 1, 4):
            entry = g.bracket_basis(perm[i], perm[j])
            moved = tuple((inv[k], c) for k, c in entry)
            if moved:
                structure[(i, j)] = moved
    gp = LieAlgebra(dim=4, labels=g.labels, structure=structure, form=None)
    assert derivation_space(gp).dim_der == basis.dim_der
    # for this minimal subalgebra every derivation is inner
    assert basis.dim_der == basis.dim_inn == 4
    assert basis.complement_basis == ()


def test_inner_dim_equals_dim_for_enumerated_minimal():
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        for psi in enumerate_minimal(rs):
            g = extract_subalgebra(SubalgebraSpec(rs, psi))
            basis = derivation_space(g)
            # center is zero since Psi spans the dual of the torus
            assert basis.dim_inn == g.dim
            assert basis.dim_der == g.dim  # every derivation is inner here


def test_centroid_contains_identity(b2_minimal):
    g = b2_minimal
    cent = centroid_space(g)
    ident = MatQ.identity(g.dim)
    stacked = [list(dense(m).entries) for m in cent.basis]
    rank0 = rref(MatQ.from_rows(stacked)).rank
    assert rref(MatQ.from_rows(stacked + [list(dense(ident).entries)])).rank == rank0


def test_centroid_minimal_is_diagonal_with_paired_eigenvalues(b2_minimal):
    g = b2_minimal
    cent = centroid_space(g)
    assert len(cent.basis) == g.torus
    for phi in cent.basis:
        for r in range(g.dim):
            for c in range(g.dim):
                if r != c:
                    assert phi.at(r, c) == 0
        for i in range(g.torus):
            assert phi.at(i, i) == phi.at(g.torus + i, g.torus + i)


def test_centroid_of_simple_b2_is_scalars():
    rs = build_root_system("B", 2)
    g = build_semisimple(rs)
    cent = centroid_space(g)
    assert len(cent.basis) == 1


def test_centroid_of_abelian_algebra_is_all_of_end():
    # every map commutes with the zero bracket; End(L) is not commutative,
    # but each commutator maps L into its center, which is all of L
    cent = centroid_space(abelian_algebra(2))
    assert len(cent.basis) == 4


def test_centroid_commutator_check_fires(b2_minimal, monkeypatch):
    # E_00 E_01 - E_01 E_00 = E_01 sends b_1 to the torus element b_0, which
    # is not central in the minimal subalgebra; a fresh algebra, so that the
    # centroid kept on the shared one is not read back instead of solved
    g = fresh(b2_minimal)
    units = [tuple(Fraction(int(k == c)) for k in range(g.dim * g.dim)) for c in (0, 1)]
    monkeypatch.setattr(Echelon, "kernel", lambda self, ncols: units)
    with pytest.raises(AssertionError, match="outside its center"):
        centroid_space(g)


def test_aid_precondition_inner_passes(b2_minimal):
    g = b2_minimal
    for z in [g.basis_vector(k) for k in range(g.dim)]:
        ok, data = aid_precondition(g, g.ad(z))
        assert ok
    assert aid_precondition(g, MatQ(4, 4, {})) == (True, {})


def test_aid_precondition_failure_with_oracle(b2_minimal):
    # h_1 -> x_2 is not a derivation here, so bypass the Leibniz gate to
    # exercise the membership logic, and confirm with a direct rank oracle
    g = b2_minimal
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[3][0] = Fraction(1)  # h_1 -> x_2
    d = MatQ.from_rows(rows)
    ok, data = aid_precondition(g, d)
    assert not ok
    h = tuple(data["witness_h"]) + (Fraction(0), Fraction(0))
    # oracle: D(h) is not in the column space of ad(h)
    adh = g.ad(h)
    target = d.mul_vec(h)
    aug = MatQ.from_rows([list(dense(adh).row(r)) + [target[r]] for r in range(4)])
    assert rref(aug).rank > rref(adh).rank


def test_aid_membership_inner(b2_minimal):
    g = b2_minimal
    basis = derivation_space(g)
    for m in basis.inn_basis:
        verdict = aid_membership(g, m)
        assert verdict.is_inner
        assert g.ad(verdict.witness) == m


def test_aid_membership_diagonal_square_case(b2_minimal):
    g = b2_minimal
    rng = random.Random(37)
    for _ in range(10):
        scalars = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        d = diagonal_map(g, scalars)
        verdict = aid_membership(g, d)
        assert verdict.is_inner


def test_aid_membership_not_derivation(b2_minimal):
    g = b2_minimal
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[3][0] = Fraction(1)
    verdict = aid_membership(g, MatQ.from_rows(rows))
    assert verdict.status == "not-derivation"


def test_overweight_diagonal_derivation_not_almost_inner():
    # an abelian model with three weights on a two-dimensional torus: a
    # diagonal derivation with scalars outside the weight image is not
    # almost inner, certified by the infeasible 3x2 scalar system
    g = diagonal_toral_algebra([[2, -1], [-1, 2], [1, 1]])
    d = diagonal_map(g, [1, 0, 0])
    assert leibniz_violation(g, d) is None
    verdict = aid_membership(g, d)
    assert verdict.status == "not-aid" and verdict.reason == "scalar-system"
    # the recorded failure element is sum x_i; cross-check by a rank oracle
    x = verdict.data["fails_at"]
    adx = g.ad(x)
    target = d.mul_vec(x)
    aug = MatQ.from_rows([list(dense(adx).row(r)) + [target[r]] for r in range(g.dim)])
    assert rref(aug).rank > rref(adx).rank


def test_aid_membership_checks_the_precondition_once(b2_minimal, monkeypatch):
    # an ad(z) candidate is decided by the solve alone; a non-inner
    # derivation reaches the precondition once
    g = b2_minimal
    calls = []

    def counting(*args):
        calls.append(args)
        return aid_precondition(*args)

    monkeypatch.setattr(dercalc, "aid_precondition", counting)
    assert aid_membership(g, g.ad(g.basis_vector(3))).is_inner
    assert calls == []
    model = diagonal_toral_algebra([[2, -1], [-1, 2], [1, 1]])
    assert aid_membership(model, diagonal_map(model, [1, 0, 0])).reason == "scalar-system"
    assert len(calls) == 1


A4_CHAIN = ["--family", "A", "--rank", "4", "--psi", "1,0,0,0;1,1,0,0;1,1,1,0;1,1,1,1"]


def test_each_algebra_solves_der_and_its_centroid_once(monkeypatch):
    # Der and the centroid are kept on the algebra, and aid decides from Der
    # alone: no candidate is checked, so no exact system is solved
    from liecert import chevalley
    from liecert.cli import run

    counts = {"solves": 0, "candidates": 0, "exact_solves": 0}

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(dercalc, real.__name__, call)

    counting("candidates", dercalc.aid_membership)
    counting("solves", dercalc._weight_zero_kernel)
    counting("exact_solves", dercalc.solve)
    chevalley._extract.cache_clear()  # a fresh algebra
    for command in ("der", "aid", "aid"):
        assert run([command, *A4_CHAIN], out=io.StringIO()) == 0
    assert counts == {"solves": 1, "candidates": 0, "exact_solves": 0}
    for _ in range(2):
        assert run(["centroid", *A4_CHAIN], out=io.StringIO()) == 0
    assert counts == {"solves": 2, "candidates": 0, "exact_solves": 0}
    chevalley._extract.cache_clear()  # leave nothing built under the patches in the memo


def test_kept_spaces_equal_the_full_solve_on_a_fresh_algebra():
    rs = build_root_system("B", 3)
    for psi in (rs.roots, rs.positive_roots, *_closed_sets(rs, random.Random("kept"), 2)):
        g = extract_subalgebra(SubalgebraSpec(rs, psi))
        for space in (derivation_space, centroid_space):
            kept = space(g)
            assert space(g) is kept  # the second call reads the kept space back
            assert kept == getattr(dercalc_reference, space.__name__)(fresh(g)), (space.__name__, psi)


def test_der_aid_and_centroid_print_the_same_bytes_twice():
    from liecert import chevalley
    from liecert.cli import run

    chevalley._extract.cache_clear()  # the first run solves, the second reads back
    golden = Path(__file__).parent / "golden"
    for command in ("der", "aid", "centroid"):
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            assert run([command, *A4_CHAIN], out=buf) == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == (golden / f"{command}-A4-chain.out").read_text(encoding="utf-8")


def test_verify_aid_eq_inn_b2():
    rs = build_root_system("B", 2)
    for psi in enumerate_minimal(rs):
        cert = verify_aid_eq_inn(SubalgebraSpec(rs, psi))
        assert cert.ok
        assert cert.dim_der == cert.dim_inn == cert.dim_l


def test_verify_aid_eq_inn_raises_off_the_normal_form(monkeypatch):
    # a minimal L outside r_2^l would contradict the rank re-check
    spec = SubalgebraSpec(build_root_system("B", 2), ((1, 0), (2, 1)))
    monkeypatch.setattr(dercalc, "normal_form", lambda g: False)
    with pytest.raises(AssertionError, match="r_2"):
        verify_aid_eq_inn(spec)


def test_verify_aid_eq_inn_rejects_non_minimal():
    rs = build_root_system("B", 2)
    spec = SubalgebraSpec(rs, ((1, 0), (0, 1), (1, 1), (2, 1)))
    with pytest.raises(ValueError, match="minimal"):
        verify_aid_eq_inn(spec)


def test_scalar_derivation_verdict_dichotomy():
    # square case: every diagonal derivation is inner
    rs = build_root_system("B", 2)
    g = extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (2, 1))))
    assert solve(MatQ.from_rows(g.weights[g.torus :]), [3, -2]) is not None
    assert aid_membership(g, diagonal_map(g, [3, -2])).is_inner
    # overweight case on the true A2 positive-root subalgebra: (1,0,0) fails
    # Leibniz (the derived algebra is not abelian) and the 3x2 system is
    # infeasible, so it is certifiably not an almost-inner derivation
    rs2 = build_root_system("A", 2)
    g2 = extract_subalgebra(SubalgebraSpec(rs2, ((1, 0), (0, 1), (1, 1))))
    assert aid_membership(g2, diagonal_map(g2, [1, 0, 0])).status == "not-derivation"
    assert solve(MatQ.from_rows(g2.weights[g2.torus :]), [1, 0, 0]) is None
    # additive scalars do give a derivation there, and it is inner
    assert aid_membership(g2, diagonal_map(g2, [1, 2, 3])).is_inner


def _closed_spanning(rs):
    """Every closed Psi that spans the root space, by a scan of all subsets."""
    for mask in range(1, 1 << len(rs.roots)):
        psi = tuple(r for k, r in enumerate(rs.roots) if mask >> k & 1)
        if len(psi) >= rs.rank and closure_violation(rs, psi) is None and rref(MatQ.from_rows(psi)).rank == rs.rank:
            yield SubalgebraSpec(rs, psi)


# the closed spanning Psi of G2 with a complement derivation whose scalar
# system is infeasible although D(x) lies in [x, L] at x = sum x_i: their
# root vectors do not commute
G2_UNREFUTED = {
    ((-3, -2), (-3, -1), (-2, -1), (0, -1), (0, 1)),
    ((-3, -2), (-3, -1), (-1, -1), (0, -1), (3, 1)),
    ((-3, -2), (-3, -1), (-1, 0), (0, 1), (3, 2)),
    ((-3, -2), (0, -1), (1, 0), (3, 1), (3, 2)),
    ((-3, -1), (0, 1), (1, 1), (3, 1), (3, 2)),
    ((0, -1), (0, 1), (2, 1), (3, 1), (3, 2)),
}


def test_scalar_system_points_are_rechecked():
    """Every complement derivation of a closed spanning Psi of B2, G2 and A3
    reaches the point ``x = sum x_i``.  Where ``aid_membership`` refutes at
    ``x = sum x_i``, an independent solve confirms that ``D(x)`` is outside
    ``[x, L]``; where that point does not refute, it raises."""
    counts, confirmed, raised = {}, 0, set()
    for family, rank in [("B", 2), ("G", 2), ("A", 3)]:
        for spec in _closed_spanning(build_root_system(family, rank)):
            g = extract_subalgebra(spec, check_closed=False)
            x = (0,) * g.torus + (1,) * (g.dim - g.torus)
            for d in derivation_space(g).complement_basis:
                counts[family] = counts.get(family, 0) + 1
                refuted = solve_sparse(g.ad(x).row_dicts(), d.mul_vec(x), g.dim) is None
                try:
                    verdict = aid_membership(g, d)
                except AssertionError as exc:
                    assert "lies in [x, L]" in str(exc) and not refuted, (spec.psi, d)
                    raised.add(spec.psi)
                    continue
                assert (verdict.status, verdict.reason) == ("not-aid", "scalar-system"), (spec.psi, d)
                assert verdict.data["fails_at"] == x and refuted, (spec.psi, d)
                confirmed += 1
    assert counts == {"B": 4, "G": 54, "A": 6}
    assert confirmed == 58 and raised == G2_UNREFUTED


def test_verification_survives_python_O():
    """The witness re-check is explicit code, not an assert that -O strips."""
    script = textwrap.dedent(
        """
        import sys
        from liecert.chevalley import LieAlgebra, SubalgebraSpec, extract_subalgebra
        from liecert.dercalc import aid_membership
        from liecert.exact import MatQ
        from liecert.rootsys import build_root_system

        assert False, "asserts must be off for this check"
        rs = build_root_system("B", 2)
        g = extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (2, 1))))
        d = g.ad(g.basis_vector(0))
        LieAlgebra.ad = lambda self, x: MatQ(self.dim, self.dim, {})
        try:
            aid_membership(g, d)
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
    assert "inner witness does not reproduce the derivation" in proc.stdout


# ---------------------------------------------------------------------------
# the sparse Leibniz evaluators against the dense re-evaluations they replaced
# ---------------------------------------------------------------------------


def dense_leibniz_violation(g: LieAlgebra, d: MatQ) -> tuple[int, int] | None:
    """First basis pair where D[x,y] != [Dx,y] + [x,Dy], else None."""
    for i in range(g.dim):
        bi = g.basis_vector(i)
        dbi = d.mul_vec(bi)
        for j in range(i + 1, g.dim):
            bj = g.basis_vector(j)
            lhs = d.mul_vec(bracket(g, bi, bj))
            rhs = tuple(a + b for a, b in zip(bracket(g, dbi, bj), bracket(g, bi, d.mul_vec(bj))))
            if lhs != rhs:
                return (i, j)
    return None


def dense_centroid_violation(g: LieAlgebra, b: MatQ) -> tuple[int, int] | None:
    """First basis pair with ``B[b_i, b_j] != [B b_i, b_j]``, else None (then
    B is in the centroid: ``B[x,y] = [x, By]`` follows by antisymmetry)."""
    basis = [g.basis_vector(i) for i in range(g.dim)]
    for i, j in product(range(g.dim), repeat=2):
        if b.mul_vec(bracket(g, basis[i], basis[j])) != bracket(g, b.mul_vec(basis[i]), basis[j]):
            return i, j
    return None


def _chain(rank):
    return tuple(tuple(1 if k <= i else 0 for k in range(rank)) for i in range(rank))


def _differential_algebras():
    """``(name, algebra)``; the abelian algebra is a torus with no roots."""
    for family, rank, psi in [
        ("B", 2, ((1, 0), (2, 1))),
        ("A", 3, _chain(3)),
        ("A", 4, _chain(4)),
        ("G", 2, ((-3, -1), (-1, 0))),
        ("A", 2, ((1, 0), (0, 1), (1, 1))),  # not minimal: [x_1, x_2] = x_3 is a third direction
        # Z(L) != 0 in the next two, so the witness's free variables are compared
        ("B", 2, ((1, 0),)),
        ("A", 3, ((1, 0, 0), (0, 0, 1))),
        # four commuting root vectors over a rank-3 torus reach the scalar system
        ("A", 3, ((0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1))),
    ]:
        rs = build_root_system(family, rank)
        yield f"{family}{rank}", extract_subalgebra(SubalgebraSpec(rs, psi))
    yield "abelian2", LieAlgebra(dim=2, labels=("b0", "b1"), structure={}, form=None, torus=2)
    yield "toral", diagonal_toral_algebra([[2, -1], [-1, 2], [1, 1]])


def _differential_matrices(g, rng):
    """Der and centroid bases, one-entry perturbations of them, every matrix
    unit, and seeded random matrices (dense and sparse)."""
    n = g.dim * g.dim
    spanned = list(derivation_space(g).der_basis) + list(centroid_space(g).basis)
    yield from spanned
    yield from (MatQ(g.dim, g.dim, dict(enumerate(Fraction(int(k == u)) for k in range(n)))) for u in range(n))
    for m in spanned:
        for _ in range(3):
            entries = list(dense(m).entries)
            entries[rng.randrange(n)] += rng.choice([-2, -1, 1, 2])
            yield MatQ(g.dim, g.dim, dict(enumerate(entries)))
    for density in (1.0, 0.2):
        for _ in range(6):
            entries = [Fraction(rng.randint(-3, 3)) if rng.random() < density else Fraction(0) for _ in range(n)]
            yield MatQ(g.dim, g.dim, dict(enumerate(entries)))


def test_sparse_evaluators_match_dense_oracles():
    rng = random.Random(7)
    outcomes = {"leibniz": set(), "centroid": set()}
    for name, g in _differential_algebras():
        for d in _differential_matrices(g, rng):
            for key, new, old in [
                ("leibniz", leibniz_violation, dense_leibniz_violation),
                ("centroid", centroid_violation, dense_centroid_violation),
            ]:
                got = new(g, d)
                assert got == old(g, d), (name, key, d)
                outcomes[key].add(got is None)
    # each evaluator met both clean and violating matrices
    assert outcomes == {"leibniz": {True, False}, "centroid": {True, False}}


def test_sparse_evaluators_touch_neither_mul_vec_nor_bracket(b2_minimal, monkeypatch):
    g = b2_minimal
    bad = MatQ.from_rows([[Fraction(int(r == 3 and c == 0)) for c in range(4)] for r in range(4)])
    ident = MatQ.identity(4)

    def forbidden(*args):
        raise AssertionError("dense evaluation")

    monkeypatch.setattr(MatQ, "mul_vec", forbidden)
    monkeypatch.setattr(LieAlgebra, "ad", forbidden)
    assert leibniz_violation(g, bad) is not None and centroid_violation(g, bad) is not None
    assert centroid_violation(g, ident) is None


def dense_leibniz_rows(g, i, j, left, right):
    """Oracle: coordinate r of ``D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j]``
    at each matrix unit ``D = E_st``, through the dense bracket; the nonzero
    rows in coordinate order."""
    dim = g.dim
    basis = [g.basis_vector(k) for k in range(dim)]
    bij = bracket(g, basis[i], basis[j])
    rows = [{} for _ in range(dim)]
    for s, t in product(range(dim), repeat=2):
        value = [bij[t] if r == s else Fraction(0) for r in range(dim)]
        if left and t == i:
            value = [v - w for v, w in zip(value, bracket(g, basis[s], basis[j]))]
        if right and t == j:
            value = [v - w for v, w in zip(value, bracket(g, basis[i], basis[s]))]
        for r, v in enumerate(value):
            if v:
                rows[r][s * dim + t] = v
    return [row for row in rows if row]


def test_leibniz_rows_are_the_touched_coordinates_only():
    b2, a3 = build_root_system("B", 2), build_root_system("A", 3)
    algebras = [
        extract_subalgebra(SubalgebraSpec(b2, psi)) for psi in (((1, 0), (2, 1)), ((1, 0), (-1, 0)), ((1, 0),))
    ] + [extract_subalgebra(SubalgebraSpec(a3, ((1, 0, 0), (1, 1, 0), (1, 1, 1))))]
    for g in algebras:
        for i, j in product(range(g.dim), repeat=2):
            for left, right in [(True, True), (True, False), (False, True)]:
                rows = dercalc._leibniz_rows(g, i, j, left, right, range(g.dim))
                assert all(rows), (i, j, left, right)
                live = [{u: c for u, c in row.items() if c} for row in rows]
                assert [row for row in live if row] == dense_leibniz_rows(g, i, j, left, right), (i, j)


@pytest.mark.parametrize("evaluator", [leibniz_violation, centroid_violation])
def test_sparse_evaluators_reject_wrong_shapes(b2_minimal, evaluator):
    g = b2_minimal
    for rows, cols in [(4, 3), (3, 4), (2, 2), (5, 5)]:
        with pytest.raises(ValueError, match="shape mismatch"):
            evaluator(g, MatQ(rows, cols, {}))


@pytest.mark.parametrize("step", [aid_precondition, aid_membership])
def test_aid_steps_reject_wrong_shapes(b2_minimal, step):
    # a 5x5 or 4x3 D used to pass the precondition with zero scalars, and a
    # 2x2 one raised IndexError
    g = b2_minimal
    for rows, cols in [(5, 5), (4, 3), (2, 2)]:
        with pytest.raises(ValueError, match="shape mismatch"):
            step(g, MatQ(rows, cols, {}))


def test_aid_membership_checks_leibniz_once(b2_minimal, monkeypatch):
    g = b2_minimal
    calls = []
    real = dercalc.leibniz_violation

    def counting(g, d):
        calls.append(d)
        return real(g, d)

    monkeypatch.setattr(dercalc, "leibniz_violation", counting)
    # an ad(z) candidate is decided by the solve alone; a non-inner one is
    # checked for Leibniz once
    assert aid_membership(g, g.ad(g.basis_vector(2))).is_inner and calls == []
    bad = MatQ(4, 4, {12: 1})  # h_1 -> x_2
    assert aid_membership(g, bad).status == "not-derivation" and calls == [bad]


# ---------------------------------------------------------------------------
# the sparse almost-inner steps and product against the dense ones they replaced
# ---------------------------------------------------------------------------


def test_aid_steps_and_products_match_dense_reference():
    # the one solve of ad(z) = D reaches the verdicts and witnesses of the
    # three-step reference: on the root-vector columns it always pivots, so
    # its free variables are the dependent torus columns of the scalar system
    rng = random.Random(11)
    statuses = set()
    for name, g in _differential_algebras():
        prev = MatQ.identity(g.dim)
        for d in _differential_matrices(g, rng):
            verdict = aid_membership(g, d)
            want = dercalc_reference.aid_membership(g, d)
            got = (verdict.status, verdict.witness, verdict.reason)
            assert got == (want.status, want.witness, want.reason), (name, d)
            if verdict.status == "not-derivation" or verdict.reason == "precondition":
                assert verdict.data == want.data, (name, d)
            elif verdict.reason == "scalar-system":
                assert verdict.data == {"fails_at": want.data["fails_at"]}, (name, d)
            statuses.add((verdict.status, verdict.reason))
            ok, data = aid_precondition(g, d)
            want_ok, want_data = dercalc_reference.aid_precondition(g, d)
            assert ok == want_ok and (ok or data == want_data), (name, d)
            for a, b in [(d, d), (d, prev), (prev, d)]:
                assert a.mul(b) == dercalc_reference.mul(a, b), (name, a, b)
            prev = d
    # every verdict occurred
    assert statuses == {
        ("inner", None),
        ("not-aid", "precondition"),
        ("not-aid", "scalar-system"),
        ("not-derivation", None),
    }


def test_sparse_product_matches_dense_reference_on_rectangles():
    rng = random.Random(3)

    def draw(rows, cols, density):
        return MatQ(rows, cols, dict(enumerate(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
            for _ in range(rows * cols)
        )))

    for rows, inner, cols in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (2, 5, 3), (4, 3, 6)]:
        for density in (1.0, 0.3, 0.0):
            a, b = draw(rows, inner, density), draw(inner, cols, density)
            assert a.mul(b) == dercalc_reference.mul(a, b)
    with pytest.raises(ValueError, match="shape mismatch"):
        MatQ(2, 3, {}).mul(MatQ(2, 3, {}))


def test_equal_products_compare_equal():
    # the centroid commutator check skips a pair when ab == ba
    a = MatQ.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    b = MatQ.from_rows([[3, 0, 0], [0, 0, 0], [0, 0, 5]])
    ab, ba = a.mul(b), b.mul(a)
    assert ab == ba


# ---------------------------------------------------------------------------
# the weight-graded solves and evaluators against the full dim^2 oracle
# ---------------------------------------------------------------------------

RANK_AT_MOST_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]


def _closed_sets(rs, rng, count):
    """Seeded closed subsets: the closure of a few random roots under root addition."""
    for _ in range(count):
        psi = set(rng.sample(rs.roots, rng.randint(1, rs.rank + 1)))
        while True:
            sums = {tuple(map(sum, zip(a, b))) for a in psi for b in psi} & set(rs.roots)
            if sums <= psi:
                break
            psi |= sums
        yield tuple(psi)


@pytest.mark.parametrize("family,rank", RANK_AT_MOST_4)
def test_graded_solves_match_the_full_solve(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(f"{family}{rank}")
    for psi in [rs.roots, rs.positive_roots, *_closed_sets(rs, rng, 2)]:
        g = extract_subalgebra(SubalgebraSpec(rs, psi))
        assert derivation_space(g) == dercalc_reference.derivation_space(g), psi
        assert centroid_space(g) == dercalc_reference.centroid_space(g), psi


def _mixed_weight_matrices(g, rng):
    """Seeded sparse matrices: derivations, sums of derivations of different
    weights, and such sums with a few entries moved, in one or mixed weights."""
    n = g.dim * g.dim
    ads = [dense(g.ad(g.basis_vector(k))) for k in range(g.dim)]
    for _ in range(12):
        picks = rng.sample(ads, min(len(ads), rng.randint(1, 3)))
        entries = [sum(m.entries[u] * rng.randint(1, 3) for m in picks) for u in range(n)]
        yield MatQ(g.dim, g.dim, dict(enumerate(Fraction(x) for x in entries)))
        for _ in range(rng.randint(1, 3)):
            entries[rng.randrange(n)] += rng.choice([-1, 1])
        yield MatQ(g.dim, g.dim, dict(enumerate(Fraction(x) for x in entries)))
    for _ in range(6):
        entries = [Fraction(0)] * n
        for u in rng.sample(range(n), rng.randint(1, 4)):
            entries[u] = Fraction(rng.randint(-3, 3))
        yield MatQ(g.dim, g.dim, dict(enumerate(entries)))


def _evaluator_algebras():
    yield from _differential_algebras()
    for family, rank, psi in [("B", 3, "all"), ("G", 2, "positive"), ("A", 3, "all")]:
        rs = build_root_system(family, rank)
        yield f"{family}{rank}-{psi}", extract_subalgebra(SubalgebraSpec(rs, rs.roots if psi == "all" else rs.positive_roots))


def test_graded_evaluators_find_the_first_pair_of_the_full_rows():
    # the matrix units E_0c, one nonzero column each, then mixed weights
    rng = random.Random(13)
    outcomes = {"leibniz": set(), "centroid": set()}
    for name, g in _evaluator_algebras():
        units = [MatQ(g.dim, g.dim, {c: Fraction(1)}) for c in range(g.dim)]
        for d in [*units, *_mixed_weight_matrices(g, rng)]:
            for key, graded, full in [
                ("leibniz", leibniz_violation, dercalc_reference.leibniz_violation_rows),
                ("centroid", centroid_violation, dercalc_reference.centroid_violation_rows),
            ]:
                got = graded(g, d)
                assert got == full(g, d), (name, key, d)
                outcomes[key].add(got is None)
    assert outcomes == {"leibniz": {True, False}, "centroid": {True, False}}


def _graded_algebra(structure, torus=1, dim=3):
    return LieAlgebra(dim=dim, labels=tuple(f"b{i}" for i in range(dim)), structure=structure, form=None, torus=torus)


def test_weights_are_the_torus_eigenvalues():
    rs = build_root_system("B", 2)
    g = extract_subalgebra(SubalgebraSpec(rs, rs.roots))
    assert g.weights[: g.torus] == ((0, 0), (0, 0))
    for k, root in enumerate(SubalgebraSpec(rs, rs.roots).psi):
        assert g.weights[g.torus + k] == tuple(rs.pairing(root, j) for j in range(rs.rank))
    # the tests' hand-built algebras carry the trivial grading
    assert abelian_algebra(3).weights == ((), (), ())
    toral = diagonal_toral_algebra([[2, -1], [-1, 2], [1, 1]])
    assert toral.weights == ((0, 0), (0, 0), (2, -1), (-1, 2), (1, 1))


@pytest.mark.parametrize(
    "structure,torus,message",
    [
        # [x, y] = h, though x and y both have weight 1
        ({(0, 1): ((1, Fraction(1)),), (0, 2): ((2, Fraction(1)),), (1, 2): ((0, Fraction(1)),)}, 1, "not homogeneous"),
        # h sends x to y
        ({(0, 1): ((2, Fraction(1)),)}, 1, "does not act diagonally"),
        # h_1 scales h_2: a torus that is not abelian does not act diagonally on itself
        ({(0, 1): ((1, Fraction(1)),)}, 2, "b1 does not act diagonally on b0"),
    ],
)
def test_the_grading_check_raises(structure, torus, message):
    g = _graded_algebra(structure, torus)
    with pytest.raises(ValueError, match=message):
        g.weights
    # a solve that raises keeps nothing, so a second call raises again
    for space in (derivation_space, derivation_space, centroid_space, centroid_space):
        with pytest.raises(ValueError, match=message):
            space(g)


def test_the_grading_check_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from liecert.chevalley import LieAlgebra

        assert False, "asserts must be off for this check"
        structure = {(0, 1): ((1, Fraction(1)),), (0, 2): ((2, Fraction(1)),), (1, 2): ((0, Fraction(1)),)}
        g = LieAlgebra(dim=3, labels=("h", "x", "y"), structure=structure, form=None, torus=1)
        try:
            g.weights
        except ValueError as exc:
            print("raised:", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[x, y] is not homogeneous" in proc.stdout


# ---------------------------------------------------------------------------
# classical facts
# ---------------------------------------------------------------------------


def test_e6_derivations_are_inner_and_its_centroid_is_the_scalars():
    rs = build_root_system("E", 6)
    g = extract_subalgebra(SubalgebraSpec(rs, rs.roots))
    basis = derivation_space(g)
    assert basis.dim_der == basis.dim_inn == g.dim == 78
    assert basis.complement_basis == ()
    cent = centroid_space(g)
    assert cent.basis == (MatQ.identity(78),)


@pytest.mark.parametrize("family,rank", RANK_AT_MOST_4)
def test_borel_derivations_are_inner(family, rank):
    # a Borel subalgebra of a split simple Lie algebra has only inner
    # derivations and no center (Tolpygo 1972)
    rs = build_root_system(family, rank)
    g = extract_subalgebra(SubalgebraSpec(rs, rs.positive_roots))
    basis = derivation_space(g)
    assert basis.dim_der == basis.dim_inn == g.dim == rank + len(rs.positive_roots)

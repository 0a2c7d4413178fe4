"""Chevalley construction: Jacobi scans, constant magnitudes, Killing form,
subalgebra extraction and the torus weights read off its table."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from liecert.chevalley import (
    LieAlgebra,
    SubalgebraSpec,
    build_semisimple,
    extract_subalgebra,
    normal_form,
)
from liecert.exact import MatQ, inverse, solve
from liecert.qgraded import enumerate_minimal
from liecert.rootsys import build_root_system
from chevalley_reference import build_semisimple as reference_semisimple
from chevalley_reference import is_normal_form, killing_form, torus_reference
from exact_reference import dense, rref


def jacobi_violations(g: LieAlgebra):
    out = []
    for i in range(g.dim):
        bi = g.basis_vector(i)
        for j in range(i + 1, g.dim):
            bj = g.basis_vector(j)
            for k in range(j + 1, g.dim):
                bk = g.basis_vector(k)
                total = [
                    a + b + c
                    for a, b, c in zip(
                        g.bracket(g.bracket(bi, bj), bk),
                        g.bracket(g.bracket(bj, bk), bi),
                        g.bracket(g.bracket(bk, bi), bj),
                    )
                ]
                if any(total):
                    out.append((i, j, k))
    return out


def naive_trace_form_entry(g: LieAlgebra, i, j):
    """Oracle: dense trace of ad(b_i) ad(b_j) via full matrix products."""
    a = dense(g.ad(g.basis_vector(i))).to_rows()
    b = dense(g.ad(g.basis_vector(j))).to_rows()
    return sum(a[r][k] * b[k][r] for r in range(g.dim) for k in range(g.dim))


@pytest.fixture(scope="module")
def b2():
    rs = build_root_system("B", 2)
    return rs, build_semisimple(rs)


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    return rs, build_semisimple(rs)


def test_dimensions(b2, a2):
    assert b2[1].dim == 10
    assert a2[1].dim == 8


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_jacobi_exhaustive(family, rank):
    rs = build_root_system(family, rank)
    g = build_semisimple(rs)
    assert jacobi_violations(g) == []


def test_bracket_antisymmetric_on_basis(b2):
    _, g = b2
    for i in range(g.dim):
        bi = g.basis_vector(i)
        assert not any(g.bracket(bi, bi))
        for j in range(g.dim):
            bj = g.basis_vector(j)
            lhs = g.bracket(bi, bj)
            rhs = g.bracket(bj, bi)
            assert all(x == -y for x, y in zip(lhs, rhs))


def test_torus_acts_by_pairing(b2):
    rs, g = b2
    l = rs.rank
    for r in rs.roots:
        j = l + rs.root_index[r]
        er = g.basis_vector(j)
        for i in range(l):
            img = g.bracket(g.basis_vector(i), er)
            expect = [Fraction(0)] * g.dim
            expect[j] = Fraction(rs.pairing(r, i))
            assert list(img) == expect


def test_constant_magnitude_matches_root_string_oracle():
    rs = build_root_system("G", 2)
    g = build_semisimple(rs)
    l = rs.rank
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s not in rs.root_index:
                continue
            img = g.bracket(g.basis_vector(l + rs.root_index[a]), g.basis_vector(l + rs.root_index[b]))
            coeff = img[l + rs.root_index[s]]
            # oracle: |N| = (largest p with b - p*a a root) + 1
            assert abs(coeff) == rs.string_down_length(b, a) + 1


def test_grading_of_brackets(b2):
    rs, g = b2
    l = rs.rank
    for a in rs.roots:
        for b in rs.roots:
            img = g.bracket(g.basis_vector(l + rs.root_index[a]), g.basis_vector(l + rs.root_index[b]))
            s = tuple(x + y for x, y in zip(a, b))
            for k, c in enumerate(img):
                if not c:
                    continue
                if any(s):
                    assert k == l + rs.root_index[s]
                else:
                    assert k < l  # opposite roots land in the torus


def test_killing_grading_zeros_and_oracle(b2):
    rs, g = b2
    form = g.form
    l = rs.rank
    # (e_a, e_b) = 0 unless a + b = 0; (h, e_a) = 0
    for a in rs.roots:
        ia = l + rs.root_index[a]
        for i in range(l):
            assert form.at(i, ia) == 0
        for b in rs.roots:
            ib = l + rs.root_index[b]
            if any(x + y for x, y in zip(a, b)):
                assert form.at(ia, ib) == 0
            else:
                assert form.at(ia, ib) != 0
    # spot-check entries against a dense trace oracle
    for i, j in [(0, 0), (0, 1), (2, 7), (3, 3), (1, 5)]:
        assert form.at(i, j) == naive_trace_form_entry(g, i, j)


def test_killing_classical_values_rank_one():
    # sl2: the trace form is 4 tr(xy) in the defining representation, so
    # (h, h) = 8 and (e, f) = 4 on the coroot/root-vector basis
    rs = build_root_system("A", 1)
    g = build_semisimple(rs)
    assert g.form.at(0, 0) == 8
    assert g.form.at(1, 2) == g.form.at(2, 1) == 4
    assert g.form.at(0, 1) == g.form.at(0, 2) == 0


def test_killing_nondegenerate_b2(b2):
    _, g = b2
    assert rref(g.form).rank == g.dim


def test_killing_invariance_random(b2):
    import random

    _, g = b2
    rng = random.Random(5)
    for _ in range(20):
        x, y, z = (
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim)) for _ in range(3)
        )
        assert g.form_value(g.bracket(x, y), z) == g.form_value(x, g.bracket(y, z))


def test_extract_b2_minimal(b2):
    rs, g = b2
    spec = SubalgebraSpec(rs, ((1, 0), (2, 1)))
    sub = extract_subalgebra(spec)
    assert sub.dim == 4
    assert normal_form(sub)
    # [h_i, x_j] = delta_ij x_j and [x_1, x_2] = 0
    for i in range(2):
        for j in range(2):
            img = sub.bracket(sub.basis_vector(i), sub.basis_vector(2 + j))
            expect = [Fraction(0)] * 4
            if i == j:
                expect[2 + j] = Fraction(1)
            assert list(img) == expect
    assert not any(sub.bracket(sub.basis_vector(2), sub.basis_vector(3)))
    # restricted form: root vectors pair to zero (no opposite pairs in Psi)
    for i in range(2, 4):
        for j in range(2, 4):
            assert sub.form.at(i, j) == 0
    # the torus is dual to Psi, and the reference dual torus pairs with it to delta_ij
    torus = torus_reference(g, spec)
    for i in range(2):
        for j in range(2):
            assert sub.weights[2 + i][j] == (1 if i == j else 0)
            hi = sub.basis_vector(i)
            assert sub.form_value(hi, torus.dual_torus[j]) == (1 if i == j else 0)
    assert torus.gram.is_symmetric()
    assert rref(torus.gram).rank == 2


def test_b2_minimal_gram_matches_dual_coxeter_normalisation(b2):
    # independent oracle: the trace form transported to the weight side is
    # the standard form divided by twice the dual Coxeter number (6 here),
    # so with the short root of squared norm 1 the Gram of {a, 2a+b} is
    # [[1/6, 1/6], [1/6, 1/3]]
    rs, g = b2
    torus = torus_reference(g, SubalgebraSpec(rs, ((1, 0), (2, 1))))
    assert dense(torus.gram).to_rows() == [
        [Fraction(1, 6), Fraction(1, 6)],
        [Fraction(1, 6), Fraction(1, 3)],
    ]


def test_extract_b2_positive_roots(b2):
    rs, g = b2
    spec = SubalgebraSpec(rs, ((1, 0), (0, 1), (1, 1), (2, 1)))
    sub = extract_subalgebra(spec)
    assert sub.dim == 6
    assert sub.torus == 2 and not normal_form(sub)  # |Psi| = 4 > 2


def test_extract_rejects_non_closed(b2):
    rs, g = b2
    with pytest.raises(ValueError, match=r"not closed"):
        extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (0, 1))))


def test_extract_rejects_non_closed_on_every_call(b2):
    # closure is checked outside the memo: a build made without the check
    # (as callers that decided closure do) leaves nothing that skips it
    rs, g = b2
    spec = SubalgebraSpec(rs, ((1, 0), (0, 1)))
    extract_subalgebra(spec, check_closed=False)
    for _ in range(3):
        with pytest.raises(ValueError, match=r"not closed"):
            extract_subalgebra(spec)


def test_equal_specs_share_one_extraction(b2):
    rs, g = b2
    first = extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (2, 1))))
    again = extract_subalgebra(SubalgebraSpec(rs, ((2, 1), (1, 0))))
    assert again is first
    other = extract_subalgebra(SubalgebraSpec(build_root_system("C", 3), ((1, 0, 0), (0, 1, 0), (1, 1, 0))))
    assert other is not first


def test_shared_extraction_is_read_only(b2):
    rs, g = b2
    sub = extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (2, 1))))
    assert sub.structure == dict(sub.structure)
    with pytest.raises(TypeError):
        sub.structure[(0, 1)] = ()
    with pytest.raises(TypeError):
        del sub.structure[next(iter(sub.structure))]
    with pytest.raises(AttributeError):
        sub.structure = {}


def test_memos_are_bounded():
    from liecert import chevalley, rootsys

    for memo in (chevalley._extract, chevalley._torus_form, chevalley._positive_pair_constants, rootsys._build_root_system):
        assert memo.cache_info().maxsize == 32


def test_per_type_data_is_built_on_first_use():
    from liecert import chevalley
    from liecert.rootsys import _build_root_system

    rs = _build_root_system.__wrapped__("B", 3)  # a fresh system, outside the memo
    assert "positive_roots" not in vars(rs)
    assert rs.positive_roots is rs.positive_roots
    assert rs.positive_roots == tuple(r for r in rs.roots if sum(r) > 0)
    kh = chevalley._torus_form(rs)
    assert chevalley._torus_form(rs) is kh and isinstance(kh, tuple) and all(isinstance(row, tuple) for row in kh)


def test_extract_opposite_pair(b2):
    # {a, -a} is closed; the bracket of the root vectors lands in the torus
    rs, g = b2
    sub = extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (-1, 0))))
    assert sub.dim == 4
    img = sub.bracket(sub.basis_vector(2), sub.basis_vector(3))
    assert any(img[:2]) and not any(img[2:])
    assert jacobi_violations(sub) == []


def test_extracted_subalgebra_jacobi(b2):
    rs, g = b2
    sub = extract_subalgebra(SubalgebraSpec(rs, ((1, 0), (2, 1))))
    assert jacobi_violations(sub) == []


def test_restricted_form_is_ambient_not_intrinsic(b2):
    # the attached form is the ambient Killing form restricted, not the
    # subalgebra's own (degenerate, solvable) trace form
    rs, g = b2
    spec = SubalgebraSpec(rs, ((1, 0), (2, 1)))
    sub = extract_subalgebra(spec)
    own = killing_form(sub)
    assert own != sub.form
    embedding = torus_reference(g, spec).torus_ambient
    for i in range(2):
        for j in range(2):
            assert sub.form.at(i, j) == g.form_value(embedding[i], embedding[j])


def test_spec_orders_psi_canonically():
    rs = build_root_system("B", 2)
    spec = SubalgebraSpec(rs, ((2, 1), (1, 0)))
    assert spec.psi == ((1, 0), (2, 1))
    with pytest.raises(ValueError, match="duplicate"):
        SubalgebraSpec(rs, ((1, 0), (1, 0)))


@pytest.mark.parametrize("family,rank", [("F", 4), ("D", 4), ("C", 3), ("B", 3)])
def test_constant_magnitudes_all_types(family, rank):
    # every nonzero root-root constant has magnitude p+1 (string oracle)
    rs = build_root_system(family, rank)
    g = build_semisimple(rs)
    l = rs.rank
    checked = 0
    for a in rs.positive_roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s not in rs.root_index:
                continue
            img = g.bracket(g.basis_vector(l + rs.root_index[a]), g.basis_vector(l + rs.root_index[b]))
            assert abs(img[l + rs.root_index[s]]) == rs.string_down_length(b, a) + 1
            checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)],
)
def test_closed_form_killing_equals_trace_form(family, rank):
    g = build_semisimple(build_root_system(family, rank))
    assert g.form == killing_form(g)


def dense_extract_reference(g: LieAlgebra, spec: SubalgebraSpec):
    """Oracle: the subalgebra found by dense algebra, bracket by bracket.

    Every bracket of basis vectors is computed in the ambient algebra and
    expressed in the subalgebra basis by a dense solve; the form entries are
    ambient form values.  Returns (structure, form, beta_of_h, dual, gram).
    """
    rs = spec.system
    l, m = rs.rank, len(spec.psi)
    dim, amb = l + m, g.dim
    unit = [[Fraction(1 if i == j else 0) for i in range(l)] for j in range(l)]
    pair_rows = [[Fraction(rs.pairing(beta, j)) for j in range(l)] for beta in spec.psi]
    torus = [tuple(u) for u in unit]
    if m == l and rref(MatQ.from_rows(pair_rows)).rank == l:
        torus = [tuple(solve(MatQ.from_rows(pair_rows), u)) for u in unit]
    basis = [tuple(t) + (Fraction(0),) * (amb - l) for t in torus]
    basis += [g.basis_vector(l + rs.root_index[beta]) for beta in spec.psi]
    bt = MatQ.from_rows([[basis[j][i] for j in range(dim)] for i in range(amb)])
    structure = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = g.bracket(basis[i], basis[j])
            if any(w):
                coords = solve(bt, w)
                assert coords is not None
                entry = tuple((k, c) for k, c in enumerate(coords) if c)
                if entry:
                    structure[(i, j)] = entry
    form_rows = [[g.form_value(basis[i], basis[j]) for j in range(dim)] for i in range(dim)]
    beta_of_h = MatQ.from_rows(
        [[sum(pair_rows[i][k] * torus[j][k] for k in range(l)) for j in range(l)] for i in range(m)]
    )
    torus_gram = MatQ.from_rows([row[:l] for row in form_rows[:l]])
    dual = gram = None
    if rref(torus_gram).rank == l:
        dual = tuple(tuple(solve(torus_gram, u)) + (Fraction(0),) * m for u in unit)
        tvecs = [solve(torus_gram, list(dense(beta_of_h).row(b))) for b in range(m)]
        gram = MatQ.from_rows(
            [[sum(beta_of_h.at(a, i) * tvecs[b][i] for i in range(l)) for b in range(m)] for a in range(m)]
        )
    return structure, MatQ.from_rows(form_rows), beta_of_h, dual, gram


def bipartite_psi(rs):
    """+alpha_i on one colour class of the Dynkin diagram, -alpha_i on the other."""
    l = rs.rank
    sign = [1] + [0] * (l - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(l):
            if j != i and rs.cartan[i][j] and not sign[j]:
                sign[j] = -sign[i]
                todo.append(j)
    return tuple(tuple(sign[i] if k == i else 0 for k in range(l)) for i in range(l))


def _differential_specs():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        specs = enumerate_minimal(rs)
        specs.append(SubalgebraSpec(rs, rs.positive_roots))
        if (family, rank) == ("B", 2):
            specs.append(SubalgebraSpec(rs, ((1, 0), (-1, 0))))
        if (family, rank) == ("A", 3):
            # square but dependent: the torus is the simple coroots
            specs.append(SubalgebraSpec(rs, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))
        yield pytest.param(rs, specs, id=f"{family}{rank}")
    for family, rank in [("B", 4), ("C", 4), ("D", 4), ("F", 4), ("E", 6)]:
        rs = build_root_system(family, rank)
        yield pytest.param(rs, [SubalgebraSpec(rs, bipartite_psi(rs))], id=f"{family}{rank}-bipartite")


def check_torus(sub: LieAlgebra, spec: SubalgebraSpec, beta_of_h: MatQ, dual, gram, torus_is_dual: bool):
    """The torus facts the algebra alone carries, against a reference: its
    root weights are ``beta_of_h``, ``normal_form`` is the r_2^l predicate
    of Psi, the reference dual torus pairs with H to delta_ij, and on a
    torus dual to Psi the form on H is the inverse of the Gram matrix."""
    l = sub.torus
    assert l == spec.system.rank, spec.psi
    assert MatQ.from_rows(sub.weights[l:]) == beta_of_h, spec.psi
    assert normal_form(sub) == is_normal_form(spec), spec.psi
    for i in range(l):
        for j in range(l):
            assert sub.form_value(sub.basis_vector(i), dual[j]) == (1 if i == j else 0), spec.psi
    if torus_is_dual:
        block = MatQ.from_rows([[sub.form.at(i, j) for j in range(l)] for i in range(l)])
        assert block == inverse(gram), spec.psi


@pytest.mark.parametrize("rs,specs", list(_differential_specs()))
def test_graded_extraction_matches_dense_reference(rs, specs):
    g = reference_semisimple(rs)
    for spec in specs:
        sub = extract_subalgebra(spec)
        structure, form, beta_of_h, dual, gram = dense_extract_reference(g, spec)
        assert list(sub.structure.items()) == list(structure.items()), spec.psi
        assert sub.form == form, spec.psi
        check_torus(sub, spec, beta_of_h, dual, gram, torus_reference(g, spec).torus_is_dual)


def ambient_extract_reference(g: LieAlgebra, spec: SubalgebraSpec) -> LieAlgebra:
    """Oracle: the subalgebra read out of the built ambient algebra ``g``.

    The brackets of the root vectors are the ambient structure constants
    re-indexed through Psi, the form entries are ambient form entries, and
    the torus is ``torus_reference``'s, with its form read off the ambient
    form on the torus vectors.
    """
    rs = spec.system
    l, m = rs.rank, len(spec.psi)
    ambient = [l + rs.root_index[beta] for beta in spec.psi]
    torus = torus_reference(g, spec)
    structure = {}
    for j in range(l):
        for b in range(m):
            if torus.beta_of_h.at(b, j):
                structure[(j, l + b)] = ((l + b, torus.beta_of_h.at(b, j)),)
    local = {beta: l + b for b, beta in enumerate(spec.psi)}
    for a in range(m):
        for b in range(a + 1, m):
            entry = g.bracket_basis(ambient[a], ambient[b])
            total = tuple(x + y for x, y in zip(spec.psi[a], spec.psi[b]))
            if entry and any(total):
                structure[(l + a, l + b)] = tuple((local[total], c) for _, c in entry)
            elif entry:
                structure[(l + a, l + b)] = entry
    zeros = [Fraction(0)] * m
    form_rows = [list(dense(torus.torus_block).row(i)) + zeros for i in range(l)]
    form_rows += [[Fraction(0)] * l + [g.form.at(ia, ib) for ib in ambient] for ia in ambient]
    labels = tuple(f"h{i + 1}" for i in range(l)) + tuple(f"x{i + 1}" for i in range(m))
    return LieAlgebra(dim=l + m, labels=labels, structure=structure, form=MatQ.from_rows(form_rows))


def _ambient_reference_specs():
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        specs = enumerate_minimal(rs) + [SubalgebraSpec(rs, rs.positive_roots)]
        if (family, rank) == ("B", 2):
            specs.append(SubalgebraSpec(rs, ((1, 0), (-1, 0))))
        if (family, rank) == ("A", 3):
            specs.append(SubalgebraSpec(rs, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))
        yield pytest.param(rs, specs, id=f"{family}{rank}")
    for family, rank in [("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2), ("E", 6), ("E", 7), ("E", 8)]:
        rs = build_root_system(family, rank)
        yield pytest.param(rs, [SubalgebraSpec(rs, bipartite_psi(rs))], id=f"{family}{rank}-bipartite")


@pytest.mark.parametrize("rs,specs", list(_ambient_reference_specs()))
def test_extraction_matches_the_ambient_algebra(rs, specs):
    g = reference_semisimple(rs)
    for spec in specs:
        sub = extract_subalgebra(spec)
        ref, torus = ambient_extract_reference(g, spec), torus_reference(g, spec)
        assert (sub.dim, sub.labels) == (ref.dim, ref.labels), spec.psi
        assert list(sub.structure.items()) == list(ref.structure.items()), spec.psi
        assert sub.form == ref.form, spec.psi
        check_torus(sub, spec, torus.beta_of_h, torus.dual_torus, torus.gram, torus.torus_is_dual)


AMBIENT_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(3, 7)]
    + [("D", r) for r in range(4, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", AMBIENT_TYPES, ids=[f"{f}{r}" for f, r in AMBIENT_TYPES])
def test_build_semisimple_matches_the_reference_builder(family, rank):
    rs = build_root_system(family, rank)
    g, ref = build_semisimple(rs), reference_semisimple(rs)
    assert (g.dim, g.labels) == (ref.dim, ref.labels)
    assert g.structure == ref.structure
    assert g.form == ref.form


def test_constant_magnitude_check_survives_python_O():
    """The Jacobi-derived constants are checked by explicit code, not an assert."""
    script = textwrap.dedent(
        """
        import sys
        from liecert.chevalley import build_semisimple
        from liecert.rootsys import RootSystem, build_root_system

        assert False, "asserts must be off for this check"
        rs = build_root_system("C", 3)
        down = RootSystem.string_down_length
        RootSystem.string_down_length = lambda self, b, a: down(self, b, a) + 1
        try:
            build_semisimple(rs)
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
    assert "structure constant for" in proc.stdout


def _bracket_from_structure(g: LieAlgebra, x, y):
    """Oracle: ``[x, y]`` read from ``structure`` (pairs ``i < j``) by antisymmetry."""
    out = [Fraction(0)] * g.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b and i != j:
                sign, key = (1, (i, j)) if i < j else (-1, (j, i))
                for k, c in g.structure.get(key, ()):
                    out[k] += sign * a * b * c
    return tuple(out)


def _ad_by_columns(g: LieAlgebra, x):
    """The column-by-column definition: column j of ad(x) is [x, e_j]."""
    cols = [_bracket_from_structure(g, x, g.basis_vector(j)) for j in range(g.dim)]
    return MatQ(g.dim, g.dim, dict(enumerate(cols[j][i] for i in range(g.dim) for j in range(g.dim))))


# the subalgebras of the golden documents (tests/golden), E8 bipartite included
GOLDEN_SUBALGEBRAS = [
    ("A", 4, "1,0,0,0;1,1,0,0;1,1,1,0;1,1,1,1"),
    ("A", 3, "1,0,0;1,1,0;1,1,1"),
    ("B", 2, "1,0;2,1"),
    ("B", 2, "1,0"),
    ("B", 2, "1,0;-1,0"),
    ("E", 6, "1,0,0,0,0,0;0,-1,0,0,0,0;0,0,-1,0,0,0;0,0,0,1,0,0;0,0,0,0,-1,0;0,0,0,0,0,1"),
    (
        "E",
        8,
        "1,0,0,0,0,0,0,0;0,-1,0,0,0,0,0,0;0,0,-1,0,0,0,0,0;0,0,0,1,0,0,0,0;"
        "0,0,0,0,-1,0,0,0;0,0,0,0,0,1,0,0;0,0,0,0,0,0,-1,0;0,0,0,0,0,0,0,1",
    ),
]


def _check_table(g: LieAlgebra, rng):
    for i in range(g.dim):
        assert g.bracket_basis(i, i) == ()
        for j in range(g.dim):
            assert g.bracket_basis(j, i) == tuple((k, -c) for k, c in g.bracket_basis(i, j))
    xs = [g.basis_vector(i) for i in range(g.dim)]
    xs += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.dim)) for _ in range(3)]
    xs += [tuple(rng.choice([0, 0, 1, -2]) for _ in range(g.dim))]  # plain ints, mostly zero
    for x in xs:
        ad = g.ad(x)
        assert ad == _ad_by_columns(g, x)
        assert all(type(v) is Fraction for v in dense(ad).entries)
        y = xs[rng.randrange(len(xs))]
        assert g.bracket(x, y) == _bracket_from_structure(g, x, y)


@pytest.mark.parametrize(
    "family,rank,psi",
    GOLDEN_SUBALGEBRAS,
    ids=["A4-chain", "A3-chain", "B2-minimal", "B2-nonminimal", "B2-opposite-pair", "E6-bipartite", "E8-bipartite"],
)
def test_ad_and_bracket_read_off_the_table(family, rank, psi):
    rs = build_root_system(family, rank)
    g = extract_subalgebra(SubalgebraSpec(rs, tuple(tuple(map(int, r.split(","))) for r in psi.split(";"))))
    _check_table(g, random.Random(97))


@pytest.mark.parametrize("family,rank", [("B", 2), ("G", 2)])
def test_ambient_ad_and_bracket_read_off_the_table(family, rank):
    _check_table(build_semisimple(build_root_system(family, rank)), random.Random(101))

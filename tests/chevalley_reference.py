"""Reference ambient algebra for the tests.

``build_semisimple`` is the direct construction that ``liecert.chevalley``
replaced by extraction over the whole root system: its own loops write every
bracket of the basis ``h_1..h_l, e_roots`` and the Killing form read off the
grading.  It shares the pair constants, coroots and torus form with the
package, which other tests check on their own (Jacobi scans, root-string
magnitudes, the trace form), so the extraction tests compare against an
ambient algebra that extraction did not build.

``bracket`` is ``[x, y]`` read from ``structure`` (pairs ``i < j``) by
antisymmetry, past the package's table; ``LieAlgebra.ad`` is checked against
it, and the Jacobi scans and dense oracles bracket with it.

``killing_form`` is the generic trace form ``tr(ad x . ad y)``, computed from
any bracket table; the closed-form Killing form of the package is checked
against it.

``torus_reference`` is the torus bookkeeping that extraction once returned
beside its algebra, read out of an ambient algebra: the torus embedding, the
weights ``beta_i(h_j)``, the Gram matrix and the dual torus.
``is_normal_form`` is the r_2^l predicate as it was decided from that
bookkeeping.  The extraction tests check the package's algebra against both.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

from liecert.chevalley import (
    LieAlgebra,
    SubalgebraSpec,
    _add,
    _coroot_vector,
    _neg,
    _opposite_pair_form,
    _positive_pair_constants,
    _torus_form,
)
from liecert.exact import MatQ, inverse
from liecert.rootsys import RootSystem


def bracket(g: LieAlgebra, x, y) -> tuple:
    """``[x, y]`` read from ``structure`` (pairs ``i < j``) by antisymmetry."""
    out = [Fraction(0)] * g.dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        for j, b in ys if a else ():
            if i != j:
                sign, key = (1, (i, j)) if i < j else (-1, (j, i))
                for k, c in g.structure.get(key, ()):
                    out[k] += sign * a * b * c
    return tuple(out)


def build_semisimple(rs: RootSystem) -> LieAlgebra:
    """The semisimple Lie algebra of ``rs`` with Chevalley structure constants.

    The Killing form is attached, read off the grading: ``_torus_form`` on
    the torus, ``(e_a, e_-a) = (h_a, h_a)/2`` on opposite root spaces, and
    every other entry is 0.
    """
    l = rs.rank
    roots = rs.roots
    dim = l + len(roots)
    labels = tuple(f"h{i + 1}" for i in range(l)) + tuple("e" + repr(list(r)).replace(" ", "") for r in roots)
    lookup = _positive_pair_constants(rs)
    pairing = [[rs.pairing(r, i) for i in range(l)] for r in roots]

    structure = {}

    # [h_i, e_r] = <r, alpha_i> e_r
    for a, row in enumerate(pairing):
        for i, c in enumerate(row):
            if c:
                structure[(i, l + a)] = ((l + a, Fraction(c)),)

    # root-root brackets, each unordered pair once
    coroots = [_coroot_vector(rs, r) for r in roots]
    for a, r in enumerate(roots):
        for b in range(a + 1, len(roots)):
            s = roots[b]
            total = _add(r, s)
            if not any(total):
                structure[(l + a, l + b)] = tuple((k, Fraction(c)) for k, c in enumerate(coroots[a]) if c)
            elif total in rs.root_index:
                structure[(l + a, l + b)] = ((l + rs.root_index[total], lookup(r, s)),)

    kh = _torus_form(rs)
    entries = [Fraction(0)] * (dim * dim)
    for i in range(l):
        for j in range(l):
            entries[i * dim + j] = Fraction(kh[i][j])
    for a, h in enumerate(coroots):
        entries[(l + a) * dim + l + rs.root_index[_neg(roots[a])]] = _opposite_pair_form(kh, h)
    form = MatQ(dim, dim, dict(enumerate(entries)))
    return LieAlgebra(dim=dim, labels=labels, structure=structure, form=form)


def killing_form(g: LieAlgebra) -> MatQ:
    """Trace form ``(x, y) = tr(ad x . ad y)`` computed from the constants."""
    dim = g.dim
    # sparse adjoint columns: ad_i[c] = [b_i, b_c]
    ad = [[g.bracket_basis(i, c) for c in range(dim)] for i in range(dim)]
    entries = [Fraction(0)] * (dim * dim)
    for i in range(dim):
        for j in range(i, dim):
            tr = Fraction(0)
            for c in range(dim):
                # coordinate c of ad_i(ad_j(b_c))
                for k, ckj in ad[j][c]:
                    for k2, c2 in ad[i][k]:
                        if k2 == c:
                            tr += ckj * c2
            entries[i * dim + j] = tr
            entries[j * dim + i] = tr
    return MatQ(dim, dim, dict(enumerate(entries)))


def _pairing(spec: SubalgebraSpec) -> MatQ:
    """``<beta_a, alpha_k^vee>``, one row per root of Psi."""
    rs = spec.system
    return MatQ.from_rows([[rs.pairing(beta, k) for k in range(rs.rank)] for beta in spec.psi])


def is_normal_form(spec: SubalgebraSpec) -> bool:
    """L is r_2^l: ``|Psi| = rank``, the pairing matrix is invertible (so the
    torus is chosen dual to Psi), and no two roots of Psi sum into Psi."""
    members = set(spec.psi)
    return (
        len(spec.psi) == spec.system.rank
        and inverse(_pairing(spec)) is not None
        and not any(tuple(x + y for x, y in zip(a, b)) in members for a, b in combinations(spec.psi, 2))
    )


def torus_reference(g: LieAlgebra, spec: SubalgebraSpec) -> SimpleNamespace:
    """The torus of the extraction of ``spec``, read out of its ambient
    algebra ``g`` (basis ``h_1..h_l, e_roots``).

    ``torus_is_dual``: the torus is chosen dual to Psi (``|Psi| = l`` and an
    invertible pairing matrix), else it is the simple coroots.
    ``torus_ambient``: the torus vectors in ambient coordinates.
    ``beta_of_h``: the m x l matrix ``beta_i(h_j)``.  ``torus_block``: the
    ambient form on the torus.  ``gram``: ``(beta_a, beta_b)``, dividing by
    the ambient ``(e_b, e_-b)``.  ``dual_torus``: the torus vectors h' with
    ``(h_i, h_j') = delta_ij``, in the subalgebra's coordinates.
    """
    rs = spec.system
    l, m = rs.rank, len(spec.psi)
    pair = _pairing(spec)
    coroots = [_coroot_vector(rs, beta) for beta in spec.psi]
    e_pairs = [g.form.at(l + rs.root_index[beta], l + rs.root_index[_neg(beta)]) for beta in spec.psi]
    gram = MatQ.from_rows(
        [
            [Fraction(sum(c * pair.at(a, k) for k, c in enumerate(hb) if c), eb) for hb, eb in zip(coroots, e_pairs)]
            for a in range(m)
        ]
    )
    pair_inv = inverse(pair) if m == l else None
    t = pair_inv if pair_inv is not None else MatQ.identity(l)
    torus_ambient = tuple(tuple(t.at(k, j) for k in range(l)) + (Fraction(0),) * (g.dim - l) for j in range(l))
    torus_block = MatQ.from_rows([[g.form_value(x, y) for y in torus_ambient] for x in torus_ambient])
    beta_of_h = pair.mul(t)
    dual = inverse(torus_block)
    dual_torus = tuple(tuple(dual.at(j, k) for k in range(l)) + (Fraction(0),) * m for j in range(l))
    return SimpleNamespace(
        torus_is_dual=pair_inv is not None,
        torus_ambient=torus_ambient,
        beta_of_h=beta_of_h,
        torus_block=torus_block,
        gram=gram,
        dual_torus=dual_torus,
    )

"""Reference ambient algebra for the tests.

``build_semisimple`` is the direct construction that ``liecert.chevalley``
replaced by extraction over the whole root system: its own loops write every
bracket of the basis ``h_1..h_l, e_roots`` and the Killing form read off the
grading.  It shares the pair constants, coroots and torus form with the
package, which other tests check on their own (Jacobi scans, root-string
magnitudes, the trace form), so the extraction tests compare against an
ambient algebra that extraction did not build.

``killing_form`` is the generic trace form ``tr(ad x . ad y)``, computed from
any bracket table; the closed-form Killing form of the package is checked
against it.
"""

from __future__ import annotations

from fractions import Fraction

from liecert.chevalley import (
    LieAlgebra,
    _add,
    _coroot_vector,
    _neg,
    _opposite_pair_form,
    _positive_pair_constants,
    _torus_form,
)
from liecert.exact import MatQ
from liecert.rootsys import RootSystem


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
    form = MatQ(dim, dim, tuple(entries))
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
    return MatQ(dim, dim, tuple(entries))

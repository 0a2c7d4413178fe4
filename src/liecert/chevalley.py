"""Semisimple Lie algebras over Q from root data, and their graded subalgebras.

The algebra is built on the basis ``h_1..h_l`` (simple coroots) followed by
one root vector per root in canonical order.  Structure constants
``N_{a,b} = +-(p+1)`` are fixed by the extraspecial-pair sign rule: order the
positive roots by (height, lex); for each non-simple positive root the pair
summing to it with the smallest first member gets the positive sign, and every
other constant is forced from those by the Jacobi identity.  The convention
identifier below is printed in every certificate, so tables from different
sign rules are never mixed.  The Killing form and every subalgebra table are
read off the root data (the Q-grading) rather than found by dense algebra.

Subalgebra extraction reads ``H + sum_{beta in Psi} L_beta`` straight off
the root data of Psi, without building the ambient algebra, and returns it
with its distinguished basis data: for an independent Psi with
``|Psi| = l`` the torus basis is chosen dual to Psi
(``beta_i(h_j) = delta_ij``), the dual torus satisfies ``(h_i, h_j') =
delta_ij`` for the restricted Killing form, and the Gram matrix holds
``(beta_i, beta_j)``; all are closed forms in the root data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import MatQ, Rat, inverse
from .rootsys import Root, RootSystem, height

__all__ = [
    "CONVENTION",
    "LieAlgebra",
    "SubalgebraSpec",
    "DistinguishedBasis",
    "build_semisimple",
    "killing_form",
    "extract_subalgebra",
    "closure_violation",
]

CONVENTION = "extraspecial-positive-v1"

Vec = tuple[Rat, ...]
SparseVec = tuple[tuple[int, Rat], ...]


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Finite-dimensional Lie algebra given by exact structure constants.

    ``structure`` maps basis pairs ``(i, j)`` with ``i < j`` to the sparse
    coordinates of ``[b_i, b_j]``; the bracket extends by antisymmetry.
    ``form`` is an invariant symmetric bilinear form when present (for
    subalgebras: the ambient Killing form restricted).
    """

    dim: int
    labels: tuple[str, ...]
    structure: dict[tuple[int, int], SparseVec] = field(repr=False)
    form: MatQ | None = None

    def __post_init__(self):
        # the antisymmetric table, built once: _table[i][j] = [b_i, b_j]
        table: list[dict[int, SparseVec]] = [{} for _ in range(self.dim)]
        for (i, j), entry in self.structure.items():
            table[i][j] = entry
            table[j][i] = tuple((k, -c) for k, c in entry)
        object.__setattr__(self, "_table", table)

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        return self._table[i].get(j, ())

    def bracket(self, x: Vec, y: Vec) -> Vec:
        out = [Fraction(0)] * self.dim
        yj = [(j, c) for j, c in enumerate(y) if c]
        for i, a in enumerate(x):
            if a:
                row = self._table[i]
                for j, b in yj:
                    for k, c in row.get(j, ()):
                        out[k] += a * b * c
        return tuple(out)

    def ad(self, x: Vec) -> MatQ:
        """``ad(x)``, column j holding ``[x, b_j]``, summed over the table."""
        dim = self.dim
        out = [Fraction(0)] * (dim * dim)
        for i, a in enumerate(x):
            if a:
                for j, entry in self._table[i].items():
                    for k, c in entry:
                        out[k * dim + j] += a * c
        return MatQ(dim, dim, tuple(out))

    def basis_vector(self, i: int) -> Vec:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))

    def form_value(self, x: Vec, y: Vec) -> Rat:
        if self.form is None:
            raise ValueError("algebra carries no bilinear form")
        return sum(
            (a * self.form.at(i, j) * b for i, a in enumerate(x) if a for j, b in enumerate(y) if b),
            Fraction(0),
        )


@dataclass(frozen=True)
class SubalgebraSpec:
    """A subset Psi of the roots, designating ``H + sum of L_beta``."""

    system: RootSystem
    psi: tuple[Root, ...]

    def __post_init__(self):
        seen = []
        for r in self.psi:
            rr = self.system.check_root(r)
            if rr in seen:
                raise ValueError(f"duplicate root {rr} in Psi")
            seen.append(rr)
        object.__setattr__(self, "psi", tuple(sorted(seen, key=lambda r: (height(r), r))))

    def psi_coordinate_matrix(self) -> list[list[int]]:
        """Columns are the Psi coordinate vectors (rank x |Psi| integer matrix)."""
        l = self.system.rank
        return [[r[i] for r in self.psi] for i in range(l)]


@dataclass(frozen=True, eq=False)
class DistinguishedBasis:
    """Basis bookkeeping for an extracted subalgebra.

    Local coordinates refer to the subalgebra basis order
    ``(h_1..h_l, x_1..x_m)`` with ``x_i`` sitting over ``psi[i]``.
    """

    psi: tuple[Root, ...]
    torus_ambient: tuple[Vec, ...]
    beta_of_h: MatQ  # (i, j) -> beta_i(h_j), size m x l
    dual_torus_local: tuple[Vec, ...] | None  # (h_i, h_j') = delta_ij, local coords
    gram: MatQ | None  # (beta_i, beta_j) through the restricted form
    torus_is_dual: bool

    @property
    def l(self) -> int:
        return len(self.torus_ambient)

    @property
    def m(self) -> int:
        return len(self.psi)


def closure_violation(rs: RootSystem, psi: tuple[Root, ...]) -> tuple[Root, Root, Root] | None:
    """First pair (a, b) in Psi with a+b a root outside Psi, else None."""
    members = set(psi)
    for a in psi:
        for b in psi:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index and s not in members:
                return (a, b, s)
    return None


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def _neg(r: Root) -> Root:
    return tuple(-x for x in r)


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _positive_pair_constants(rs: RootSystem):
    """Lookup ``N_{x,y}`` for arbitrary signs, from a table of positive pairs."""
    pos = [r for r in rs.roots if height(r) > 0]  # already (height, lex)-sorted
    posset = set(pos)
    order = {r: k for k, r in enumerate(pos)}
    norm = {r: rs.inner(r, r) for r in rs.roots}
    npos: dict[tuple[Root, Root], Rat] = {}

    def put(a: Root, b: Root, val: Rat) -> None:
        npos[(a, b)] = val
        npos[(b, a)] = -val

    def nlook(x: Root, y: Root) -> Rat:
        """N_{x,y} for arbitrary signs, reduced to the positive table."""
        xp, yp = height(x) > 0, height(y) > 0
        if xp and yp:
            return npos[(x, y)]
        if not xp and not yp:
            return -nlook(_neg(x), _neg(y))
        if not xp:
            return -nlook(y, x)
        d = _add(x, y)
        # cyclic relations for x + y - d = 0, normalised by root norms
        if height(d) > 0:
            return -norm[d] / norm[x] * npos[(_neg(y), d)]
        return norm[d] / norm[y] * npos[(_neg(d), x)]

    for g in pos:
        if height(g) == 1:
            continue
        pairs = []
        for a in pos:
            if order[a] >= order[g]:
                break
            b = _sub(g, a)
            if b in posset and order[a] < order[b]:
                pairs.append((a, b))
        if not pairs:
            continue
        a1, b1 = pairs[0]  # extraspecial: minimal first member
        put(a1, b1, Fraction(rs.string_down_length(b1, a1) + 1))
        ngma1 = -npos[(a1, b1)] * norm[b1] / norm[g]  # N_{g, -a1}
        for a, b in pairs[1:]:
            t = Fraction(0)
            if _sub(a, a1) in rs.root_index:
                t += nlook(_neg(a1), a) * nlook(_sub(a, a1), b)
            if _sub(b, a1) in rs.root_index:
                t += nlook(b, _neg(a1)) * nlook(_sub(b, a1), a)
            val = -t / ngma1
            expected = rs.string_down_length(b, a) + 1
            if val.denominator != 1 or abs(val) != expected:
                raise AssertionError(f"structure constant for {a}+{b}={g} came out {val}, |.| should be {expected}")
            put(a, b, val)

    return nlook


def _coroot_vector(rs: RootSystem, alpha: Root) -> tuple[int, ...]:
    """Coordinates of the coroot h_alpha over the simple coroots h_1..h_l."""
    d = rs.symmetrizer
    dalpha = rs.inner(alpha, alpha) / 2
    coeffs = []
    for i, a in enumerate(alpha):
        c = a * d[i] / dalpha
        if c.denominator != 1:
            raise AssertionError(f"coroot of {alpha} has the non-integral coordinate {c}")
        coeffs.append(int(c))
    return tuple(coeffs)


def _torus_form(rs: RootSystem) -> list[list[int]]:
    """The Killing form on the simple coroots: ``(h_i, h_j)`` is the sum over
    the roots a of ``a(h_i) a(h_j)`` (Humphreys, section 8.3), twice the sum
    over the positive roots since a and -a give the same term."""
    l = rs.rank
    pairing = [[rs.pairing(r, i) for i in range(l)] for r in rs.positive_roots]
    return [[2 * sum(p[i] * p[j] for p in pairing) for j in range(l)] for i in range(l)]


def _opposite_pair_form(kh: list[list[int]], h: tuple[int, ...]) -> Rat:
    """``(e_a, e_-a) = (h_a, h_a) / 2`` by invariance, for the coroot
    coordinates h of a and the torus form kh."""
    return Fraction(sum(x * kh[i][j] * y for i, x in enumerate(h) if x for j, y in enumerate(h) if y), 2)


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

    structure: dict[tuple[int, int], SparseVec] = {}

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


def extract_subalgebra(spec: SubalgebraSpec, check_closed: bool = True) -> tuple[LieAlgebra, DistinguishedBasis]:
    """``H + sum_{beta in Psi} L_beta`` with the Killing form restricted to it.

    Requires Psi closed under root addition; ``check_closed=False`` skips
    that check for a caller that has already decided it.  Everything is read
    off the root data of ``spec.system``: the tables are those of the
    subalgebra of ``build_semisimple(spec.system)``, but no ambient algebra is
    built and nothing is solved.  When ``|Psi| = rank`` and Psi is linearly
    independent (it need not be a lattice basis), the torus basis is chosen
    dual to Psi; otherwise it is the simple coroots.

    ``[t, x_b] = beta_b(t) x_b``; ``[x_a, x_b]`` is ``N_{beta_a,beta_b}``
    times the root vector of ``beta_a + beta_b`` when that lies in Psi, the
    coroot ``h_{beta_a}`` when ``beta_a + beta_b = 0``, and 0 otherwise.  The
    form vanishes between the torus and the root spaces and between root
    spaces whose roots do not cancel; ``(e_b, e_-b) = (h_b, h_b)/2``.  The
    Gram matrix is ``(beta_a, beta_b) = <beta_a, beta_b^vee> / (e_b, e_-b)``,
    because ``(beta, beta) (h_beta, h_beta) = 4 = 2 (e_beta, e_-beta) (beta,
    beta)``.  On the dual torus the form is the inverse Gram matrix and the
    dual torus is the Gram matrix; on the coroot torus the form is
    ``_torus_form`` and the dual torus its inverse.
    """
    rs = spec.system
    violation = closure_violation(rs, spec.psi) if check_closed else None
    if violation is not None:
        a, b, s = violation
        raise ValueError(f"Psi is not closed under root addition: {a} + {b} = {s} is a root outside Psi")

    l, m = rs.rank, len(spec.psi)
    kh = _torus_form(rs)
    # pair[a][k] = <beta_a, alpha_k^vee>
    pair = [[Fraction(rs.pairing(beta, k)) for k in range(l)] for beta in spec.psi]
    coroots = [_coroot_vector(rs, beta) for beta in spec.psi]
    e_pairs = [_opposite_pair_form(kh, h) for h in coroots]  # (e_b, e_-b)
    gram = MatQ.from_rows(
        [[sum(c * row[k] for k, c in enumerate(hb) if c) / eb for hb, eb in zip(coroots, e_pairs)] for row in pair]
    )
    if not gram.is_symmetric():
        raise AssertionError(f"closed-form Gram matrix of Psi = {spec.psi} is not symmetric")

    pair_inv = inverse(MatQ.from_rows(pair)) if m == l else None
    torus_is_dual = pair_inv is not None
    # t_j = sum_k T[k][j] h_k with T = pair^-1 (the torus dual to Psi) or I
    # (the simple coroots), padded to the ambient basis h_1..h_l, e_roots
    t = pair_inv if torus_is_dual else MatQ.identity(l)
    pad = (Fraction(0),) * len(rs.roots)
    torus_ambient = tuple(tuple(t.at(k, j) for k in range(l)) + pad for j in range(l))
    if torus_is_dual:
        # beta_a(t_j) = delta_aj, so the form on H is gram^-1 and the dual torus is gram
        beta_of_h, torus_block, dual = MatQ.identity(l), inverse(gram), gram
        if torus_block is None:
            raise AssertionError(f"Gram matrix of the linearly independent Psi = {spec.psi} is singular")
    else:
        beta_of_h = MatQ.from_rows(pair)
        torus_block = MatQ.from_rows(kh)
        dual = inverse(torus_block)

    structure: dict[tuple[int, int], SparseVec] = {}
    for j in range(l):
        for b in range(m):
            c = beta_of_h.at(b, j)
            if c:
                structure[(j, l + b)] = ((l + b, c),)
    local = {beta: l + b for b, beta in enumerate(spec.psi)}
    opposite = [[not any(_add(a, b)) for b in spec.psi] for a in spec.psi]
    lookup = None  # the pair constants, built only when some sum lies in Psi
    for a in range(m):
        for b in range(a + 1, m):
            total = _add(spec.psi[a], spec.psi[b])
            if total in local:
                if lookup is None:
                    lookup = _positive_pair_constants(rs)
                structure[(l + a, l + b)] = ((local[total], lookup(spec.psi[a], spec.psi[b])),)
            elif opposite[a][b]:
                # the coroot: Psi holds a and -a, so it is not independent and
                # the torus basis is the simple coroots
                structure[(l + a, l + b)] = tuple((k, Fraction(c)) for k, c in enumerate(coroots[a]) if c)

    zeros = [Fraction(0)] * m
    form_rows = [list(torus_block.row(i)) + zeros for i in range(l)]
    form_rows += [[Fraction(0)] * l + [e_pairs[a] if opposite[a][b] else 0 for b in range(m)] for a in range(m)]
    form = MatQ.from_rows(form_rows)
    dual_torus_local = None if dual is None else tuple(dual.row(j) + tuple(zeros) for j in range(l))

    labels = tuple(f"h{i + 1}" for i in range(l)) + tuple(f"x{i + 1}" for i in range(m))
    sub = LieAlgebra(dim=l + m, labels=labels, structure=structure, form=form)
    info = DistinguishedBasis(
        psi=spec.psi,
        torus_ambient=torus_ambient,
        beta_of_h=beta_of_h,
        dual_torus_local=dual_torus_local,
        gram=gram,
        torus_is_dual=torus_is_dual,
    )
    return sub, info

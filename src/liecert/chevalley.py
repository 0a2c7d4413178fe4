"""Semisimple Lie algebras over Q from root data, and their graded subalgebras.

The algebra is built on the basis ``h_1..h_l`` (simple coroots) followed by
one root vector per root in canonical order.  Structure constants
``N_{a,b} = +-(p+1)`` are fixed by the extraspecial-pair sign rule: order the
positive roots by (height, lex); for each non-simple positive root the pair
summing to it with the smallest first member gets the positive sign, and every
other constant is forced from those by the Jacobi identity.  The convention
identifier below is stored in cache files so tables from different sign rules
are never mixed.

Subalgebra extraction returns the subalgebra together with its distinguished
basis data: for ``|Psi| = l`` the torus basis is chosen dual to Psi
(``beta_i(h_j) = delta_ij``), the dual torus satisfies ``(h_i, h_j') =
delta_ij`` for the restricted Killing form, and the Gram matrix holds
``(beta_i, beta_j)`` computed through the form.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import MatQ, Rat, rat_from_str, rat_to_str, rref, solve
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
    root_system: RootSystem | None = None

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        if i == j:
            return ()
        if i < j:
            return self.structure.get((i, j), ())
        return tuple((k, -c) for k, c in self.structure.get((j, i), ()))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        out = [Fraction(0)] * self.dim
        xi = [(i, c) for i, c in enumerate(x) if c]
        yj = [(j, c) for j, c in enumerate(y) if c]
        for i, a in xi:
            for j, b in yj:
                if i == j:
                    continue
                for k, c in self.bracket_basis(i, j):
                    out[k] += a * b * c
        return tuple(out)

    def ad(self, x: Vec) -> MatQ:
        cols = []
        for j in range(self.dim):
            basis = tuple(Fraction(1 if k == j else 0) for k in range(self.dim))
            cols.append(self.bracket(x, basis))
        return MatQ(self.dim, self.dim, tuple(cols[j][i] for i in range(self.dim) for j in range(self.dim)))

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
    """Constants N_{a,b} for positive pairs, plus a lookup for arbitrary signs."""
    pos = [r for r in rs.roots if height(r) > 0]  # already (height, lex)-sorted
    posset = set(pos)
    order = {r: k for k, r in enumerate(pos)}
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
            return -rs.inner(d, d) / rs.inner(x, x) * npos[(_neg(y), d)]
        return rs.inner(d, d) / rs.inner(y, y) * npos[(_neg(d), x)]

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
        ngma1 = -npos[(a1, b1)] * rs.inner(b1, b1) / rs.inner(g, g)  # N_{g, -a1}
        for a, b in pairs[1:]:
            t = Fraction(0)
            if _sub(a, a1) in rs.root_index:
                t += nlook(_neg(a1), a) * nlook(_sub(a, a1), b)
            if _sub(b, a1) in rs.root_index:
                t += nlook(b, _neg(a1)) * nlook(_sub(b, a1), a)
            val = -t / ngma1
            expected = rs.string_down_length(b, a) + 1
            assert val.denominator == 1 and abs(val) == expected, (
                f"structure constant for {a}+{b}={g} came out {val}, |.| should be {expected}"
            )
            put(a, b, val)

    return npos, nlook


def _coroot_vector(rs: RootSystem, alpha: Root) -> tuple[int, ...]:
    """Coordinates of the coroot h_alpha over the simple coroots h_1..h_l."""
    d = rs.symmetrizer
    dalpha = rs.inner(alpha, alpha) / 2
    coeffs = []
    for i, a in enumerate(alpha):
        c = Fraction(a) * d[i] / dalpha
        assert c.denominator == 1
        coeffs.append(int(c))
    return tuple(coeffs)


def build_semisimple(rs: RootSystem, cache_dir: str | None = None) -> LieAlgebra:
    """The semisimple Lie algebra of ``rs`` with Chevalley structure constants.

    The Killing form is attached.  With ``cache_dir`` the structure table is
    loaded from / stored to ``structure-{family}{rank}-{convention}.json``.
    """
    if cache_dir is not None:
        cached = _cache_load(rs, cache_dir)
        if cached is not None:
            return cached
    g = _build_semisimple_fresh(rs)
    if cache_dir is not None:
        _cache_store(g, cache_dir)
    return g


def _build_semisimple_fresh(rs: RootSystem) -> LieAlgebra:
    l = rs.rank
    dim = l + len(rs.roots)
    labels = tuple(f"h{i + 1}" for i in range(l)) + tuple("e" + repr(list(r)).replace(" ", "") for r in rs.roots)
    _, lookup = _positive_pair_constants(rs)

    structure: dict[tuple[int, int], SparseVec] = {}

    def eidx(r: Root) -> int:
        return l + rs.root_index[r]

    # [h_i, e_r] = <r, alpha_i> e_r
    for r in rs.roots:
        j = eidx(r)
        for i in range(l):
            c = rs.pairing(r, i)
            if c:
                structure[(i, j)] = ((j, Fraction(c)),)

    # root-root brackets
    for r in rs.roots:
        for s in rs.roots:
            i, j = eidx(r), eidx(s)
            if i >= j:
                continue
            total = _add(r, s)
            if all(x == 0 for x in total):
                coroot = _coroot_vector(rs, r)
                entry = tuple((k, Fraction(c)) for k, c in enumerate(coroot) if c)
                structure[(i, j)] = entry
            elif total in rs.root_index:
                n = lookup(r, s)
                structure[(i, j)] = ((eidx(total), n),)

    g = LieAlgebra(dim=dim, labels=labels, structure=structure, root_system=rs)
    form = killing_form(g)
    return LieAlgebra(dim=dim, labels=labels, structure=structure, form=form, root_system=rs)


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


def extract_subalgebra(g: LieAlgebra, spec: SubalgebraSpec) -> tuple[LieAlgebra, DistinguishedBasis]:
    """Cut ``H + sum_{beta in Psi} L_beta`` out of the ambient algebra.

    Requires Psi closed under root addition.  The result carries the ambient
    Killing form restricted to the subalgebra.  When ``|Psi| = rank`` and Psi
    is a lattice basis, the torus basis is chosen dual to Psi.
    """
    rs = spec.system
    if g.root_system is None or g.root_system.roots != rs.roots or g.root_system.family != rs.family:
        raise ValueError("ambient algebra does not match the spec's root system")
    violation = closure_violation(rs, spec.psi)
    if violation is not None:
        a, b, s = violation
        raise ValueError(f"Psi is not closed under root addition: {a} + {b} = {s} is a root outside Psi")
    if g.form is None:
        raise ValueError("ambient algebra must carry its Killing form")

    l, m = rs.rank, len(spec.psi)
    dim = l + m
    amb = g.dim

    # beta_i(h_j) over the simple coroots
    pair_rows = [[Fraction(rs.pairing(beta, j)) for j in range(l)] for beta in spec.psi]

    torus_local_on_coroots: list[Vec]
    torus_is_dual = False
    if m == l:
        mat = MatQ.from_rows(pair_rows)
        if rref(mat).rank == l:
            cols = []
            for j in range(l):
                target = [Fraction(1 if i == j else 0) for i in range(l)]
                sol = solve(mat, target)
                assert sol is not None
                cols.append(sol)
            torus_local_on_coroots = [tuple(c) for c in cols]
            torus_is_dual = True
    if not torus_is_dual:
        torus_local_on_coroots = [tuple(Fraction(1 if k == j else 0) for k in range(l)) for j in range(l)]

    def embed_torus(coeffs: Vec) -> Vec:
        return tuple(coeffs[i] if i < l else Fraction(0) for i in range(amb))

    torus_ambient = tuple(embed_torus(c) for c in torus_local_on_coroots)
    roots_ambient = tuple(g.basis_vector(l + rs.root_index[beta]) for beta in spec.psi)
    basis_vectors = list(torus_ambient) + list(roots_ambient)

    # express ambient vectors in the subalgebra basis: solve B^T c = w
    bt = MatQ.from_rows([[basis_vectors[j][i] for j in range(dim)] for i in range(amb)])

    def express(w: Vec) -> Vec:
        c = solve(bt, w)
        if c is None:
            raise AssertionError("bracket left the subalgebra; Psi closure check is broken")
        return c

    structure: dict[tuple[int, int], SparseVec] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = g.bracket(basis_vectors[i], basis_vectors[j])
            if any(w):
                coords = express(w)
                entry = tuple((k, c) for k, c in enumerate(coords) if c)
                if entry:
                    structure[(i, j)] = entry

    form_rows = [[g.form_value(basis_vectors[i], basis_vectors[j]) for j in range(dim)] for i in range(dim)]
    form = MatQ.from_rows(form_rows)

    # beta_i evaluated on the chosen torus basis
    beta_of_h_rows = [
        [sum(pair_rows[i][k] * torus_local_on_coroots[j][k] for k in range(l)) for j in range(l)]
        for i in range(m)
    ]
    beta_of_h = MatQ.from_rows(beta_of_h_rows)

    # dual torus and Gram matrix need the form restricted to H to be invertible
    torus_gram = MatQ.from_rows([row[:l] for row in form_rows[:l]])
    dual_torus_local: tuple[Vec, ...] | None = None
    gram: MatQ | None = None
    if rref(torus_gram).rank == l:
        duals = []
        for j in range(l):
            target = [Fraction(1 if i == j else 0) for i in range(l)]
            sol = solve(torus_gram, target)
            assert sol is not None
            duals.append(tuple(sol) + (Fraction(0),) * m)
        dual_torus_local = tuple(duals)
        # t_beta solves (h_i, t) = beta(h_i); gram[a][b] = beta_a(t_beta_b)
        tvecs = []
        for b in range(m):
            target = [beta_of_h.at(b, i) for i in range(l)]
            sol = solve(torus_gram, target)
            assert sol is not None
            tvecs.append(sol)
        gram_rows = [
            [sum(beta_of_h.at(a, i) * tvecs[b][i] for i in range(l)) for b in range(m)] for a in range(m)
        ]
        gram = MatQ.from_rows(gram_rows)

    labels = tuple(f"h{i + 1}" for i in range(l)) + tuple(f"x{i + 1}" for i in range(m))
    sub = LieAlgebra(dim=dim, labels=labels, structure=structure, form=form, root_system=None)
    info = DistinguishedBasis(
        psi=spec.psi,
        torus_ambient=torus_ambient,
        beta_of_h=beta_of_h,
        dual_torus_local=dual_torus_local,
        gram=gram,
        torus_is_dual=torus_is_dual,
    )
    return sub, info


# ---------------------------------------------------------------------------
# structure-table cache
# ---------------------------------------------------------------------------


def _cache_path(rs: RootSystem, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"structure-{rs.family}{rs.rank}-{CONVENTION}.json")


def _serialize(g: LieAlgebra) -> dict:
    rs = g.root_system
    assert rs is not None and g.form is not None
    brackets = {
        f"{i},{j}": [[k, rat_to_str(c)] for k, c in entry] for (i, j), entry in sorted(g.structure.items())
    }
    return {
        "schema": 1,
        "convention": CONVENTION,
        "family": rs.family,
        "rank": rs.rank,
        "dim": g.dim,
        "labels": list(g.labels),
        "brackets": brackets,
        "form": g.form.to_json(),
    }


def _deserialize(obj: dict, rs: RootSystem) -> LieAlgebra:
    structure: dict[tuple[int, int], SparseVec] = {}
    for key, entry in obj["brackets"].items():
        i, j = (int(x) for x in key.split(","))
        structure[(i, j)] = tuple((int(k), rat_from_str(c)) for k, c in entry)
    return LieAlgebra(
        dim=int(obj["dim"]),
        labels=tuple(obj["labels"]),
        structure=structure,
        form=MatQ.from_json(obj["form"]),
        root_system=rs,
    )


def _cache_load(rs: RootSystem, cache_dir: str) -> LieAlgebra | None:
    path = _cache_path(rs, cache_dir)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if (
            obj.get("schema") == 1
            and obj.get("convention") == CONVENTION
            and obj.get("family") == rs.family
            and obj.get("rank") == rs.rank
        ):
            return _deserialize(obj, rs)
        return None
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        import sys

        print(f"warning: ignoring corrupt structure cache {path}: {exc}", file=sys.stderr)
        return None


def _cache_store(g: LieAlgebra, cache_dir: str) -> None:
    rs = g.root_system
    assert rs is not None
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(rs, cache_dir)
    payload = json.dumps(_serialize(g), sort_keys=True, indent=1) + "\n"
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".structure-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

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
the root data of Psi, without building the ambient algebra, and returns one
``LieAlgebra``: for an independent Psi with ``|Psi| = l`` the torus basis is
chosen dual to Psi (``beta_i(h_j) = delta_ij``), and the form on it is the
inverse of the Gram matrix ``(beta_i, beta_j)``, a closed form in the root
data.  Everything a decision needs about the torus is in the bracket table:
``LieAlgebra.weights`` reads the weight ``beta_i(h_j)`` of each root vector
off it, and ``normal_form`` compares it with the table of r_2^l.  The
ambient algebra is the same construction at Psi = Phi: ``build_semisimple``
only relabels it, so brackets and form are written in one place.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from types import MappingProxyType

from .exact import _ZERO, MatQ, Rat, Solver, _ReadOnly, _Value, inverse
from .rootsys import Root, RootSystem, height

__all__ = [
    "CONVENTION",
    "LieAlgebra",
    "SubalgebraSpec",
    "build_semisimple",
    "extract_subalgebra",
    "normal_form",
    "closure_violation",
]

CONVENTION = "extraspecial-positive-v1"

Vec = tuple[Rat, ...]
SparseVec = tuple[tuple[int, Rat], ...]


class LieAlgebra(_ReadOnly):
    """Finite-dimensional Lie algebra given by exact structure constants.

    ``structure`` maps basis pairs ``(i, j)`` with ``i < j`` to the sparse
    coordinates of ``[b_i, b_j]``; the bracket extends by antisymmetry.  It
    is held as a read-only view of the mapping given, since an extracted
    algebra is shared by every caller in the process.  ``form`` is an
    invariant symmetric bilinear form when present (for subalgebras: the
    ambient Killing form restricted).  The first ``torus`` basis vectors
    span a torus H that grades the algebra (see ``weights``); 0 means no
    torus is known, and the grading is trivial.
    """

    def __init__(
        self,
        dim: int,
        labels: tuple[str, ...],
        structure: Mapping[tuple[int, int], SparseVec],
        form: MatQ | None = None,
        torus: int = 0,
    ):
        if not isinstance(structure, MappingProxyType):
            structure = MappingProxyType(structure)
        self.__dict__.update(dim=dim, labels=labels, structure=structure, form=form, torus=torus)

    @cached_property
    def _table(self) -> list[dict[int, SparseVec]]:
        # the antisymmetric table, built on first use: _table[i][j] = [b_i, b_j]
        table: list[dict[int, SparseVec]] = [{} for _ in range(self.dim)]
        for (i, j), entry in self.structure.items():
            table[i][j] = entry
            table[j][i] = tuple((k, -c) for k, c in entry)
        return table

    @cached_property
    def weights(self) -> tuple[tuple[Rat | int, ...], ...]:
        """The H-weight of each basis vector: ``weights[k][j]`` is the
        eigenvalue of the torus vector b_j on b_k, an int when it is integral
        so that weight sums stay cheap.  Read off the bracket table, with
        explicit checks that run under ``python -O`` too: the torus acts
        diagonally on the basis, and every bracket is homogeneous,
        ``[b_i, b_j]`` lying in weight ``weights[i] + weights[j]``.  Otherwise
        ValueError.  Acting diagonally on itself makes the torus abelian:
        ``[h_i, h_j] = c h_j`` and ``[h_j, h_i] = -c h_j`` force c = 0."""
        l, table, labels = self.torus, self._table, self.labels
        weights = []
        for k in range(self.dim):
            weight = []
            for j in range(l):
                entry = table[j].get(k, ())
                if len(entry) > 1 or (entry and entry[0][0] != k):
                    raise ValueError(f"the torus vector {labels[j]} does not act diagonally on {labels[k]}")
                c = entry[0][1] if entry else 0
                weight.append(c.numerator if c.denominator == 1 else c)
            weights.append(tuple(weight))
        for (i, j), entry in self.structure.items():
            weight = tuple(map(add, weights[i], weights[j]))
            if any(weights[k] != weight for k, _ in entry):
                raise ValueError(f"[{labels[i]}, {labels[j]}] is not homogeneous for the torus")
        return tuple(weights)

    @cached_property
    def _pairs_by_column(self) -> tuple[tuple[int, ...], ...]:
        """For each basis column c, the pairs ``i <= j`` whose Leibniz rows
        read column c of a map D (c is i, j or in the support of
        ``[b_i, b_j]``), each as ``i * dim + j``, ascending.  Built on first
        use and kept with the algebra; a pair is listed under i, j and its
        bracket's support, so a few entries per pair (256 on the A8 chain)."""
        dim, table = self.dim, self._table
        index: list[list[int]] = [[] for _ in range(dim)]
        for i in range(dim):
            row = table[i]
            for j in range(i, dim):
                for c in {i, j}.union(k for k, _ in row.get(j, ())):
                    index[c].append(i * dim + j)
        return tuple(map(tuple, index))

    @cached_property
    def torus_solver(self) -> Solver:
        """The weights of the basis vectors past the torus, the
        ``(dim - torus) x torus`` matrix ``beta_i(h_j)``, factored once:
        ``torus_solver.solve(a)`` is the torus vector h with
        ``beta_i(h) = a_i`` that ``solve`` gives on that matrix, or None."""
        rows = self.weights[self.torus :]
        return Solver(MatQ.from_rows(rows) if rows else MatQ(0, self.torus, {}))

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
        out: dict[int, Rat] = {}
        for i, a in enumerate(x):
            if a:
                for j, entry in self._table[i].items():
                    for k, c in entry:
                        u = k * dim + j
                        out[u] = out.get(u, 0) + a * c
        return MatQ(dim, dim, out)

    def basis_vector(self, i: int) -> Vec:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))

    def form_value(self, x: Vec, y: Vec) -> Rat:
        """``(x, y)``, summed over the nonzeros of the form."""
        if self.form is None:
            raise ValueError("algebra carries no bilinear form")
        dim, out = self.dim, _ZERO
        for u, f in self.form.nonzeros.items():
            a, b = x[u // dim], y[u % dim]
            if a and b:
                out += a * f * b
        return out


class SubalgebraSpec(_Value):
    """A subset Psi of the roots, designating ``H + sum of L_beta``; Psi is
    kept sorted by (height, lex), so specs with equal sets compare equal."""

    def __init__(self, system: RootSystem, psi: tuple[Root, ...]):
        seen = []
        for r in psi:
            rr = system.check_root(r)
            if rr in seen:
                raise ValueError(f"duplicate root {rr} in Psi")
            seen.append(rr)
        self.__dict__.update(system=system, psi=tuple(sorted(seen, key=lambda r: (height(r), r))))


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


@lru_cache(maxsize=32)
def _positive_pair_constants(rs: RootSystem):
    """Lookup ``N_{x,y}`` for arbitrary signs, from a table of positive pairs;
    built once per root system, like the system itself."""
    pos = rs.positive_roots  # already (height, lex)-sorted
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


@lru_cache(maxsize=32)
def _torus_form(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The Killing form on the simple coroots: ``(h_i, h_j)`` is the sum over
    the roots a of ``a(h_i) a(h_j)`` (Humphreys, section 8.3), twice the sum
    over the positive roots since a and -a give the same term.  Built once
    per root system."""
    l = rs.rank
    pairing = [[rs.pairing(r, i) for i in range(l)] for r in rs.positive_roots]
    return tuple(tuple(2 * sum(p[i] * p[j] for p in pairing) for j in range(l)) for i in range(l))


def _opposite_pair_form(kh: tuple[tuple[int, ...], ...], h: tuple[int, ...]) -> Rat:
    """``(e_a, e_-a) = (h_a, h_a) / 2`` by invariance, for the coroot
    coordinates h of a and the torus form kh."""
    return Fraction(sum(x * kh[i][j] * y for i, x in enumerate(h) if x for j, y in enumerate(h) if y), 2)


def build_semisimple(rs: RootSystem) -> LieAlgebra:
    """The semisimple Lie algebra of ``rs`` with Chevalley structure constants
    and its Killing form: the extraction over all of Phi (whose torus is the
    simple coroots), on the basis labelled ``h1..hl`` and ``e[root]``."""
    g = extract_subalgebra(SubalgebraSpec(rs, rs.roots), check_closed=False)
    labels = g.labels[: rs.rank] + tuple("e" + repr(list(r)).replace(" ", "") for r in rs.roots)
    return LieAlgebra(dim=g.dim, labels=labels, structure=g.structure, form=g.form, torus=g.torus)


def extract_subalgebra(spec: SubalgebraSpec, check_closed: bool = True) -> LieAlgebra:
    """``H + sum_{beta in Psi} L_beta`` with the Killing form restricted to it.

    Requires Psi closed under root addition; ``check_closed=False`` skips
    that check for a caller that has already decided it.  The check runs on
    every call, so a Psi that is not closed raises every time.  The
    construction itself is built once per process for each spec (equal
    specs name the same system and the same sorted Psi) and kept in a memo
    of at most 32 entries, least recently used first out; the returned
    algebra is shared and read-only.  The largest entry is the
    extraction over all of Phi(E8), 4.3 MB under tracemalloc once its
    bracket table is built, so the memo holds at most about 140 MB.
    """
    if check_closed:
        violation = closure_violation(spec.system, spec.psi)
        if violation is not None:
            a, b, s = violation
            raise ValueError(f"Psi is not closed under root addition: {a} + {b} = {s} is a root outside Psi")
    return _extract(spec)


@lru_cache(maxsize=32)
def _extract(spec: SubalgebraSpec) -> LieAlgebra:
    """The construction behind :func:`extract_subalgebra`.

    Everything is read off the root data of ``spec.system``; no ambient
    algebra is built and nothing is solved.  When ``|Psi| = rank`` and Psi
    is linearly independent (it need not be a lattice basis), the torus
    basis is chosen dual to Psi; otherwise it is the simple coroots.

    ``[t, x_b] = beta_b(t) x_b``; ``[x_a, x_b]`` is ``N_{beta_a,beta_b}``
    times the root vector of ``beta_a + beta_b`` when that lies in Psi, the
    coroot ``h_{beta_a}`` when ``beta_a + beta_b = 0``, and 0 otherwise.  The
    form vanishes between the torus and the root spaces and between root
    spaces whose roots do not cancel; ``(e_b, e_-b) = (h_b, h_b)/2``.  The
    Gram matrix is ``(beta_a, beta_b) = <beta_a, beta_b^vee> / (e_b, e_-b)``,
    because ``(beta, beta) (h_beta, h_beta) = 4 = 2 (e_beta, e_-beta) (beta,
    beta)``.  The Gram matrix is built only on the dual torus, where the form
    on H is its inverse; on the coroot torus the form on H is ``_torus_form``.
    """
    rs = spec.system
    l, m = rs.rank, len(spec.psi)
    dim = l + m
    kh = _torus_form(rs)
    # pair[a][k] = <beta_a, alpha_k^vee>, an integer
    pair = [[rs.pairing(beta, k) for k in range(l)] for beta in spec.psi]
    coroots = [_coroot_vector(rs, beta) for beta in spec.psi]
    structure: dict[tuple[int, int], SparseVec] = {}
    if m == l and inverse(MatQ.from_rows(pair)) is not None:
        # the torus dual to Psi, t_j = sum_k (pair^-1)[k][j] h_k: beta_a(t_j) = delta_aj
        e_pairs = [_opposite_pair_form(kh, h) for h in coroots]  # (e_b, e_-b)
        gram = MatQ.from_rows(
            [[sum(c * row[k] for k, c in enumerate(hb) if c) / eb for hb, eb in zip(coroots, e_pairs)] for row in pair]
        )
        if not gram.is_symmetric():
            raise AssertionError(f"closed-form Gram matrix of Psi = {spec.psi} is not symmetric")
        # the form on H is gram^-1
        torus_block = inverse(gram)
        if torus_block is None:
            raise AssertionError(f"Gram matrix of the linearly independent Psi = {spec.psi} is singular")
        for j in range(l):
            structure[(j, l + j)] = ((l + j, Fraction(1)),)
    else:
        # the simple coroots: beta_b(h_j) = <beta_b, alpha_j^vee>
        torus_block = MatQ.from_rows(kh)
        for j in range(l):
            for b, row in enumerate(pair):
                if row[j]:
                    structure[(j, l + b)] = ((l + b, Fraction(row[j])),)
    local = {beta: l + b for b, beta in enumerate(spec.psi)}
    opposite = [local.get(_neg(beta)) for beta in spec.psi]  # the local index of -beta, if in Psi
    lookup = None  # the pair constants, built only when some sum lies in Psi
    for a in range(m):
        for b in range(a + 1, m):
            total = _add(spec.psi[a], spec.psi[b])
            if total in local:
                if lookup is None:
                    lookup = _positive_pair_constants(rs)
                structure[(l + a, l + b)] = ((local[total], lookup(spec.psi[a], spec.psi[b])),)
            elif opposite[a] == l + b:
                # the coroot: Psi holds a and -a, so it is not independent and
                # the torus basis is the simple coroots
                structure[(l + a, l + b)] = tuple((k, Fraction(c)) for k, c in enumerate(coroots[a]) if c)

    # entry (i, j) of the l x l torus block is entry i * dim + j of the form
    form = {u // l * dim + u % l: x for u, x in torus_block.nonzeros.items()}
    for a, b in enumerate(opposite):
        if b is not None:
            form[(l + a) * dim + b] = _opposite_pair_form(kh, coroots[a])

    labels = tuple(f"h{i + 1}" for i in range(l)) + tuple(f"x{i + 1}" for i in range(m))
    return LieAlgebra(dim=dim, labels=labels, structure=structure, form=MatQ(dim, dim, form), torus=l)


def normal_form(g: LieAlgebra) -> bool:
    """L is r_2^l: ``dim L = 2l`` for the torus size l, and the only
    brackets are ``[t_k, x_k] = x_k``.  On an extraction this says the torus
    is dual to Psi and no root sum lies in Psi."""
    l, structure = g.torus, g.structure
    return (
        g.dim == 2 * l
        and len(structure) == l
        and all(structure.get((k, l + k)) == ((l + k, 1),) for k in range(l))
    )

"""Derivations, centroids, and the exact almost-inner membership decision.

The Leibniz identity has one encoding, ``_leibniz_rows``: the sparse rows of
``D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j]`` over the unknowns of D.
``derivation_space`` and ``centroid_space`` solve them; ``leibniz_violation``
and ``centroid_violation`` evaluate them at one matrix, pair by pair.

The rows are built only where the torus weights match.  The torus H acts
diagonally on the basis (``LieAlgebra.weights``), so the unknown ``D[s][t]``
has weight ``wt(s) - wt(t)`` and the row of output coordinate r at the pair
(i, j) reads only unknowns of weight ``wt(r) - wt(i) - wt(j)``: the system
splits into one block per weight, and so does every derivation.  A
derivation D of weight gamma != 0 is inner: for h in H and x of weight
alpha, ``D[h, x] = [Dh, x] + [h, Dx]`` reads
``alpha(h) Dx = [Dh, x] + (alpha + gamma)(h) Dx``, so for a torus basis
vector h with ``gamma(h) != 0``, ``D = ad(-Dh / gamma(h))``.  Hence
``Der = Inn + Der_0``, and only the weight-0 block is solved.  A centroid
element C has weight 0, since ``[h, Cx] = C[h, x] = alpha(h) Cx``, so the
centroid is the kernel of the weight-0 block.  An algebra with no torus has
one weight, and its one block is the whole system.

A map D is almost inner iff ``D(x) in [x, L]`` for every single x, and
``Inn <= Aid <= Der``, so ``aid_membership`` decides in this order: (i) one
exact solve of ``ad(z) = D`` in the dim unknowns of z, whose solution is the
witness of "inner"; (ii) the Leibniz rows, as a D that is not a derivation
is not almost inner either; (iii) the torus precondition - ``D(h) in [h, L]``
for all torus h, which reduces to "no torus component" plus "each
root-coefficient functional is a scalar multiple of beta_i", where H is the
first ``g.torus`` basis vectors and ``beta_i(h_j)`` is
``g.weights[g.torus + i][j]``; (iv) the point ``x = sum x_i``, where one
exact solve of ``ad(x) y = D(x)`` must fail.  Where the root vectors
commute, ``[x, L]`` is the span of ``sum_i beta_i(h) x_i``, so a derivation
that passes (iii) and is not inner is refuted there; a point that does not
refute raises.

``verify_aid_eq_inn`` proves almost inner = inner on a minimal L, which is
r_2^l (``chevalley.normal_form``), from ``Der = Inn`` alone, as ``Inn <= Aid
<= Der``; its ``inner_all_inner`` follows.  Anything else raises.  Der and
the centroid are solved once per algebra and kept on it, for as long as it
lives (4.3 MB and 0.35 MB under tracemalloc over all of Phi(E8)).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import wraps
from itertools import combinations, combinations_with_replacement, product
from operator import add, sub

from .chevalley import LieAlgebra, SubalgebraSpec, extract_subalgebra, normal_form
from .exact import _ZERO, Echelon, MatQ, Rat, _Value, kernel_basis, solve
from .qgraded import is_minimal

__all__ = [
    "DerivationBasis",
    "CentroidBasis",
    "AidVerdict",
    "leibniz_violation",
    "centroid_violation",
    "derivation_space",
    "centroid_space",
    "aid_precondition",
    "aid_membership",
    "verify_aid_eq_inn",
    "AidEqInnCertificate",
    "diagonal_map",
    "diagonal_toral_algebra",
]

Vec = tuple[Rat, ...]


class DerivationBasis(_Value):
    def __init__(self, der_basis: tuple[MatQ, ...], inn_basis: tuple[MatQ, ...], complement_basis: tuple[MatQ, ...]):
        self.__dict__.update(der_basis=der_basis, inn_basis=inn_basis, complement_basis=complement_basis)

    @property
    def dim_der(self) -> int:
        return len(self.der_basis)

    @property
    def dim_inn(self) -> int:
        return len(self.inn_basis)


class CentroidBasis(_Value):
    def __init__(self, basis: tuple[MatQ, ...]):
        self.__dict__.update(basis=basis)


class AidVerdict(_Value):
    """status: "inner" | "not-aid" | "not-derivation".

    For "inner", ``witness`` is z with D = ad(z) exactly.  For "not-aid",
    ``reason`` is "precondition" (with the failing torus element) or
    "scalar-system" (with the element ``sum x_i`` at which the almost-inner
    condition fails, re-checked by an exact solve).
    """

    def __init__(self, status: str, witness: Vec | None = None, reason: str | None = None, data: dict | None = None):
        self.__dict__.update(status=status, witness=witness, reason=reason, data=data)

    @property
    def is_inner(self) -> bool:
        return self.status == "inner"


def _leibniz_rows(g: LieAlgebra, i: int, j: int, left: bool, right: bool, coords) -> list[dict[int, Rat]]:
    """Coordinates r in ``coords`` of ``D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j]``
    as sparse rows over the unknowns ``D[s][t]`` (column ``s * dim + t``), one
    per coordinate that gets a term; ``left`` and ``right`` select the last two
    terms.  Coordinate r reads only the unknowns of weight
    ``wt(r) - wt(i) - wt(j)``, as every bracket is homogeneous."""
    dim, table = g.dim, g._table
    rows: defaultdict[int, dict[int, Rat]] = defaultdict(dict)

    def add(r: int, unknown: int, c: Rat) -> None:
        row = rows[r]
        row[unknown] = row[unknown] + c if unknown in row else c

    for k, c in table[i].get(j, ()):
        for r in coords:
            add(r, r * dim + k, c)
    # D b_i = sum_s D[s][i] b_s, and likewise for b_j: only the s with a
    # nonzero table entry count, and [b_s, b_j] = -[b_j, b_s]
    if left:
        for s, entry in table[j].items():
            for r, c in entry:
                if r in coords:
                    add(r, s * dim + i, c)
    if right:
        for s, entry in table[i].items():
            for r, c in entry:
                if r in coords:
                    add(r, s * dim + j, -c)
    return [rows[r] for r in sorted(rows)]


def _weight_spaces(g: LieAlgebra) -> dict[tuple, list[int]]:
    """The basis indices of each weight, ascending."""
    spaces: defaultdict[tuple, list[int]] = defaultdict(list)
    for k, w in enumerate(g.weights):
        spaces[w].append(k)
    return spaces


def _graded_rows(g: LieAlgebra, pairs, sides, shifts):
    """``(i, j, rows)`` for each pair with rows to give: the Leibniz rows of
    each ``(left, right)`` in ``sides`` at the coordinates r whose weight
    ``wt(r) - wt(i) - wt(j)`` is in ``shifts``.  They are all the rows that
    read the weight components of D in ``shifts``."""
    weights, spaces = g.weights, _weight_spaces(g)
    for i, j in pairs:
        base = tuple(map(add, weights[i], weights[j]))
        coords = {r for shift in shifts for r in spaces.get(tuple(map(add, base, shift)), ())}
        if coords:
            yield i, j, [row for left, right in sides for row in _leibniz_rows(g, i, j, left, right, coords)]


def _weight_zero_kernel(g: LieAlgebra, pairs, sides) -> tuple[MatQ, ...]:
    """The weight-0 solutions of the Leibniz rows of ``sides`` at ``pairs``:
    the kernel over the unknowns ``D[s][t]`` with ``wt(s) = wt(t)``, one
    matrix per free column, ascending."""
    dim = g.dim
    unknowns = sorted(s * dim + t for space in _weight_spaces(g).values() for s in space for t in space)
    column = {u: n for n, u in enumerate(unknowns)}
    system = Echelon()
    for _, _, rows in _graded_rows(g, pairs, sides, [(0,) * g.torus]):
        for row in rows:
            system.add({column[u]: c for u, c in row.items()})
    return tuple(MatQ(dim, dim, dict(zip(unknowns, vec))) for vec in system.kernel(len(unknowns)))


def _first_violation(g: LieAlgebra, d: MatQ, ordered: bool, right: bool) -> tuple[int, int] | None:
    """First pair, ``i < j`` in ``combinations`` order or with ``ordered``
    every ``(i, j)`` in ``product`` order, whose ``left=True`` Leibniz rows do
    not vanish on ``d``.  Only the rows of D's own weights are evaluated: a
    row of any other weight reads only unknowns that are zero in D."""
    if (d.rows, d.cols) != (g.dim, g.dim):
        raise ValueError("shape mismatch")
    dim, weights, nz = g.dim, g.weights, d.nonzeros
    shifts = {tuple(map(sub, weights[u // dim], weights[u % dim])) for u in nz}
    pairs = product(range(dim), repeat=2) if ordered else combinations(range(dim), 2)
    for i, j, rows in _graded_rows(g, pairs, [(True, right)], shifts):
        for row in rows:
            if sum(c * nz[u] for u, c in row.items() if u in nz):
                return i, j
    return None


def leibniz_violation(g: LieAlgebra, d: MatQ) -> tuple[int, int] | None:
    """First basis pair ``i < j`` where D[x,y] != [Dx,y] + [x,Dy], else None:
    the rows ``derivation_space`` solves, evaluated at D."""
    return _first_violation(g, d, ordered=False, right=True)


def _per_algebra(solve):
    """``solve(g)``, kept in ``g.__dict__`` on the first call as
    ``cached_property`` keeps its values; a solve that raises keeps nothing."""
    key = "_" + solve.__name__

    @wraps(solve)
    def memo(g: LieAlgebra):
        if key not in g.__dict__:
            g.__dict__[key] = solve(g)
        return g.__dict__[key]

    return memo


@_per_algebra
def derivation_space(g: LieAlgebra) -> DerivationBasis:
    """All derivations, ``Der = Inn + Der_0``: the weight-0 kernel of the
    Leibniz system, plus the ad images of the basis vectors of nonzero weight.

    The basis is the one the kernel of the whole system in dim^2 unknowns
    has: one matrix per free column, ascending, with 1 there and 0 at the
    other free columns.  The free columns are the trailing pivots of Der, so
    one echelon pass over the reversed columns finds them."""
    dim, n = g.dim, g.dim * g.dim
    ads = [g.ad(g.basis_vector(i)) for i in range(dim)]
    graded = [m for m, w in zip(ads, g.weights) if any(w)]
    space = Echelon()
    for m in (*_weight_zero_kernel(g, combinations(range(dim), 2), [(True, True)]), *graded):
        space.add({n - 1 - u: x for u, x in m.nonzeros.items()})
    der = [MatQ(dim, dim, {n - 1 - u: x for u, x in row.items()}) for row in reversed(space.reduced().values())]

    # inner derivations: greedy maximal independent subset of the ad images,
    # then extended by derivation basis vectors to span Der, deterministically
    span = Echelon()
    inn = [m for m in ads if span.add(m.nonzeros)]
    comp = [m for m in der if span.add(m.nonzeros)]
    return DerivationBasis(der_basis=tuple(der), inn_basis=tuple(inn), complement_basis=tuple(comp))


@_per_algebra
def centroid_space(g: LieAlgebra) -> CentroidBasis:
    """Maps commuting with all brackets: phi[x,y] = [phi x, y] = [x, phi y].
    They have weight 0: ``[h, phi x] = phi [h, x]`` keeps phi x in the weight
    of x, so only the weight-0 block is solved."""
    dim = g.dim
    # i == j is not vacuous here: [phi(x), x] must vanish for every x
    basis = _weight_zero_kernel(g, combinations_with_replacement(range(dim), 2), [(True, False), (False, True)])
    # for centroid elements a, b, [(ab - ba)x, y] = 0: ab - ba maps L into its center;
    # ba - ab = -(ab - ba) and a = b give nothing new, so unordered pairs suffice
    for a, b in combinations(basis, 2):
        ab, ba = a.mul(b), b.mul(a)
        if ab == ba:
            continue
        # column t of ab - ba, for the columns where ab or ba has a nonzero
        cols: defaultdict[int, list[Rat]] = defaultdict(lambda: [_ZERO] * dim)
        for u in ab.nonzeros.keys() | ba.nonzeros.keys():
            s, t = divmod(u, dim)
            cols[t][s] = ab.at(s, t) - ba.at(s, t)
        if any(g.ad(col).nonzeros for col in cols.values()):
            raise AssertionError("a centroid commutator maps L outside its center")
    return CentroidBasis(basis=basis)


def centroid_violation(g: LieAlgebra, b: MatQ) -> tuple[int, int] | None:
    """First ordered basis pair with ``B[b_i, b_j] != [B b_i, b_j]``, else None
    (then B is in the centroid: ``B[x,y] = [x, By]`` follows by antisymmetry).
    These are ``centroid_space``'s ``left=True, right=False`` rows."""
    return _first_violation(g, b, ordered=True, right=False)


def _torus_kernel_vector(beta_row: dict[int, Rat], psi_row: Vec) -> Vec | None:
    """A torus vector in ker(beta_i), given by the nonzeros of beta_i's
    weight, where the functional psi_row on the torus is nonzero."""
    for v in kernel_basis(MatQ(1, len(psi_row), beta_row)):
        if sum(p * x for p, x in zip(psi_row, v)) != 0:
            return v
    return None


def aid_precondition(g: LieAlgebra, d: MatQ) -> tuple[bool, dict]:
    """Decide ``D(h) in [h, L]`` for every torus element h, exactly.

    This is a statement about any linear map D, so Leibniz is not checked.
    On success returns ``(True, {})``.  On failure returns a concrete torus
    witness h with ``D(h)`` outside ``[h, L]`` and the offending component.
    A D that is not ``g.dim x g.dim`` raises ValueError.
    """
    if (d.rows, d.cols) != (g.dim, g.dim):
        raise ValueError("shape mismatch")
    l, dim, weights = g.torus, g.dim, g.weights
    # the nonzeros of D in the torus columns: D(h_j) = sum_r D[r][j] b_r
    torus, psi = set(), defaultdict(dict)
    for u, x in d.nonzeros.items():
        r, j = divmod(u, dim)
        if j < l:
            if r < l:
                torus.add(j)
            else:
                psi[r - l][j] = x  # h_j -> x_i coefficient
    # torus component of D(h_j) must vanish identically
    if torus:
        j = min(torus)
        return False, {"witness_h": tuple(Fraction(1 if k == j else 0) for k in range(l)), "component": "torus"}
    for i in sorted(psi):
        row = psi[i]
        beta_row = {j: b for j, b in enumerate(weights[l + i]) if b}  # beta_i(h_j), by its nonzeros
        j0 = min(beta_row, default=None)
        c = Fraction(row[j0], beta_row[j0]) if j0 in row else _ZERO
        # the functional is c beta_i: no support off beta_i's, c beta_i on it
        if row.keys() - beta_row.keys() or any(row.get(j, _ZERO) != c * b for j, b in beta_row.items()):
            witness = _torus_kernel_vector(beta_row, tuple(row.get(j, _ZERO) for j in range(l)))
            if witness is None:
                raise AssertionError("no torus element separates the functional from beta_i")
            return False, {"witness_h": witness, "component": i}
    return True, {}


def aid_membership(g: LieAlgebra, d: MatQ) -> AidVerdict:
    """Exact decision procedure for almost-inner membership on a minimal L.

    "inner" is one solve of ``ad(z) = D``, whose column i is ``ad(b_i)``
    read off the structure table; Leibniz is checked only when it fails."""
    if (d.rows, d.cols) != (g.dim, g.dim):
        raise ValueError("shape mismatch")
    dim, nz = g.dim, d.nonzeros
    # entry (k, j) of ad(b_i) is the b_k-coefficient of [b_i, b_j]
    columns = {
        (k * dim + j) * dim + i: c for i, row in enumerate(g._table) for j, entry in row.items() for k, c in entry
    }
    z = solve(MatQ(dim * dim, dim, columns), [nz.get(u, _ZERO) for u in range(dim * dim)])
    if z is not None:
        # explicit, so that it runs under python -O
        if g.ad(z) != d:
            raise AssertionError("inner witness does not reproduce the derivation")
        return AidVerdict(status="inner", witness=z)
    viol = leibniz_violation(g, d)
    if viol is not None:
        return AidVerdict(status="not-derivation", data={"pair": viol})
    ok, data = aid_precondition(g, d)
    if not ok:
        return AidVerdict(status="not-aid", reason="precondition", data=data)
    # the almost-inner condition fails at x = sum_i x_i if the root vectors
    # commute; explicit, so that it runs under python -O
    x = (Fraction(0),) * g.torus + (Fraction(1),) * (dim - g.torus)
    if solve(g.ad(x), d.mul_vec(x)) is not None:
        raise AssertionError("the scalar system is infeasible, but D(x) lies in [x, L] at x = sum x_i")
    return AidVerdict(status="not-aid", reason="scalar-system", data={"fails_at": x})


class AidEqInnCertificate(_Value):
    """Aid(L) = Inn(L), from ``Der = Inn``.  It is made only when that
    holds, so ``ok`` and ``inner_all_inner`` are true."""

    ok = True

    def __init__(self, spec: SubalgebraSpec, dim_l: int, dim_der: int, dim_inn: int):
        self.__dict__.update(spec=spec, dim_l=dim_l, dim_der=dim_der, dim_inn=dim_inn)

    def to_json(self) -> dict:
        return {
            "psi": [list(r) for r in self.spec.psi],
            "dim_l": self.dim_l,
            "dim_der": self.dim_der,
            "dim_inn": self.dim_inn,
            "inner_all_inner": self.ok,
            "ok": self.ok,
        }


def verify_aid_eq_inn(spec: SubalgebraSpec) -> AidEqInnCertificate:
    """Certificate that the almost-inner derivations are exactly the inner ones.

    Requires a minimal Q-graded spec, whose L is r_2^l with ``Der = Inn``;
    an L outside that normal form, or a non-empty complement, raises
    AssertionError.  ``Inn <= Aid <= Der`` holds in every Lie algebra, so
    ``Der = Inn`` decides ``Aid = Inn`` with no candidate checked.
    """
    # is_minimal raises unless Psi is closed and spanning
    if not is_minimal(spec)[0]:
        raise ValueError("the procedure applies to minimal Q-graded subalgebras only")
    g = extract_subalgebra(spec, check_closed=False)
    basis = derivation_space(g)
    if not normal_form(g) or basis.complement_basis:
        raise AssertionError(f"the minimal subalgebra of {spec.psi} is not r_2^l with Der = Inn")
    return AidEqInnCertificate(spec=spec, dim_l=g.dim, dim_der=basis.dim_der, dim_inn=basis.dim_inn)


def diagonal_map(g: LieAlgebra, scalars) -> MatQ:
    """The map killing H and scaling x_i by scalars[i] (a derivation iff the
    scalars are additive across the closed sums in Psi)."""
    l = g.torus
    if len(scalars) != g.dim - l:
        raise ValueError("need one scalar per root in Psi")
    return MatQ(g.dim, g.dim, {(l + i) * (g.dim + 1): Fraction(a) for i, a in enumerate(scalars)})


def diagonal_toral_algebra(beta_rows) -> LieAlgebra:
    """The solvable model ``[h_j, x_i] = beta_i(h_j) x_i`` with abelian span of
    the x_i.  Every minimal Q-graded subalgebra with ``|Psi| = rank`` is of
    this shape; with more weight rows than torus dimensions it realises the
    ``dim [L,L] > dim H`` situation exactly."""
    m = len(beta_rows)
    l = len(beta_rows[0])
    structure = {}
    for i in range(m):
        for j in range(l):
            c = Fraction(beta_rows[i][j])
            if c:
                structure[(j, l + i)] = ((l + i, c),)
    labels = tuple(f"h{j + 1}" for j in range(l)) + tuple(f"x{i + 1}" for i in range(m))
    return LieAlgebra(dim=l + m, labels=labels, structure=structure, form=None, torus=l)

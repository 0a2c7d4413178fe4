"""Derivations, centroids, and the exact almost-inner membership decision.

The Leibniz identity has one encoding, ``_leibniz_rows``: the sparse rows of
``D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j]`` over the unknowns of D.
``derivation_space`` and ``centroid_space`` solve them; ``leibniz_violation``
and ``centroid_violation`` evaluate them at one matrix.

A derivation D of a minimal Q-graded subalgebra is almost inner iff
``D(x) in [x, L]`` for every single x.  The decision runs in three exact
steps: (i) the torus precondition - ``D(h) in [h, L]`` for all torus h, which
reduces to "no torus component" plus "each root-coefficient functional is a
scalar multiple c_i of beta_i"; (ii) subtracting ``ad(sum c_i x_i)`` to reach
an operator that kills the torus and scales each root vector by some a_i;
(iii) solvability of ``beta_i(h) = a_i`` over the torus.  Solvable means the
derivation is ``ad`` of an explicit witness; unsolvable means the almost-inner
condition already fails at ``sum x_i``.  Seeded random falsification is a
cross-check only, never the verdict.

``verify_aid_eq_inn`` proves almost inner = inner from ``dim Der = dim Inn``,
with every ad-basis element decided inner by an exact witness.  Its
complement branch runs only when ``Der != Inn``, which none of the 460
minimal subalgebras of A2-A4, B2, B3, C3 and G2 gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .chevalley import DistinguishedBasis, LieAlgebra, SubalgebraSpec, build_semisimple, extract_subalgebra
from .exact import Echelon, MatQ, Rat, kernel_basis, solve
from .qgraded import is_closed, is_minimal, spans_q

__all__ = [
    "DerivationBasis",
    "CentroidBasis",
    "AidVerdict",
    "leibniz_violation",
    "centroid_violation",
    "derivation_space",
    "centroid_space",
    "aid_precondition",
    "aid_reduce",
    "aid_membership",
    "aid_falsify_random",
    "verify_aid_eq_inn",
    "AidEqInnCertificate",
    "diagonal_map",
    "scalar_derivation_verdict",
    "diagonal_toral_algebra",
]

Vec = tuple[Rat, ...]


@dataclass(frozen=True)
class DerivationBasis:
    algebra: LieAlgebra
    der_basis: tuple[MatQ, ...]
    inn_basis: tuple[MatQ, ...]
    complement_basis: tuple[MatQ, ...]

    @property
    def dim_der(self) -> int:
        return len(self.der_basis)

    @property
    def dim_inn(self) -> int:
        return len(self.inn_basis)


@dataclass(frozen=True)
class CentroidBasis:
    algebra: LieAlgebra
    basis: tuple[MatQ, ...]


@dataclass(frozen=True)
class AidVerdict:
    """status: "inner" | "not-aid" | "not-derivation".

    For "inner", ``witness`` is z with D = ad(z) exactly.  For "not-aid",
    ``reason`` is "precondition" (with the failing torus element) or
    "scalar-system" (with the infeasible system data and the element
    ``sum x_i`` at which the almost-inner condition fails).
    """

    status: str
    witness: Vec | None = None
    reason: str | None = None
    data: dict | None = None

    @property
    def is_inner(self) -> bool:
        return self.status == "inner"


def _leibniz_rows(g: LieAlgebra, i: int, j: int, left: bool, right: bool) -> list[dict[int, Rat]]:
    """Coordinates of ``D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j]`` as sparse
    rows over the unknowns ``D[s][t]`` (column ``s * dim + t``), one row per
    output coordinate; ``left`` and ``right`` select the last two terms."""
    dim = g.dim
    rows: list[dict[int, Rat]] = [{} for _ in range(dim)]

    def add(r: int, unknown: int, c: Rat) -> None:
        rows[r][unknown] = rows[r].get(unknown, 0) + c

    for k, c in g.bracket_basis(i, j):
        for r in range(dim):
            add(r, r * dim + k, c)
    for s in range(dim):
        # D b_i = sum_s D[s][i] b_s, and likewise for b_j
        if left:
            for r, c in g.bracket_basis(s, j):
                add(r, s * dim + i, -c)
        if right:
            for r, c in g.bracket_basis(i, s):
                add(r, s * dim + j, -c)
    return rows


def _first_violation(g: LieAlgebra, d: MatQ, pairs, right: bool) -> tuple[int, int] | None:
    """First pair whose ``left=True`` Leibniz rows do not vanish on ``d``."""
    if (d.rows, d.cols) != (g.dim, g.dim):
        raise ValueError("shape mismatch")
    e = d.entries
    live = {t for t in range(g.dim) if any(e[t :: g.dim])}  # the nonzero columns of D
    for i, j in pairs:
        if live.isdisjoint([i, j, *(k for k, _ in g.bracket_basis(i, j))]):
            continue  # the rows at (i, j) read only these columns of D
        for row in _leibniz_rows(g, i, j, left=True, right=right):
            if sum(c * e[u] for u, c in row.items() if e[u]):
                return i, j
    return None


def leibniz_violation(g: LieAlgebra, d: MatQ) -> tuple[int, int] | None:
    """First basis pair ``i < j`` where D[x,y] != [Dx,y] + [x,Dy], else None:
    the rows ``derivation_space`` solves, evaluated at D."""
    return _first_violation(g, d, combinations(range(g.dim), 2), right=True)


def derivation_space(g: LieAlgebra) -> DerivationBasis:
    """All derivations as the kernel of the Leibniz system in dim^2 unknowns."""
    dim = g.dim
    leibniz = Echelon()
    for i, j in combinations(range(dim), 2):
        for row in _leibniz_rows(g, i, j, left=True, right=True):
            leibniz.add(row)
    der = tuple(MatQ(dim, dim, v) for v in leibniz.kernel(dim * dim))

    # inner derivations: greedy maximal independent subset of the ad images,
    # then extended by derivation basis vectors to span Der, deterministically
    span = Echelon()
    inn = [m for m in (g.ad(g.basis_vector(i)) for i in range(dim)) if span.add(dict(enumerate(m.entries)))]
    comp = [m for m in der if span.add(dict(enumerate(m.entries)))]
    return DerivationBasis(algebra=g, der_basis=der, inn_basis=tuple(inn), complement_basis=tuple(comp))


def centroid_space(g: LieAlgebra) -> CentroidBasis:
    """Maps commuting with all brackets: phi[x,y] = [phi x, y] = [x, phi y]."""
    dim = g.dim
    system = Echelon()
    # i == j is not vacuous here: [phi(x), x] must vanish for every x
    for i, j in combinations_with_replacement(range(dim), 2):
        for left in (True, False):
            for row in _leibniz_rows(g, i, j, left=left, right=not left):
                system.add(row)
    basis = tuple(MatQ(dim, dim, v) for v in system.kernel(dim * dim))
    # for centroid elements a, b, [(ab - ba)x, y] = 0: ab - ba maps L into its center
    for a in basis:
        for b in basis:
            comm = [x - y for x, y in zip(a.mul(b).entries, b.mul(a).entries)]
            for t in range(dim):
                col = tuple(comm[s * dim + t] for s in range(dim))
                if any(col) and any(any(g.bracket(col, g.basis_vector(j))) for j in range(dim)):
                    raise AssertionError("a centroid commutator maps L outside its center")
    return CentroidBasis(algebra=g, basis=basis)


def centroid_violation(g: LieAlgebra, b: MatQ) -> tuple[int, int] | None:
    """First ordered basis pair with ``B[b_i, b_j] != [B b_i, b_j]``, else None
    (then B is in the centroid: ``B[x,y] = [x, By]`` follows by antisymmetry).
    These are ``centroid_space``'s ``left=True, right=False`` rows."""
    return _first_violation(g, b, product(range(g.dim), repeat=2), right=False)


def _torus_kernel_vector(info: DistinguishedBasis, i: int, psi_row: Vec) -> Vec | None:
    """A torus vector in ker(beta_i) where the functional psi_row is nonzero."""
    for v in kernel_basis(MatQ(1, info.l, info.beta_of_h.row(i))):
        if sum(p * x for p, x in zip(psi_row, v)) != 0:
            return v
    return None


def aid_precondition(g: LieAlgebra, info: DistinguishedBasis, d: MatQ) -> tuple[bool, dict]:
    """Decide ``D(h) in [h, L]`` for every torus element h, exactly.

    This is a statement about any linear map D, so Leibniz is not checked.
    On success returns the scalars c_i with (x_i-coefficient of D(h)) =
    c_i * beta_i(h).  On failure returns a concrete torus witness h with
    ``D(h)`` outside ``[h, L]`` and the offending component.
    """
    l, m = info.l, info.m
    # torus component of D(h_j) must vanish identically
    for j in range(l):
        if any(d.at(r, j) for r in range(l)):
            return False, {"witness_h": tuple(Fraction(1 if k == j else 0) for k in range(l)), "component": "torus"}
    scalars: list[Rat] = []
    for i in range(m):
        psi_row = tuple(d.at(l + i, j) for j in range(l))  # h_j -> x_i coefficient
        beta_row = info.beta_of_h.row(i)
        j0 = next(j for j in range(l) if beta_row[j] != 0)
        c = psi_row[j0] / beta_row[j0]
        if any(psi_row[j] != c * beta_row[j] for j in range(l)):
            witness = _torus_kernel_vector(info, i, psi_row)
            if witness is None:
                raise AssertionError("no torus element separates the functional from beta_i")
            return False, {"witness_h": witness, "component": i}
        scalars.append(c)
    return True, {"scalars": tuple(scalars)}


def aid_reduce(g: LieAlgebra, info: DistinguishedBasis, d: MatQ) -> tuple[Vec, MatQ, tuple[Rat, ...]]:
    """Subtract an inner derivation so the result kills H and scales each x_i.

    Expects a derivation (``aid_membership`` checks Leibniz before calling
    it) and raises when the precondition or the reduction fails.  Returns
    ``(z, Dt, a)`` with ``Dt = D + ad(z)``, ``Dt(H) = 0`` and
    ``Dt(x_i) = a_i x_i``; z is the closed form ``sum c_i x_i``.
    """
    ok, data = aid_precondition(g, info, d)
    if not ok:
        raise ValueError(f"almost-inner precondition fails: {data}")
    l, m = info.l, info.m
    z = (Fraction(0),) * l + data["scalars"]
    dt = MatQ(g.dim, g.dim, tuple(a + b for a, b in zip(d.entries, g.ad(z).entries)))
    if any(dt.at(r, j) for j in range(l) for r in range(g.dim)):
        raise AssertionError("reduction failed to kill the torus")
    a: list[Rat] = []
    for i in range(m):
        if any(dt.at(r, l + i) for r in range(g.dim) if r != l + i):
            raise AssertionError("reduced derivation is not diagonal on the root vectors")
        a.append(dt.at(l + i, l + i))
    return z, dt, tuple(a)


def aid_membership(g: LieAlgebra, info: DistinguishedBasis, d: MatQ) -> AidVerdict:
    """Exact decision procedure for almost-inner membership on a minimal L.

    The one place on this path that checks Leibniz, once per candidate."""
    viol = leibniz_violation(g, d)
    if viol is not None:
        return AidVerdict(status="not-derivation", data={"pair": viol})
    ok, data = aid_precondition(g, info, d)
    if not ok:
        return AidVerdict(status="not-aid", reason="precondition", data=data)
    z, dt, a = aid_reduce(g, info, d)
    h = solve(info.beta_of_h, list(a))
    if h is None:
        # the almost-inner condition fails at x = sum_i x_i
        x = (Fraction(0),) * info.l + (Fraction(1),) * info.m
        return AidVerdict(
            status="not-aid",
            reason="scalar-system",
            data={"system": info.beta_of_h, "rhs": a, "fails_at": x, "reduction_z": z},
        )
    witness = tuple(hh - zz for hh, zz in zip(tuple(h) + (Fraction(0),) * info.m, z))
    if g.ad(witness) != d:
        raise AssertionError("inner witness does not reproduce the derivation")
    return AidVerdict(status="inner", witness=witness, data={"reduction_z": z, "scalars": a, "torus_part": h})


def aid_falsify_random(g: LieAlgebra, d: MatQ, trials: int = 64, seed: int = 2024) -> Vec | None:
    """Seeded search for x with D(x) outside the column space of ad(x).

    Sound for refuting almost-innerness; exhausting the trials proves nothing.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.dim))
        if any(x) and solve(g.ad(x), d.mul_vec(x)) is None:
            return x
    return None


@dataclass(frozen=True)
class AidEqInnCertificate:
    spec: SubalgebraSpec
    dim_l: int
    dim_der: int
    dim_inn: int
    inner_verdicts: tuple[AidVerdict, ...]
    complement_verdicts: tuple[AidVerdict, ...]
    falsified: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "psi": [list(r) for r in self.spec.psi],
            "dim_l": self.dim_l,
            "dim_der": self.dim_der,
            "dim_inn": self.dim_inn,
            "inner_all_inner": all(v.is_inner for v in self.inner_verdicts),
            "complement_all_not_aid": all(v.status == "not-aid" for v in self.complement_verdicts),
            "complement_count": len(self.complement_verdicts),
            "falsified_not_aid": self.falsified,
            "ok": self.ok,
        }


def verify_aid_eq_inn(
    spec: SubalgebraSpec,
    ambient: LieAlgebra | None = None,
    trials: int = 64,
    seed: int = 2024,
) -> AidEqInnCertificate:
    """Certificate that the almost-inner derivations are exactly the inner ones.

    Requires a minimal Q-graded spec.  What it proves is ``dim Der = dim Inn``
    (the complement is empty, so every derivation is inner) and that every
    ad-basis element is decided inner with an exact witness.  Only when
    ``Der != Inn`` does the complement branch run: each complement basis
    direction (not their combinations) must come back not almost inner,
    cross-checked by seeded random falsification.
    """
    if not is_closed(spec)[0] or not spans_q(spec)[0]:
        raise ValueError("spec must be closed and Q-spanning")
    if not is_minimal(spec)[0]:
        raise ValueError("the procedure applies to minimal Q-graded subalgebras only")
    if ambient is None:
        ambient = build_semisimple(spec.system)
    g, info = extract_subalgebra(ambient, spec)
    basis = derivation_space(g)
    inner_verdicts = tuple(aid_membership(g, info, m) for m in basis.inn_basis)
    complement_verdicts = tuple(aid_membership(g, info, m) for m in basis.complement_basis)
    falsified = sum(
        v.status == "not-aid" and aid_falsify_random(g, m, trials, seed) is not None
        for m, v in zip(basis.complement_basis, complement_verdicts)
    )
    ok = all(v.is_inner for v in inner_verdicts) and all(v.status == "not-aid" for v in complement_verdicts)
    return AidEqInnCertificate(
        spec=spec,
        dim_l=g.dim,
        dim_der=basis.dim_der,
        dim_inn=basis.dim_inn,
        inner_verdicts=inner_verdicts,
        complement_verdicts=complement_verdicts,
        falsified=falsified,
        ok=ok,
    )


def diagonal_map(g: LieAlgebra, info: DistinguishedBasis, scalars) -> MatQ:
    """The map killing H and scaling x_i by scalars[i] (a derivation iff the
    scalars are additive across the closed sums in Psi)."""
    if len(scalars) != info.m:
        raise ValueError("need one scalar per root in Psi")
    rows = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for i, a in enumerate(scalars):
        rows[info.l + i][info.l + i] = Fraction(a)
    return MatQ.from_rows(rows)


def scalar_derivation_verdict(g: LieAlgebra, info: DistinguishedBasis, scalars) -> dict:
    """Dichotomy certificate for a candidate diagonal map.

    Reports whether the map is a derivation (with a witness pair when not),
    whether the scalar system ``beta_i(z) = a_i`` is solvable over the torus,
    and the combined verdict: it is an almost-inner derivation iff both hold,
    in which case it is inner via the solved z.
    """
    d = diagonal_map(g, info, scalars)
    viol = leibniz_violation(g, d)
    z = solve(info.beta_of_h, [Fraction(a) for a in scalars])
    feasible = z is not None
    witness = tuple(z) + (Fraction(0),) * info.m if feasible and viol is None else None
    if witness is not None and g.ad(witness) != d:
        raise AssertionError("inner witness does not reproduce the diagonal map")
    inner = witness is not None
    return {
        "is_derivation": viol is None,
        "leibniz_witness": viol,
        "scalar_system_feasible": feasible,
        "witness": witness,
        "almost_inner": inner,  # for diagonal derivations, almost inner iff inner
        "inner": inner,
    }


def diagonal_toral_algebra(beta_rows) -> tuple[LieAlgebra, DistinguishedBasis]:
    """The solvable model ``[h_j, x_i] = beta_i(h_j) x_i`` with abelian span of
    the x_i.  Every minimal Q-graded subalgebra with ``|Psi| = rank`` is of
    this shape; with more weight rows than torus dimensions it realises the
    ``dim [L,L] > dim H`` situation exactly."""
    m = len(beta_rows)
    l = len(beta_rows[0])
    dim = l + m
    structure = {}
    for i in range(m):
        for j in range(l):
            c = Fraction(beta_rows[i][j])
            if c:
                structure[(j, l + i)] = ((l + i, c),)
    labels = tuple(f"h{j + 1}" for j in range(l)) + tuple(f"x{i + 1}" for i in range(m))
    g = LieAlgebra(dim=dim, labels=labels, structure=structure, form=None, root_system=None)
    info = DistinguishedBasis(
        psi=tuple(tuple(int(x) for x in row) for row in beta_rows),  # weights stand in for roots
        torus_ambient=tuple(g.basis_vector(j) for j in range(l)),
        beta_of_h=MatQ.from_rows([[Fraction(x) for x in row] for row in beta_rows]),
        dual_torus_local=None,
        gram=None,
        torus_is_dual=False,
    )
    return g, info

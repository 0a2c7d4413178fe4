"""Reference derivation and centroid solves, almost-inner steps and matrix
product for the tests.

These are the versions that ``liecert.dercalc`` and ``liecert.exact``
replaced.  ``derivation_space`` and ``centroid_space`` solve the Leibniz
system in all dim^2 unknowns of D, and ``leibniz_violation`` and
``centroid_violation`` evaluate every row of a pair, whatever its weight;
all four take the rows from the package's builder at every output
coordinate, which ``test_leibniz_rows_are_the_touched_coordinates_only``
checks against the dense bracket; ``touched_pairs`` is the pair filter that
``LieAlgebra._pairs_by_column`` replaced.  ``aid_precondition`` and ``reduce`` read D
entry by entry with ``MatQ.at`` and add ``ad(z)`` to every entry, and ``mul``
is the row-by-row dense product.  ``aid_membership`` is the decision
procedure wired to them; it shares ``leibniz_violation``,
``_torus_kernel_vector``, ``solve``, ``LieAlgebra.ad`` and
``LieAlgebra.weights`` (as ``beta_of_h``) with the package, which other
tests check on their own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from liecert.chevalley import LieAlgebra
from liecert.dercalc import AidVerdict, CentroidBasis, DerivationBasis, _leibniz_rows, _torus_kernel_vector, leibniz_violation
from liecert.exact import Echelon, MatQ, Rat, solve
from exact_reference import dense


def _rows(g: LieAlgebra, i: int, j: int, left: bool, right: bool) -> list[dict[int, Rat]]:
    return _leibniz_rows(g, i, j, left, right, range(g.dim))


def _nonzeros(m: MatQ) -> dict[int, Rat]:
    return {u: x for u, x in enumerate(dense(m).entries) if x}


def derivation_space(g: LieAlgebra) -> DerivationBasis:
    """All derivations as the kernel of the Leibniz system in dim^2 unknowns."""
    dim = g.dim
    leibniz = Echelon()
    for i, j in combinations(range(dim), 2):
        for row in _rows(g, i, j, left=True, right=True):
            leibniz.add(row)
    der = tuple(MatQ(dim, dim, dict(enumerate(v))) for v in leibniz.kernel(dim * dim))
    span = Echelon()
    inn = [m for m in (g.ad(g.basis_vector(i)) for i in range(dim)) if span.add(_nonzeros(m))]
    comp = [m for m in der if span.add(_nonzeros(m))]
    return DerivationBasis(algebra=g, der_basis=der, inn_basis=tuple(inn), complement_basis=tuple(comp))


def centroid_space(g: LieAlgebra) -> CentroidBasis:
    """The kernel of both one-sided systems in dim^2 unknowns (the package's
    commutator check is left out)."""
    dim = g.dim
    system = Echelon()
    for i, j in combinations_with_replacement(range(dim), 2):
        for left in (True, False):
            for row in _rows(g, i, j, left=left, right=not left):
                system.add(row)
    return CentroidBasis(algebra=g, basis=tuple(MatQ(dim, dim, dict(enumerate(v))) for v in system.kernel(dim * dim)))


def _first_violation(g: LieAlgebra, d: MatQ, pairs, right: bool) -> tuple[int, int] | None:
    nz = _nonzeros(d)
    for i, j in pairs:
        for row in _rows(g, i, j, left=True, right=right):
            if sum(c * nz[u] for u, c in row.items() if u in nz):
                return i, j
    return None


def touched_pairs(g: LieAlgebra, d: MatQ, pairs) -> list[tuple[int, int]]:
    """The pairs of ``pairs`` whose rows read a nonzero column of D: i, j or a
    coordinate of ``[b_i, b_j]``; the filter ``_first_violation`` applied to
    every pair before the column index replaced it."""
    live = {u % d.cols for u in _nonzeros(d)}
    return [(i, j) for i, j in pairs if not live.isdisjoint([i, j, *(k for k, _ in g.bracket_basis(i, j))])]


def leibniz_violation_rows(g: LieAlgebra, d: MatQ) -> tuple[int, int] | None:
    return _first_violation(g, d, combinations(range(g.dim), 2), right=True)


def centroid_violation_rows(g: LieAlgebra, b: MatQ) -> tuple[int, int] | None:
    return _first_violation(g, b, product(range(g.dim), repeat=2), right=False)


def mul(left: MatQ, right: MatQ) -> MatQ:
    if left.cols != right.rows:
        raise ValueError("shape mismatch")
    out: list[Rat] = []
    orows = dense(right).to_rows()
    for i in range(left.rows):
        ri = dense(left).row(i)
        acc = [Fraction(0)] * right.cols
        for k, a in enumerate(ri):
            if a:
                rk = orows[k]
                for j in range(right.cols):
                    if rk[j]:
                        acc[j] += a * rk[j]
        out.extend(acc)
    return MatQ(left.rows, right.cols, dict(enumerate(out)))


def beta_of_h(g: LieAlgebra) -> MatQ:
    """The m x l matrix ``beta_i(h_j)`` of the root weights."""
    l = g.torus
    return MatQ(g.dim - l, l, {i * l + j: Fraction(w) for i, row in enumerate(g.weights[l:]) for j, w in enumerate(row)})


def aid_precondition(g: LieAlgebra, d: MatQ) -> tuple[bool, dict]:
    l, m = g.torus, g.dim - g.torus
    # torus component of D(h_j) must vanish identically
    for j in range(l):
        if any(d.at(r, j) for r in range(l)):
            return False, {"witness_h": tuple(Fraction(1 if k == j else 0) for k in range(l)), "component": "torus"}
    scalars: list[Rat] = []
    for i in range(m):
        psi_row = tuple(d.at(l + i, j) for j in range(l))  # h_j -> x_i coefficient
        beta_row = dense(beta_of_h(g)).row(i)
        j0 = next(j for j in range(l) if beta_row[j] != 0)
        c = psi_row[j0] / beta_row[j0]
        if any(psi_row[j] != c * beta_row[j] for j in range(l)):
            witness = _torus_kernel_vector(dict(enumerate(beta_row)), psi_row)
            if witness is None:
                raise AssertionError("no torus element separates the functional from beta_i")
            return False, {"witness_h": witness, "component": i}
        scalars.append(c)
    return True, {"scalars": tuple(scalars)}


def reduce(g: LieAlgebra, d: MatQ, scalars: tuple[Rat, ...]):
    l, m = g.torus, g.dim - g.torus
    z = (Fraction(0),) * l + scalars
    dt = MatQ(g.dim, g.dim, dict(enumerate(a + b for a, b in zip(dense(d).entries, dense(g.ad(z)).entries))))
    if any(dt.at(r, j) for j in range(l) for r in range(g.dim)):
        raise AssertionError("reduction failed to kill the torus")
    a: list[Rat] = []
    for i in range(m):
        if any(dt.at(r, l + i) for r in range(g.dim) if r != l + i):
            raise AssertionError("reduced derivation is not diagonal on the root vectors")
        a.append(dt.at(l + i, l + i))
    return z, dt, tuple(a)


def aid_membership(g: LieAlgebra, d: MatQ) -> AidVerdict:
    viol = leibniz_violation(g, d)
    if viol is not None:
        return AidVerdict(status="not-derivation", data={"pair": viol})
    ok, data = aid_precondition(g, d)
    if not ok:
        return AidVerdict(status="not-aid", reason="precondition", data=data)
    z, dt, a = reduce(g, d, data["scalars"])
    l, m = g.torus, g.dim - g.torus
    h = solve(beta_of_h(g), list(a))
    if h is None:
        x = (Fraction(0),) * l + (Fraction(1),) * m
        return AidVerdict(
            status="not-aid",
            reason="scalar-system",
            data={"system": beta_of_h(g), "rhs": a, "fails_at": x, "reduction_z": z},
        )
    witness = tuple(hh - zz for hh, zz in zip(tuple(h) + (Fraction(0),) * m, z))
    if g.ad(witness) != d:
        raise AssertionError("inner witness does not reproduce the derivation")
    return AidVerdict(status="inner", witness=witness, data={"reduction_z": z, "scalars": a, "torus_part": h})

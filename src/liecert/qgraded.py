"""Q-graded subalgebra decisions: closure, lattice span, minimality,
enumeration, and the abelian-derived-algebra certificate.

A subset Psi of the roots designates ``L = H + sum_{beta in Psi} L_beta``.
``L`` is a subalgebra iff Psi is closed under root addition, and Q-graded iff
additionally Psi spans the root lattice over Z (all Smith invariant factors 1
at full rank).  Minimality means no proper subset is simultaneously closed and
spanning; ``is_minimal`` decides it by exhaustive subset search, and
``enumerate_minimal`` walks only the closed subsets of the whole root system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chevalley import LieAlgebra, SubalgebraSpec, closure_violation, extract_subalgebra
from .exact import MatQ, MatZ, hermite_pivots, rref, smith_normal_form
from .rootsys import Root, RootSystem

__all__ = [
    "QGradedCertificate",
    "is_closed",
    "spans_q",
    "is_minimal",
    "enumerate_minimal",
    "verify_metabelian",
    "certify",
    "EnumerationCapExceeded",
]


class EnumerationCapExceeded(ValueError):
    """2^|roots| exceeds the enumeration cap; certify subsets individually."""


@dataclass(frozen=True)
class QGradedCertificate:
    spec: SubalgebraSpec
    closed: bool
    closure_witness: tuple[Root, Root, Root] | None
    spans: bool
    invariant_factors: tuple[int, ...]
    minimal: bool | None
    minimal_counterexample: tuple[Root, ...] | None
    metabelian: bool | None
    metabelian_witness: tuple[Root, Root] | None
    dims: tuple[int, int, int] | None  # (dim H, dim [L,L], dim L)

    def all_positive(self) -> bool:
        return bool(self.closed and self.spans and self.minimal and self.metabelian)

    def to_json(self) -> dict:
        return {
            "psi": [list(r) for r in self.spec.psi],
            "family": self.spec.system.family,
            "rank": self.spec.system.rank,
            "closed": self.closed,
            "closure_witness": [list(r) for r in self.closure_witness] if self.closure_witness else None,
            "spans_q": self.spans,
            "invariant_factors": list(self.invariant_factors),
            "minimal": self.minimal,
            "minimal_counterexample": (
                [list(r) for r in self.minimal_counterexample] if self.minimal_counterexample else None
            ),
            "metabelian": self.metabelian,
            "metabelian_witness": (
                [list(r) for r in self.metabelian_witness] if self.metabelian_witness else None
            ),
            "dims": list(self.dims) if self.dims else None,
        }


def is_closed(spec: SubalgebraSpec) -> tuple[bool, tuple[Root, Root, Root] | None]:
    """True iff Psi is closed under root addition; else a violating triple."""
    w = closure_violation(spec.system, spec.psi)
    return (w is None), w


def spans_q(spec: SubalgebraSpec) -> tuple[bool, tuple[int, ...]]:
    """True iff Psi spans the root lattice over Z, with the invariant factors."""
    l = spec.system.rank
    if not spec.psi:
        return False, ()
    mat = MatZ.from_rows(spec.psi_coordinate_matrix())
    _, d, _ = smith_normal_form(mat)
    factors = tuple(x for x in d.diagonal() if x != 0)
    return (len(factors) == l and all(x == 1 for x in factors)), factors


def is_minimal(spec: SubalgebraSpec) -> tuple[bool, tuple[Root, ...] | None]:
    """Exhaustively check that no proper subset of Psi is closed and spanning.

    Precondition: the spec itself is closed and spanning.
    """
    closed, w = is_closed(spec)
    if not closed:
        raise ValueError(f"Psi is not closed: {w[0]} + {w[1]} = {w[2]} lies outside Psi")
    spanning, _ = spans_q(spec)
    if not spanning:
        raise ValueError("Psi does not span the root lattice")
    rs = spec.system
    psi = spec.psi
    l = rs.rank
    for size in range(l, len(psi)):  # spanning needs at least rank elements
        for subset in combinations(psi, size):
            sub = SubalgebraSpec(rs, subset)
            if is_closed(sub)[0] and spans_q(sub)[0]:
                return False, sub.psi
    return True, None


def _closed_masks(rs: RootSystem) -> list[int]:
    """Bitmasks (bit k for ``rs.roots[k]``) of every closed subset of the roots.

    Backtracks over the roots in index order.  Each root-sum triple
    ``a + b = c`` is checked once, when the largest of its three indices is
    decided, so only closed prefixes are ever extended.
    """
    roots = rs.roots
    n = len(roots)
    # leaving root k out needs no pair i + j = k (i, j < k) to be in;
    # taking root k in needs s in whenever i is, for each i + k = s (i, s < k)
    out_pairs: list[list[int]] = [[] for _ in range(n)]
    in_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, a in enumerate(roots):
        for j in range(i + 1, n):
            s = rs.root_index.get(tuple(x + y for x, y in zip(a, roots[j])))
            if s is None:
                continue
            if s > j:
                out_pairs[s].append((1 << i) | (1 << j))
            else:
                in_pairs[j].append((1 << i, 1 << s))
    found: list[int] = []

    def walk(k: int, mask: int) -> None:
        if k == n:
            found.append(mask)
            return
        if all(mask & pair != pair for pair in out_pairs[k]):
            walk(k + 1, mask)
        if all(not mask & bi or mask & bs for bi, bs in in_pairs[k]):
            walk(k + 1, mask | 1 << k)

    walk(0, 0)
    return found


def enumerate_minimal(rs: RootSystem, cap: int = 1 << 24) -> list[SubalgebraSpec]:
    """All minimal Q-graded subsets, canonically ordered.

    Walks the closed subsets by increasing size.  A closed set that contains
    a minimal set found earlier is not minimal; any other closed set is
    minimal iff it spans the root lattice, since each of its closed spanning
    proper subsets would contain a smaller minimal set.  ``cap`` bounds
    ``2^|roots|``, the size of the search space.
    """
    n = len(rs.roots)
    if 1 << n > cap:
        raise EnumerationCapExceeded(
            f"2^{n} subsets exceed the cap {cap}; certify individual subsets instead"
        )
    roots = rs.roots
    l = rs.rank
    unit = [1] * l
    candidates = sorted((m for m in _closed_masks(rs) if m.bit_count() >= l), key=int.bit_count)
    # bit t of holders[k] is set iff the t-th minimal set found holds root k.
    # OR-ing the holders of the roots a set lacks marks each found set that it
    # does not contain; it contains none of them iff every bit gets marked.
    holders = [0] * n
    every = 0
    minimal: list[SubalgebraSpec] = []
    for mask in candidates:
        blocked = 0
        for k in range(n):
            if not mask >> k & 1:
                blocked |= holders[k]
        if blocked != every:
            continue
        members = [k for k in range(n) if mask >> k & 1]
        psi = tuple(roots[k] for k in members)
        if hermite_pivots(psi, l) != unit:
            continue
        bit = 1 << len(minimal)
        every |= bit
        for k in members:
            holders[k] |= bit
        spec = SubalgebraSpec(rs, psi)
        # printed sets keep their closure and Smith-form evidence
        if closure_violation(rs, spec.psi) is not None or not spans_q(spec)[0]:
            raise AssertionError(f"enumerated set {spec.psi} fails the closure or Smith-form re-check")
        minimal.append(spec)
    minimal.sort(key=lambda s: (len(s.psi), s.psi))
    return minimal


def derived_algebra_dim(g: LieAlgebra) -> int:
    """dim [L, L] from the structure constants."""
    rows = []
    for (i, j), entry in g.structure.items():
        vec = [0] * g.dim
        for k, c in entry:
            vec[k] = c
        rows.append(vec)
    if not rows:
        return 0
    return rref(MatQ.from_rows(rows)).rank


def verify_metabelian(spec: SubalgebraSpec) -> QGradedCertificate:
    """Check [L,L] = sum of the root spaces and that it is abelian.

    Precondition: spec closed and spanning.  The certificate records the
    derived-algebra dimensions and, on failure, a nonzero bracket pair.
    """
    closed, cw = is_closed(spec)
    spanning, factors = spans_q(spec)
    if not closed:
        raise ValueError(f"Psi is not closed: {cw[0]} + {cw[1]} = {cw[2]} lies outside Psi")
    if not spanning:
        raise ValueError("Psi does not span the root lattice")
    rs = spec.system
    sub, _ = extract_subalgebra(spec)
    l, m = rs.rank, len(spec.psi)
    ddim = derived_algebra_dim(sub)

    witness = None
    for a in range(m):
        for b in range(a + 1, m):
            if any(sub.bracket(sub.basis_vector(l + a), sub.basis_vector(l + b))):
                witness = (spec.psi[a], spec.psi[b])
                break
        if witness:
            break
    abelian = witness is None and ddim == m

    minimal, counter = is_minimal(spec)
    return QGradedCertificate(
        spec=spec,
        closed=True,
        closure_witness=None,
        spans=True,
        invariant_factors=factors,
        minimal=minimal,
        minimal_counterexample=counter,
        metabelian=abelian,
        metabelian_witness=witness,
        dims=(l, ddim, sub.dim),
    )


def certify(spec: SubalgebraSpec) -> QGradedCertificate:
    """Full certificate: closure, span, minimality, metabelian, dimensions.

    For a closed spanning Psi this is ``verify_metabelian``'s certificate.
    Otherwise minimality and the metabelian check are not run, and their
    fields stay None.
    """
    closed, cw = is_closed(spec)
    spanning, factors = spans_q(spec)
    if closed and spanning:
        return verify_metabelian(spec)
    return QGradedCertificate(
        spec=spec,
        closed=closed,
        closure_witness=cw,
        spans=spanning,
        invariant_factors=factors,
        minimal=None,
        minimal_counterexample=None,
        metabelian=None,
        metabelian_witness=None,
        dims=None,
    )

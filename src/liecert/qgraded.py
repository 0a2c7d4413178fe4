"""Q-graded subalgebra decisions: closure, lattice span, minimality,
enumeration, and the abelian-derived-algebra certificate.

A subset Psi of the roots designates ``L = H + sum_{beta in Psi} L_beta``.
``L`` is a subalgebra iff Psi is closed under root addition, and Q-graded iff
additionally Psi spans the root lattice over Z: rank-many Smith invariant
factors (``exact.invariant_factors``), all 1.  Minimality means no proper
subset is simultaneously closed and spanning.  ``is_minimal`` and ``certify``
decide it by one pruned walk over the closed subsets of Psi, which stops at
the first minimal set: Psi iff Psi is minimal.  ``certify`` decides closure
and span once each.  ``enumerate_minimal`` lists the minimal sets as the
unimodular root bases of ``_unimodular_bases``, a characterization whose
converse half the walk does not assume.  ``_rechecked`` re-checks every set they
find: rank, closure, span by ``det = +-1`` (``exact.int_det``, not their engine).
"""

from __future__ import annotations

from functools import lru_cache

from .chevalley import LieAlgebra, SubalgebraSpec, _closure, closure_violation, extract_subalgebra
from .exact import Echelon, _Value, hermite_insert, int_det, invariant_factors
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


class QGradedCertificate(_Value):
    def __init__(
        self,
        spec: SubalgebraSpec,
        closed: bool,
        closure_witness: tuple[Root, Root, Root] | None,
        spans: bool,
        invariant_factors: tuple[int, ...],
        minimal: bool | None,
        minimal_counterexample: tuple[Root, ...] | None,
        metabelian: bool | None,
        metabelian_witness: tuple[Root, Root] | None,
        dims: tuple[int, int, int] | None,  # (dim H, dim [L,L], dim L)
    ):
        self.__dict__.update(
            spec=spec,
            closed=closed,
            closure_witness=closure_witness,
            spans=spans,
            invariant_factors=invariant_factors,
            minimal=minimal,
            minimal_counterexample=minimal_counterexample,
            metabelian=metabelian,
            metabelian_witness=metabelian_witness,
            dims=dims,
        )

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
    w = _closure(spec)
    return (w is None), w


def spans_q(spec: SubalgebraSpec) -> tuple[bool, tuple[int, ...]]:
    """True iff Psi spans the root lattice over Z, with the invariant factors."""
    l = spec.system.rank
    factors = invariant_factors(spec.psi, l)
    return (len(factors) == l and all(x == 1 for x in factors)), factors


def _require_closed_spanning(spec: SubalgebraSpec) -> tuple[int, ...]:
    """The invariant factors of a closed spanning Psi; ValueError otherwise."""
    closed, w = is_closed(spec)
    if not closed:
        raise ValueError(f"Psi is not closed: {w[0]} + {w[1]} = {w[2]} lies outside Psi")
    spanning, factors = spans_q(spec)
    if not spanning:
        raise ValueError("Psi does not span the root lattice")
    return factors


def _first_minimal(rs: RootSystem, roots: tuple[Root, ...]) -> tuple[Root, ...] | None:
    """The first minimal set of the walk over ``roots``, a closed spanning
    Psi (a root sum of two of them is one of them), or None if it finds none.

    One depth-first walk over the closed subsets backtracks over the roots
    in index order, trying "leave root k" before "take root k", and checks
    each root-sum triple once, when the largest of its three indices is
    decided, so only closed prefixes are extended.  A closed set is reached
    after all of its closed proper subsets: they first differ from it at a
    root the subset leaves.  So the first closed spanning set reached is
    minimal, and it is Psi iff Psi is minimal.  Two prunes keep the walk
    small; each drops only sets that cannot come first:

    (a) The prefix's Hermite pivots (``exact.hermite_insert``) are carried
        down, one insertion per taken root.  Once a prefix P spans the root
        lattice, every closed set below it contains C = closure(P), which is
        closed and spanning, so C is the only candidate below P and the walk
        stops there.  C lies below P iff it adds no root before the last one
        taken, and each of its closed proper subsets is reached before P.
    (b) A prefix cannot span once its pivots plus the roots still undecided
        number fewer than the rank, so a rank-size Psi takes about 2 * rank
        steps.
    """
    n, l = len(roots), rs.rank
    index = {r: k for k, r in enumerate(roots)}
    # leaving root k out needs no pair i + j = k (i, j < k) to be in;
    # taking root k in needs s in whenever i is, for each i + k = s (i, s < k);
    # sums[i] lists (bit j, bit s) for every root sum i + j = s
    out_pairs: list[list[int]] = [[] for _ in range(n)]
    in_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    sums: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, a in enumerate(roots):
        for j in range(i + 1, n):
            s = index.get(tuple(x + y for x, y in zip(a, roots[j])))
            if s is None:
                continue
            sums[i].append((1 << j, 1 << s))
            sums[j].append((1 << i, 1 << s))
            if s > j:
                out_pairs[s].append((1 << i) | (1 << j))
            else:
                in_pairs[j].append((1 << i, 1 << s))

    def closure(mask: int, low: int) -> int | None:
        """closure(mask), or None once it adds a root of ``low``."""
        todo = mask
        while todo:
            bit = todo & -todo
            todo ^= bit
            for bj, bs in sums[bit.bit_length() - 1]:
                if mask & bj and not mask & bs:
                    if bs & low:
                        return None
                    mask |= bs
                    todo |= bs
        return mask

    def walk(k: int, mask: int, pivots: dict[int, list[int]]) -> int | None:
        # mask: the prefix over roots < k, which does not span
        if k == n or len(pivots) + n - k < l:
            return None  # (b)
        leave = all(mask & pair != pair for pair in out_pairs[k])
        if leave and (found := walk(k + 1, mask, pivots)) is not None:
            return found
        if any(mask & bi and not mask & bs for bi, bs in in_pairs[k]):
            return None
        taken = mask | 1 << k
        grown = dict(pivots)
        hermite_insert(grown, roots[k], l)
        if len(grown) < l or any(row[c] != 1 for c, row in grown.items()):
            return walk(k + 1, taken, grown)
        return closure(taken, ((2 << k) - 1) & ~taken)  # (a)

    mask = walk(0, 0, {})
    return None if mask is None else tuple(roots[k] for k in range(n) if mask >> k & 1)


def _unimodular_bases(rs: RootSystem) -> list[tuple[Root, ...]]:
    """Every set of rank-many roots that is a Z-basis of the root lattice and
    has no two roots summing to a root or to zero: exactly the minimal sets.

    Every such set is minimal: it is closed, since no sum of two of its roots
    is a root; it spans; and a proper subset has fewer than rank vectors, so
    none spans.  The converse rests on the paper's section 2, where [L, L] is
    abelian and holds every root vector, so no two roots of a minimal Psi sum
    to a root or to zero, and on "rank-many roots", which is not proved here:
    the tests compare this list with the walk over the whole root system on
    every type that the default cap of ``enumerate_minimal`` admits.

    Backtracks over ``rs.roots`` in index order, choosing each next root
    among the later roots that pair with every chosen one (a bitmask), and
    carries the chosen roots' Hermite pivots (``exact.hermite_insert``): a
    root that does not raise their rank is dropped.  A set of full rank is
    kept iff all its pivots are 1.
    """
    roots, l, n, sums = rs.roots, rs.rank, len(rs.roots), _root_sums(rs)
    # bit j of later[i] (j > i): roots i and j sum to neither a root nor zero
    later = [0] * n
    for i, a in enumerate(roots):
        neg = rs.root_index[tuple(-x for x in a)]
        for j in range(i + 1, n):
            if sums[i][j] is None and j != neg:
                later[i] |= 1 << j
    found: list[tuple[Root, ...]] = []

    def grow(chosen: tuple[Root, ...], free: int, pivots: dict[int, list[int]]) -> None:
        if len(pivots) == l:
            if all(row[c] == 1 for c, row in pivots.items()):
                found.append(chosen)
            return
        while free.bit_count() + len(pivots) >= l:
            bit = free & -free
            free ^= bit
            k = bit.bit_length() - 1
            grown = dict(pivots)
            hermite_insert(grown, roots[k], l)
            if len(grown) > len(pivots):
                grow(chosen + (roots[k],), free & later[k], grown)

    grow((), (1 << n) - 1, {})
    return found


@lru_cache(maxsize=32)
def _root_sums(rs: RootSystem) -> tuple[tuple[int | None, ...], ...]:
    """``sums[i][j]``: the index of root i + root j if that is a root, else None.
    Built once per root system, only by ``minimal``: on E8 it outcosts ``certify``."""
    return tuple(tuple(rs.root_index.get(tuple(x + y for x, y in zip(a, b))) for b in rs.roots) for a in rs.roots)


def _rechecked(rs: RootSystem, psi: tuple[Root, ...], decided: bool = False, sums: tuple | None = None) -> SubalgebraSpec:
    """A minimal set the enumeration or the walk found, re-checked for
    rank-many roots and, unless ``decided``, for closure (from the root sums
    ``sums`` of ``_root_sums`` if given, else by ``closure_violation``) and
    for span by ``det = +-1`` (``exact.int_det``, not the enumerator's engine):
    then it is a lattice basis, no two of its roots sum into it, and L is
    r_2^l, which ``chevalley.normal_form`` reads off the extraction."""
    spec = SubalgebraSpec(rs, psi)
    if len(spec.psi) != rs.rank:
        raise AssertionError(f"minimal set {spec.psi} fails the rank re-check: {len(spec.psi)} roots, rank {rs.rank}")
    if not decided:
        if sums is None:
            closed = closure_violation(rs, spec.psi) is None
        else:
            ids = [rs.root_index[r] for r in spec.psi]
            closed = all(sums[i][j] is None or sums[i][j] in ids for i in ids for j in ids)
        if not closed or int_det(spec.psi) not in (1, -1):
            raise AssertionError(f"enumerated set {spec.psi} fails the closure or determinant re-check")
    return spec


def _smaller_minimal(spec: SubalgebraSpec) -> tuple[Root, ...] | None:
    """The first minimal set of the walk over the closed spanning Psi if it
    is a proper subset of Psi, else None."""
    first = _first_minimal(spec.system, spec.psi)
    if first is None:
        raise AssertionError(f"the walk over the closed spanning {spec.psi} found no minimal set")
    own = len(first) == len(spec.psi)  # Psi itself, with closure and span decided
    found = _rechecked(spec.system, first, decided=own).psi
    return None if own else found


def is_minimal(spec: SubalgebraSpec) -> tuple[bool, tuple[Root, ...] | None]:
    """True iff no proper subset of Psi is closed and spanning; else the
    first minimal one that the walk over Psi finds.

    Precondition: the spec itself is closed and spanning (ValueError if not).
    """
    _require_closed_spanning(spec)
    counter = _smaller_minimal(spec)
    return counter is None, counter


def enumerate_minimal(rs: RootSystem, cap: int = 1 << 24) -> list[SubalgebraSpec]:
    """All minimal Q-graded subsets, canonically ordered: the unimodular root
    bases, each re-checked by ``_rechecked`` with the sums of ``_root_sums``.
    ``cap`` bounds ``2^|roots|``; its default admits only oracle-tested types."""
    n = len(rs.roots)
    if 1 << n > cap:
        raise EnumerationCapExceeded(f"2^{n} subsets exceed the cap {cap}; certify individual subsets instead")
    sums = _root_sums(rs)
    minimal = [_rechecked(rs, psi, sums=sums) for psi in _unimodular_bases(rs)]
    return sorted(minimal, key=lambda s: (len(s.psi), s.psi))


def derived_algebra_dim(g: LieAlgebra) -> int:
    """dim [L, L] from the structure constants."""
    span = Echelon()
    for entry in g.structure.values():
        span.add(dict(entry))
    return span.rank


def verify_metabelian(spec: SubalgebraSpec) -> QGradedCertificate:
    """Check [L,L] = sum of the root spaces and that it is abelian.

    Precondition: spec closed and spanning (ValueError if not).  The
    certificate records the derived-algebra dimensions and, on failure, a
    nonzero bracket pair.
    """
    return _metabelian_certificate(spec, _require_closed_spanning(spec))


def _metabelian_certificate(spec: SubalgebraSpec, factors: tuple[int, ...]) -> QGradedCertificate:
    """``verify_metabelian`` once closure and span are decided."""
    sub = extract_subalgebra(spec, check_closed=False)
    l, m = spec.system.rank, len(spec.psi)
    ddim = derived_algebra_dim(sub)
    nonzero = ((a, b) for a in range(m) for b in range(a + 1, m) if any(c for _, c in sub.bracket_basis(l + a, l + b)))
    witness = next(((spec.psi[a], spec.psi[b]) for a, b in nonzero), None)
    abelian = witness is None and ddim == m

    counter = _smaller_minimal(spec)
    return QGradedCertificate(
        spec=spec,
        closed=True,
        closure_witness=None,
        spans=True,
        invariant_factors=factors,
        minimal=counter is None,
        minimal_counterexample=counter,
        metabelian=abelian,
        metabelian_witness=witness,
        dims=(l, ddim, sub.dim),
    )


def certify(spec: SubalgebraSpec) -> QGradedCertificate:
    """Full certificate: closure, span, minimality, metabelian, dimensions.

    Closure and span are each decided once.  For a closed spanning Psi this
    is ``verify_metabelian``'s certificate.  Otherwise minimality and the
    metabelian check are not run, and their fields stay None.
    """
    closed, cw = is_closed(spec)
    spanning, factors = spans_q(spec)
    if closed and spanning:
        return _metabelian_certificate(spec, factors)
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

"""Q-graded subalgebra decisions: closure, lattice span, minimality,
enumeration, and the abelian-derived-algebra certificate.

A subset Psi of the roots designates ``L = H + sum_{beta in Psi} L_beta``.
``L`` is a subalgebra iff Psi is closed under root addition, and Q-graded iff
additionally Psi spans the root lattice over Z: rank-many Smith invariant
factors (``exact.invariant_factors``), all 1.  Minimality means no proper
subset is simultaneously closed and spanning.  By the paper's section 2, no
two roots of a minimal set sum to a root or to zero, so one search over such
sets, ``_minimal_sets``, decides minimality everywhere: ``is_minimal`` and
``certify`` run it over Psi and stop at its first set, Psi iff Psi is
minimal; ``enumerate_minimal`` runs it over the whole root system and gets
the sets in the printed order.  It looks at sets of every size, so it does
not assume that a minimal set has rank-many roots.  ``certify`` decides
closure and span once each.  ``_rechecked`` re-checks every set the search
finds, by other code: rank-many roots, closure, and span by ``det = +-1``.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .chevalley import LieAlgebra, SubalgebraSpec, _closure, closure_violation, extract_subalgebra
from .exact import Echelon, _Value, hermite_insert, int_det, invariant_factors
from .rootsys import Root, RootSets, RootSystem

__all__ = [
    "QGradedCertificate",
    "is_closed",
    "spans_q",
    "is_minimal",
    "enumerate_minimal",
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


def _require_closed_spanning(spec: SubalgebraSpec) -> None:
    """ValueError unless Psi is closed and spans the root lattice."""
    closed, w = is_closed(spec)
    if not closed:
        raise ValueError(f"Psi is not closed: {w[0]} + {w[1]} = {w[2]} lies outside Psi")
    if not spans_q(spec)[0]:
        raise ValueError("Psi does not span the root lattice")


def _minimal_sets(rs: RootSystem, roots: tuple[Root, ...], first: bool = False, labels=None, keep=None) -> list:
    """The minimal sets among the subsets of ``roots`` (the root system or
    a closed Psi) as tuples of roots, in the order found; with ``first``, only
    the first.  With ``keep``, each goes to ``keep`` instead, as its ascending
    indices in ``roots``, and the search stops once ``keep`` returns True.

    No two roots of a minimal set sum to a root or to zero (section 2), so
    each of its subsets is closed: minimal means it spans the root lattice
    over Z and no proper subset does.  The search grows sets in index order,
    taking the next root from a bitmask of the later roots that sum with no
    chosen root to a root or to zero, highest bit first.  It carries the
    chosen roots' Hermite pivots (``exact.hermite_insert``) and drops a root
    that leaves their lattice unchanged: the same rank and pivots.  That is
    exact, as each root of a minimal set lies outside the lattice of the
    others, and each kept root raises the rank or at least halves the index.
    A set that spans is not extended; it is kept if it has rank-many roots or
    if no set with one root fewer spans.  ``labels[b]`` is the root of bit b.
    By default bit k is root k, and sets that do not contain each other come
    in decreasing lexicographic order of their ascending index lists, so the
    first is the one that a walk over the closed subsets, trying "leave root
    k" first, finds first.  With bits in descending coordinate order, the
    children come in ascending order; as every printed set has l roots and
    none is a prefix of another, the sets come in the printed order.
    """
    n, l, labels = len(roots), rs.rank, labels or range(len(roots))
    later, vectors = _apart(rs, roots, labels), [roots[i] for i in labels]
    found: list[tuple[Root, ...]] = []
    # by default each set is kept as its roots, and the search stops with first
    keep = keep or (lambda chosen: found.append(tuple(roots[i] for i in chosen)) or first)

    def grow(chosen: tuple[int, ...], free: int, forms: tuple[dict[int, list[int]], ...]) -> bool:
        pivots = forms[-1]  # forms[i]: the Hermite pivots of chosen[:i]
        rank = len(pivots)
        if rank == l and all(row[c] == 1 for c, row in pivots.items()):
            if rank == len(chosen) or not any(_spans(forms[k], chosen[k + 1 :], roots, l) for k in range(len(chosen) - 1)):
                return keep(chosen)
            return False
        todo = free
        while todo:
            k = todo.bit_length() - 1
            todo ^= 1 << k
            rest = free & later[k]
            if rank + rest.bit_count() < l - 1:
                continue  # too few roots left to reach full rank
            grown = dict(pivots)
            hermite_insert(grown, vectors[k], l)
            # the same rank: each pivot of grown divides the old one
            if len(grown) == rank and all(grown[c][c] == row[c] for c, row in pivots.items()):
                continue
            if grow(chosen + (labels[k],), rest, forms + (grown,)):
                return True
        return False

    grow((), (1 << n) - 1, ({},))
    return found


@lru_cache(maxsize=32)
def _apart(rs: RootSystem, roots: tuple[Root, ...], labels) -> tuple[int, ...]:
    """Bit b of ``later[a]``: root ``labels[b]`` is after ``labels[a]`` and the two sum to neither a root nor zero."""
    bit, later = {i: b for b, i in enumerate(labels)}, [0] * len(roots)
    for i, a in enumerate(roots):
        for j in range(i + 1, len(roots)):
            s = tuple(x + y for x, y in zip(a, roots[j]))
            if any(s) and s not in rs.root_index:
                later[bit[i]] |= 1 << bit[j]
    return tuple(later)


def _spans(pivots: dict[int, list[int]], ids: tuple[int, ...], roots: tuple[Root, ...], l: int) -> bool:
    """True iff roots ``ids`` and the lattice of ``pivots`` span Z^l: l pivots, all 1."""
    pivots = dict(pivots)
    for i in ids:
        hermite_insert(pivots, roots[i], l)
    return len(pivots) == l and all(row[c] == 1 for c, row in pivots.items())


@lru_cache(maxsize=32)
def _root_sums(rs: RootSystem) -> tuple[tuple[int | None, ...], ...]:
    """``sums[i][j]``: the index of root i + root j if that is a root, else None.
    Built once per root system, only by ``minimal``: on E8 it outcosts ``certify``."""
    return tuple(tuple(rs.root_index.get(tuple(x + y for x, y in zip(a, b))) for b in rs.roots) for a in rs.roots)


@lru_cache(maxsize=32)
def _partners(rs: RootSystem) -> tuple[int, ...]:
    """Bit j of ``partners[i]``: root i + root j is a root (``_root_sums``); a basis is closed iff none are partners."""
    return tuple(sum(1 << j for j, s in enumerate(row) if s is not None) for row in _root_sums(rs))


def _rechecked(rs: RootSystem, psi: tuple[Root, ...], closed: bool | None) -> None:
    """A minimal set the search found, re-checked for rank-many roots (which
    the search does not assume) and, unless ``closed`` is None (Psi itself),
    for closure, as the caller decided it without the search, and span by
    ``det = +-1`` (``exact.int_det``): then it is a lattice basis, no two of
    its roots sum into it, and L is r_2^l (``chevalley.normal_form``)."""
    if len(psi) != rs.rank:
        raise AssertionError(f"minimal set {psi} fails the rank re-check: {len(psi)} roots, rank {rs.rank}")
    if closed is not None and (not closed or int_det(psi) not in (1, -1)):
        raise AssertionError(f"enumerated set {psi} fails the closure or determinant re-check")


def _smaller_minimal(spec: SubalgebraSpec) -> tuple[Root, ...] | None:
    """The first minimal set of the search over the closed spanning Psi if
    it is a proper subset of Psi, else None."""
    found = _minimal_sets(spec.system, spec.psi, first=True)
    if not found:
        raise AssertionError(f"the search over the closed spanning {spec.psi} found no minimal set")
    counter = found[0]  # ascending in index, as Psi is
    own = len(counter) == len(spec.psi)  # Psi itself, with closure and span decided
    _rechecked(spec.system, counter, None if own else closure_violation(spec.system, counter) is None)
    return None if own else counter


def is_minimal(spec: SubalgebraSpec) -> tuple[bool, tuple[Root, ...] | None]:
    """True iff no proper subset of Psi is closed and spanning; else the
    first minimal one that the search over Psi finds.

    Precondition: the spec itself is closed and spanning (ValueError if not).
    """
    _require_closed_spanning(spec)
    counter = _smaller_minimal(spec)
    return counter is None, counter


def enumerate_minimal(rs: RootSystem, cap: int = 1 << 24) -> RootSets:
    """All minimal Q-graded subsets in the printed order ``(len(psi), psi)``,
    as the search finds them, held as root indices in one ``array("H")`` (B20
    has 800 roots).  Each is re-checked as it is found: ``_rechecked``, and
    its indices ascend and it sorts after the set before, so none repeats.
    ``cap``, a bound on ``2^|roots|``, only bounds the cost."""
    roots = rs.roots
    if 1 << len(roots) > cap:
        raise EnumerationCapExceeded(f"2^{len(roots)} subsets exceed the cap {cap}; certify individual subsets instead")
    partners, sets, last = _partners(rs), array("H"), ()

    def keep(ids: tuple[int, ...]) -> bool:
        nonlocal last
        psi, mask, hits = tuple(map(roots.__getitem__, ids)), 0, 0
        for i in ids:  # the set, and the roots that a root of it sums with to a root
            mask, hits = mask | 1 << i, hits | partners[i]
        _rechecked(rs, psi, not mask & hits)  # no sum is a root: closed; with det +-1 that is all closure allows
        if psi <= last or list(ids) != sorted(set(ids)):
            raise AssertionError(f"enumerated set {psi} fails the order re-check: it does not sort after {last}")
        last = psi
        sets.extend(ids)
        return False

    _minimal_sets(rs, roots, labels=tuple(sorted(range(len(roots)), key=roots.__getitem__, reverse=True)), keep=keep)
    return RootSets(rs, rs.rank, sets)


def derived_algebra_dim(g: LieAlgebra) -> int:
    """dim [L, L] from the structure constants."""
    span = Echelon()
    for entry in g.structure.values():
        span.add(dict(entry))
    return span.rank


def certify(spec: SubalgebraSpec) -> QGradedCertificate:
    """Full certificate: closure, span, minimality, metabelian, dimensions.

    Closure and span are each decided once.  For a closed spanning Psi the
    certificate records the derived-algebra dimensions, whether ``[L, L]`` is
    the sum of the root spaces and abelian, and on failure a nonzero bracket
    pair.  Otherwise minimality and the metabelian check are not run, and
    their fields stay None.
    """
    closed, cw = is_closed(spec)
    spanning, factors = spans_q(spec)
    if not (closed and spanning):
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
    sub = extract_subalgebra(spec)
    l, m = spec.system.rank, len(spec.psi)
    ddim = derived_algebra_dim(sub)
    nonzero = ((a, b) for a in range(m) for b in range(a + 1, m) if any(c for _, c in sub.bracket_basis(l + a, l + b)))
    witness = next(((spec.psi[a], spec.psi[b]) for a, b in nonzero), None)
    counter = _smaller_minimal(spec)
    return QGradedCertificate(
        spec=spec,
        closed=True,
        closure_witness=None,
        spans=True,
        invariant_factors=factors,
        minimal=counter is None,
        minimal_counterexample=counter,
        metabelian=witness is None and ddim == m,
        metabelian_witness=witness,
        dims=(l, ddim, sub.dim),
    )

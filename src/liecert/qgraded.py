"""Q-graded subalgebra decisions: closure, lattice span, minimality,
enumeration, and the abelian-derived-algebra certificate.

A subset Psi of the roots designates ``L = H + sum_{beta in Psi} L_beta``.
``L`` is a subalgebra iff Psi is closed under root addition, and Q-graded iff
additionally Psi spans the root lattice over Z: rank-many Smith invariant
factors (``exact.invariant_factors``), all 1.  Minimality means no proper
subset is simultaneously closed and spanning.  One pruned walk over closed
subsets decides it: ``enumerate_minimal`` runs it over the whole root system
and finds every minimal set, and ``is_minimal`` and ``certify`` run it over
Psi and stop at the first minimal set, which is Psi iff Psi is minimal.
``certify`` decides closure and span once each.
"""

from __future__ import annotations

from .chevalley import LieAlgebra, SubalgebraSpec, closure_violation, extract_subalgebra
from .exact import Echelon, _Value, hermite_insert, invariant_factors
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
    w = closure_violation(spec.system, spec.psi)
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


def _minimal_sets(rs: RootSystem, roots: tuple[Root, ...], first: bool) -> list[tuple[Root, ...]]:
    """The minimal sets among the closed spanning subsets of ``roots``, in
    the order they are found; only the first if ``first``.  ``roots`` is the
    root system or a closed Psi: a root sum of two of them is one of them.

    One depth-first walk over the closed subsets decides minimality as it
    goes.  It backtracks over the roots in index order, trying "leave root k"
    before "take root k", and checks each root-sum triple once, when the
    largest of its three indices is decided, so only closed prefixes are
    extended.  A closed set is reached after all of its closed proper
    subsets: they first differ from it at a root the subset leaves.  So the
    walk over a closed spanning Psi finds Psi first iff Psi is minimal.
    Three prunes keep the walk small; each drops only sets that cannot be
    minimal:

    (a) Root k is never taken when the new prefix contains a minimal set
        already found, since every set below it would contain one too.  Such
        a prefix spans, so this saves the closure that (b) would take.  Only
        found sets whose last root is k need a look: by this same rule, none
        lies inside the prefix before root k.
    (b) The prefix's Hermite pivots (``exact.hermite_insert``) are carried
        down, one insertion per taken root.  Once a prefix P spans the root
        lattice, every closed set below it contains C = closure(P), which is
        closed and spanning, so C is the only candidate below P and the walk
        stops there.  C lies below P iff it adds no root before the last one
        taken; it is then minimal iff it contains no set found so far, as
        each of its closed proper subsets is reached before P.
    (c) A prefix cannot span once its pivots plus the roots still undecided
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
    # bit t of holders[k] is set iff the t-th set found holds root k, and of
    # tops[k] iff root k is its last root.  A set contains found set t iff
    # no root it lacks has bit t in its holders.
    holders = [0] * n
    tops = [0] * n
    found: list[int] = []

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

    def walk(k: int, mask: int, lacked: int, pivots: dict[int, list[int]]) -> None:
        # mask: the prefix over roots < k, which does not span; lacked: the
        # holders of the roots < k outside it.  Sets found below this node
        # hold none of those roots, so ``lacked`` stays exact down here.
        if k == n or len(pivots) + n - k < l:
            return  # (c)
        for pair in out_pairs[k]:
            if mask & pair == pair:
                break
        else:
            walk(k + 1, mask, lacked | holders[k], pivots)
            if first and found:
                return
        for bi, bs in in_pairs[k]:
            if mask & bi and not mask & bs:
                return
        if tops[k] & ~lacked:
            return  # (a): the prefix with root k holds a found set ending at k
        taken = mask | 1 << k
        grown = dict(pivots)
        hermite_insert(grown, roots[k], l)
        if len(grown) < l or any(row[c] != 1 for c, row in grown.items()):
            walk(k + 1, taken, lacked, grown)
            return
        # (b): every closed set below holds c; c is one of them iff it adds
        # no root before k, and minimal iff it holds no set found so far
        c = closure(taken, ((2 << k) - 1) & ~taken)
        if c is None:
            return
        blocked = lacked
        for r in range(k + 1, n):
            if not c >> r & 1:
                blocked |= holders[r]
        if blocked != (1 << len(found)) - 1:
            return
        bit = 1 << len(found)
        for r in range(n):
            if c >> r & 1:
                holders[r] |= bit
        tops[c.bit_length() - 1] |= bit
        found.append(c)

    walk(0, 0, 0, {})
    return [tuple(roots[k] for k in range(n) if mask >> k & 1) for mask in found]


def _rechecked(rs: RootSystem, psi: tuple[Root, ...], decided: bool = False) -> SubalgebraSpec:
    """A minimal set the walk found, re-checked for closure and span (by its
    Smith invariant factors, ``exact.invariant_factors``) unless ``decided``,
    and for rank-many roots: then it is a lattice basis, no two of its roots
    sum into it, and L is r_2^l, which ``chevalley.normal_form`` reads off
    the bracket table of the extraction."""
    spec = SubalgebraSpec(rs, psi)
    if not decided and (closure_violation(rs, spec.psi) is not None or not spans_q(spec)[0]):
        raise AssertionError(f"enumerated set {spec.psi} fails the closure or Smith-form re-check")
    if len(spec.psi) != rs.rank:
        raise AssertionError(f"minimal set {spec.psi} fails the rank re-check: {len(spec.psi)} roots, rank {rs.rank}")
    return spec


def _smaller_minimal(spec: SubalgebraSpec) -> tuple[Root, ...] | None:
    """The first minimal set of the walk over the closed spanning Psi if it
    is a proper subset of Psi, else None."""
    first = _minimal_sets(spec.system, spec.psi, first=True)
    if len(first) != 1:
        raise AssertionError(f"the walk over the closed spanning {spec.psi} found no minimal set")
    own = len(first[0]) == len(spec.psi)  # Psi itself, with closure and span decided
    found = _rechecked(spec.system, first[0], decided=own).psi
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
    """All minimal Q-graded subsets, canonically ordered: the walk of
    ``_minimal_sets`` over the whole root system.  ``cap`` bounds
    ``2^|roots|``, the size of the search space."""
    n = len(rs.roots)
    if 1 << n > cap:
        raise EnumerationCapExceeded(f"2^{n} subsets exceed the cap {cap}; certify individual subsets instead")
    minimal = [_rechecked(rs, psi) for psi in _minimal_sets(rs, rs.roots, first=False)]
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

"""Reference minimality searches for the tests.

``smaller_qgraded`` is the exhaustive subset search that ``qgraded`` used
before its walk over Psi: it tries every subset of Psi with at least rank
elements, smallest first and each size in ``combinations`` order.  It shares
only the closure and span tests with the walk, which is checked against it
in ``test_qgraded``.

``minimal_sets_walk`` is the pruned walk over closed subsets that
``enumerate_minimal`` ran before ``qgraded._minimal_sets``.  It decides
minimality from closure and span alone, so it is the oracle for the search,
which looks only at sets of pairwise non-summing roots: for every minimal set
of a root system, and for the first one over a closed spanning Psi.

``closed_spanning_sample`` draws closed spanning Psi to compare the two on.

``search_finding`` stands in for ``qgraded._minimal_sets`` in tests that
hand the re-checks sets the search would never find.
"""

from __future__ import annotations

import random
from itertools import combinations

from liecert.chevalley import SubalgebraSpec
from liecert.exact import hermite_insert
from liecert.qgraded import is_closed, spans_q
from liecert.rootsys import Root, RootSystem


def smaller_qgraded(spec: SubalgebraSpec) -> tuple[Root, ...] | None:
    """A proper subset of Psi that is closed and spanning, by exhaustive
    search, else None.  The caller has decided that Psi itself is both."""
    rs = spec.system
    for size in range(rs.rank, len(spec.psi)):  # spanning needs at least rank elements
        for subset in combinations(spec.psi, size):
            sub = SubalgebraSpec(rs, subset)
            if is_closed(sub)[0] and spans_q(sub)[0]:
                return sub.psi
    return None


def minimal_sets_walk(rs: RootSystem, roots: tuple[Root, ...]) -> list[tuple[Root, ...]]:
    """The minimal sets among the closed spanning subsets of ``roots``, in
    the order they are found.  ``roots`` is the root system or a closed Psi:
    a root sum of two of them is one of them.

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


def _closure(rs: RootSystem, roots) -> set[Root]:
    found, todo = set(roots), list(roots)
    while todo:
        a = todo.pop()
        for b in list(found):
            c = tuple(x + y for x, y in zip(a, b))
            if c in rs.root_index and c not in found:
                found.add(c)
                todo.append(c)
    return found


def closed_spanning_sample(rs: RootSystem, seed: int, tries: int) -> list[tuple[Root, ...]]:
    """Distinct closed spanning Psi, each the closure of a seeded random pick,
    in turn: rank to rank + 4 roots; part of the roots positive on a random
    functional; part of the positive roots with up to three more roots."""
    rng, seen = random.Random(seed), {}
    for t in range(tries):
        if t % 3 == 0:
            pick = rng.sample(rs.roots, rng.randint(rs.rank, rs.rank + 4))
        elif t % 3 == 1:
            w = [rng.uniform(-1, 1) for _ in range(rs.rank)]
            half = [r for r in rs.roots if sum(a * b for a, b in zip(r, w)) > 0]
            pick = rng.sample(half, rng.randint(rs.rank, len(half)))
        else:
            pos = rs.positive_roots
            pick = rng.sample(pos, rng.randint(1, len(pos))) + rng.sample(rs.roots, rng.randint(0, 3))
        psi = SubalgebraSpec(rs, tuple(_closure(rs, pick))).psi
        if psi not in seen and spans_q(SubalgebraSpec(rs, psi))[0]:
            seen[psi] = None
    return list(seen)


def search_finding(*sets: tuple[Root, ...]):
    """A stand-in for ``qgraded._minimal_sets`` that finds ``sets`` (tuples
    of roots), in this order: each goes to ``keep`` as the tuple of its
    roots' indices in ``roots``, as given; without ``keep`` they are
    returned, with ``first`` only the first."""

    def search(rs, roots, first=False, labels=None, keep=None):
        if keep is None:
            return list(sets[:1] if first else sets)
        for psi in sets:
            if keep(tuple(roots.index(r) for r in psi)):
                break
        return []

    return search

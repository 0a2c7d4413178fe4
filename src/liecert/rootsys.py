"""Root systems of the simple types A-G in simple-root coordinates.

Roots are integer coordinate vectors over the simple basis; that is the one
and only representation used by the toolkit.  Generation closes the simple
roots under root strings read off the Cartan matrix.

Conventions: Cartan entry ``C[i][j] = <alpha_i, alpha_j> = 2(a_i,a_j)/(a_j,a_j)``.
For family B the short simple root comes first, which puts the doubled
coefficient on the first coordinate of the long roots (so B2 has the positive
roots (1,0), (0,1), (1,1), (2,1)).  The remaining families use the usual
Bourbaki node order.

The height of any root is its coefficient sum over the simple basis; for a
negative root this is negative and equals ``-ht(-r)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .exact import Rat, _ReadOnly

__all__ = ["RootSystem", "RootSets", "build_root_system", "height", "root_sum", "FAMILIES"]

Root = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def _chain(l: int) -> list[list[int]]:
    c = [[0] * l for _ in range(l)]
    for i in range(l):
        c[i][i] = 2
        if i + 1 < l:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    l = rank
    if family == "A":
        return _chain(l)
    if family == "B":
        # short root first: the double bond sits between nodes 1 and 2
        c = _chain(l)
        c[1][0] = -2
        return c
    if family == "C":
        c = _chain(l)
        c[l - 1][l - 2] = -2
        return c
    if family == "D":
        c = _chain(l - 1)
        for row in c:
            row.append(0)
        c.append([0] * l)
        c[l - 1][l - 1] = 2
        c[l - 3][l - 1] = -1
        c[l - 1][l - 3] = -1
        return c
    if family == "E":
        # Bourbaki numbering: node 2 is the branch node attached to node 4
        c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6)] + ([(6, 7)] if l >= 7 else []) + ([(7, 8)] if l == 8 else [])
        edges.append((2, 4))
        for a, b in edges:
            c[a - 1][b - 1] = -1
            c[b - 1][a - 1] = -1
        return c
    if family == "F":
        c = _chain(4)
        c[1][2] = -2
        c[2][1] = -1
        return c
    if family == "G":
        return [[2, -1], [-3, 2]]
    raise ValueError(f"unknown family {family!r}")


def _valid_rank(family: str, rank: int) -> bool:
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 3,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family, False)


def expected_root_count(family: str, rank: int) -> int:
    l = rank
    return {
        "A": l * (l + 1),
        "B": 2 * l * l,
        "C": 2 * l * l,
        "D": 2 * l * (l - 1),
        "E": {6: 72, 7: 126, 8: 240}[l] if l in (6, 7, 8) else 0,
        "F": 48,
        "G": 12,
    }[family]


def height(r: Root) -> int:
    """Coefficient sum over the simple basis; negative for negative roots."""
    return sum(r)


class RootSystem(_ReadOnly):
    def __init__(
        self,
        family: str,
        rank: int,
        cartan: tuple[tuple[int, ...], ...],
        roots: tuple[Root, ...],
        root_index: dict[Root, int],
        symmetrizer: tuple[int, ...],  # d_i proportional to (a_i, a_i)/2
    ):
        self.__dict__.update(
            family=family, rank=rank, cartan=cartan, roots=roots, root_index=root_index, symmetrizer=symmetrizer
        )

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        l = self.rank
        return tuple(tuple(1 if i == j else 0 for j in range(l)) for i in range(l))

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        # filtered on first use, then kept: the system is built once per type
        return tuple(r for r in self.roots if height(r) > 0)

    def check_root(self, r: Root) -> Root:
        """r as a tuple of ints; ValueError unless it is a root (``1.0`` reads
        as 1, and a non-integral coordinate is refused, not truncated)."""
        key = tuple(int(x) for x in r)
        if key != tuple(r):
            raise ValueError(f"{tuple(r)} has a non-integral coordinate")
        if key not in self.root_index:
            raise ValueError(f"{key} is not a root of {self.family}{self.rank}")
        return key

    def pairing(self, beta: Root, i: int) -> int:
        """``<beta, alpha_i> = 2(beta, a_i)/(a_i, a_i)`` from the Cartan matrix."""
        return sum(b * self.cartan[k][i] for k, b in enumerate(beta) if b)

    def inner(self, beta: Root, gamma: Root) -> Rat:
        """Invariant inner product on the root lattice (fixed normalisation)."""
        # (a_k, a_i) = C[k][i] * d_i, all integers: sum exactly, wrap once
        cartan, d = self.cartan, self.symmetrizer
        return Fraction(
            sum(b * g * cartan[k][i] * d[i] for k, b in enumerate(beta) if b for i, g in enumerate(gamma) if g)
        )

    def reflect(self, beta: Root, i: int) -> Root:
        """Simple reflection s_i(beta) = beta - <beta, alpha_i> alpha_i."""
        k = self.pairing(beta, i)
        out = list(beta)
        out[i] -= k
        return tuple(out)

    def string_down_length(self, beta: Root, alpha: Root) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = tuple(b - a for b, a in zip(beta, alpha))
        while cur in self.root_index:
            p += 1
            cur = tuple(c - a for c, a in zip(cur, alpha))
        return p

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank, "roots": [list(r) for r in self.roots]}


class RootSets(_ReadOnly):
    """A read-only sequence of sets of ``size`` roots of ``system``, held as their
    root indices in one flat sequence of ints; each item is the tuple of its roots."""

    def __init__(self, system: RootSystem, size: int, indices):
        self.__dict__.update(system=system, size=size, indices=indices)

    def __len__(self) -> int:
        return len(self.indices) // self.size

    def __getitem__(self, k: int) -> tuple[Root, ...]:
        start = range(len(self))[k] * self.size  # IndexError past the end, which ends iteration
        return tuple(map(self.system.roots.__getitem__, self.indices[start : start + self.size]))


def _symmetrizer(cartan: list[list[int]]) -> tuple[int, ...]:
    l = len(cartan)
    d: list[Fraction | None] = [None] * l
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(l):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                # symmetry of (a_i, a_j): C[i][j] d_j = C[j][i] d_i
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                todo.append(j)
    if any(x is None for x in d):
        raise AssertionError("Cartan graph must be connected")
    denom = 1
    for x in d:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of the simple type, built once per type (it is frozen)."""
    return _build_root_system(family.upper(), rank)


@lru_cache(maxsize=32)
def _build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system, generating positives level by level."""
    if family not in FAMILIES or not _valid_rank(family, rank):
        raise ValueError(f"({family}, {rank}) is not a valid simple type")
    cartan = _cartan_matrix(family, rank)
    l = rank
    simple = [tuple(1 if i == j else 0 for j in range(l)) for i in range(l)]
    positives: set[Root] = set(simple)
    level = list(simple)
    while level:
        nxt: set[Root] = set()
        for beta in level:
            for i in range(l):
                alpha = simple[i]
                # walk the alpha-string downwards from beta
                p = 0
                cur = tuple(b - a for b, a in zip(beta, alpha))
                while cur in positives:
                    p += 1
                    cur = tuple(c - a for c, a in zip(cur, alpha))
                pair = sum(b * cartan[k][i] for k, b in enumerate(beta) if b)
                if p - pair >= 1:
                    cand = tuple(b + a for b, a in zip(beta, alpha))
                    if cand not in positives:
                        nxt.add(cand)
        positives.update(nxt)
        level = sorted(nxt)

    roots = sorted(positives | {tuple(-x for x in r) for r in positives}, key=lambda r: (height(r), r))
    count = expected_root_count(family, rank)
    if len(roots) != count:
        raise AssertionError(f"generated {len(roots)} roots for {family}{rank}, expected {count}")
    index = {r: k for k, r in enumerate(roots)}
    return RootSystem(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        roots=tuple(roots),
        root_index=index,
        symmetrizer=_symmetrizer(cartan),
    )


def root_sum(rs: RootSystem, a: Root, b: Root) -> Root | None:
    """``a + b`` when that is again a root, else None (zero is not a root)."""
    a = rs.check_root(a)
    b = rs.check_root(b)
    s = tuple(x + y for x, y in zip(a, b))
    return s if s in rs.root_index else None

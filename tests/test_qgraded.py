"""Closure/span/minimality decisions and the minimal-subalgebra enumerator."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from liecert.chevalley import SubalgebraSpec, closure_violation, extract_subalgebra
from liecert.exact import MatQ
from liecert.qgraded import (
    EnumerationCapExceeded,
    certify,
    derived_algebra_dim,
    enumerate_minimal,
    is_closed,
    is_minimal,
    spans_q,
    verify_metabelian,
)
from liecert.rootsys import RootSystem, build_root_system
from exact_reference import rref
from qgraded_reference import smaller_qgraded
from snf_reference import hermite_pivots, smith_factors

# enumerate_minimal output of the former scan over all 2^|roots| subsets,
# one "--psi"-style string per set, in output order
FROZEN = json.loads((Path(__file__).parent / "golden" / "minimal_sets.json").read_text(encoding="utf-8"))
SRC = str(Path(__file__).resolve().parents[1] / "src")

B2_MINIMAL = [
    {(1, 0), (2, 1)},       # alpha, 2a+b
    {(1, 0), (0, -1)},      # alpha, -beta
    {(0, 1), (1, 1)},       # beta, a+b
    {(0, 1), (-1, 0)},      # beta, -alpha
    {(1, 1), (2, 1)},       # a+b, 2a+b
    {(-1, 0), (-2, -1)},
    {(0, -1), (-1, -1)},
    {(-1, -1), (-2, -1)},
]


@pytest.fixture(scope="module")
def b2rs():
    return build_root_system("B", 2)


def test_is_closed_examples(b2rs):
    assert is_closed(SubalgebraSpec(b2rs, ((1, 0), (2, 1))))[0]
    ok, w = is_closed(SubalgebraSpec(b2rs, ((1, 0), (0, 1))))
    assert not ok
    assert set(w[:2]) == {(1, 0), (0, 1)} and w[2] == (1, 1)
    assert is_closed(SubalgebraSpec(b2rs, ((1, 0), (-1, 0))))[0]


def test_spans_examples(b2rs):
    ok, factors = spans_q(SubalgebraSpec(b2rs, ((1, 0), (2, 1))))
    assert ok and factors == (1, 1)
    ok, factors = spans_q(SubalgebraSpec(b2rs, ((1, 0), (-1, 0))))
    assert not ok and len(factors) == 1
    ok, factors = spans_q(SubalgebraSpec(b2rs, ((0, 1), (2, 1))))
    assert not ok and factors == (1, 2)


def test_spans_oracle_small_combinations(b2rs):
    # oracle: (1,0) is not a small integer combination of beta and 2a+b
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            assert (c1 * 0 + c2 * 2, c1 * 1 + c2 * 1) != (1, 0)


def test_is_minimal_examples(b2rs):
    assert is_minimal(SubalgebraSpec(b2rs, ((1, 0), (2, 1)))) == (True, None)
    ok, counter = is_minimal(SubalgebraSpec(b2rs, b2rs.roots))
    assert not ok and set(counter) in B2_MINIMAL


def test_is_minimal_requires_preconditions(b2rs):
    with pytest.raises(ValueError):
        is_minimal(SubalgebraSpec(b2rs, ((1, 0), (0, 1))))  # not closed
    with pytest.raises(ValueError):
        is_minimal(SubalgebraSpec(b2rs, ((1, 0), (-1, 0))))  # not spanning


def test_enumerate_b2_golden(b2rs):
    found = [set(s.psi) for s in enumerate_minimal(b2rs)]
    assert len(found) == 8
    for want in B2_MINIMAL:
        assert want in found


def test_enumerate_a2_contains_reference_families():
    rs = build_root_system("A", 2)
    found = [set(s.psi) for s in enumerate_minimal(rs)]
    for want in [{(1, 0), (1, 1)}, {(0, 1), (1, 1)}, {(1, 0), (0, -1)}]:
        assert want in found


def test_enumerate_a1():
    rs = build_root_system("A", 1)
    found = [set(s.psi) for s in enumerate_minimal(rs)]
    assert found == [{(-1,)}, {(1,)}] or found == [{(1,)}, {(-1,)}]
    assert len(found) == 2


def test_enumerate_members_certify_and_antichain():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        specs = enumerate_minimal(rs)
        sets = [set(s.psi) for s in specs]
        for s in specs:
            assert is_closed(s)[0]
            assert spans_q(s)[0]
            assert is_minimal(s)[0]
        for a in sets:
            for b in sets:
                if a is not b:
                    assert not a < b
        # negation symmetry
        for a in sets:
            assert {tuple(-x for x in r) for r in a} in sets


def test_enumeration_cap():
    rs = build_root_system("E", 6)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_minimal(rs, cap=1 << 24)


def test_metabelian_on_enumerated(b2rs):
    for spec in enumerate_minimal(b2rs):
        cert = verify_metabelian(spec)
        assert cert.metabelian and cert.metabelian_witness is None
        assert cert.dims == (2, 2, 4)
        assert cert.minimal


def test_metabelian_fails_for_positive_roots(b2rs):
    spec = SubalgebraSpec(b2rs, ((1, 0), (0, 1), (1, 1), (2, 1)))
    cert = verify_metabelian(spec)
    assert not cert.minimal
    assert not cert.metabelian
    a, b = cert.metabelian_witness
    assert tuple(x + y for x, y in zip(a, b)) in b2rs.root_index


def test_metabelian_extends_to_rank_three_types():
    # beyond the reference types: every minimal subset of B3 and C3 is
    # metabelian too, and they all have exactly rank-many roots
    for family, rank in [("B", 3), ("C", 3)]:
        rs = build_root_system(family, rank)
        specs = enumerate_minimal(rs)
        assert specs
        for spec in specs:
            assert len(spec.psi) == rank
            assert verify_metabelian(spec).metabelian


def test_metabelian_a1_full_system():
    # {a, -a} in A1 is closed and spanning but the derived algebra is all of L
    rs = build_root_system("A", 1)
    cert = verify_metabelian(SubalgebraSpec(rs, ((1,), (-1,))))
    assert not cert.metabelian
    assert cert.dims[1] == 3  # [L, L] = L for sl2


def test_certify_bundle(b2rs):
    cert = certify(SubalgebraSpec(b2rs, ((1, 0), (0, -1))))
    assert cert.all_positive()
    obj = cert.to_json()
    assert obj["closed"] and obj["spans_q"] and obj["minimal"] and obj["metabelian"]
    cert2 = certify(SubalgebraSpec(b2rs, ((1, 0), (0, 1))))
    assert not cert2.closed and cert2.minimal is None and cert2.metabelian is None
    assert not cert2.all_positive()


def _psi(rs, mask):
    return tuple(rs.roots[k] for k in range(len(rs.roots)) if mask >> k & 1)


def _python(args, hashseed=None, optimize=False):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    env.pop("LIECERT_SEED", None)
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_enumerate_matches_frozen_lists(key):
    rs = build_root_system(key[0], int(key[1:]))
    got = [";".join(",".join(map(str, r)) for r in s.psi) for s in enumerate_minimal(rs)]
    assert got == FROZEN[key]


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_minimal_sets_have_rank_many_roots(key):
    # a cross-check of the frozen output, not a rule the enumerator relies on
    rank = int(key[1:])
    assert all(len(text.split(";")) == rank for text in FROZEN[key])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_type_a_counts_are_twice_cayley(n):
    # 2 (n+1)^(n-1): twice the number of labelled trees on n+1 vertices;
    # A5's 30 roots need a cap above the default 2^24
    assert len(enumerate_minimal(build_root_system("A", n), cap=1 << 30)) == 2 * (n + 1) ** (n - 1)


@pytest.mark.parametrize("family, rank, count", [("B", 4, 1024), ("C", 4, 1216)])
def test_rank_four_counts(family, rank, count):
    # the counts of the reference enumerator below, which takes about three
    # times as long
    assert len(enumerate_minimal(build_root_system(family, rank), cap=1 << 32)) == count


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


def _reference_minimal(rs: RootSystem) -> list[tuple]:
    """The enumerator before the pruned walk: every closed set, by size; one
    that contains no minimal set found earlier is minimal iff it spans."""
    l = rs.rank
    candidates = sorted((m for m in _closed_masks(rs) if m.bit_count() >= l), key=int.bit_count)
    found: list[int] = []
    for mask in candidates:
        if any(m & mask == m for m in found):
            continue
        if hermite_pivots(_psi(rs, mask), l) == [1] * l:
            found.append(mask)
    return sorted((_psi(rs, m) for m in found), key=lambda psi: (len(psi), psi))


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_enumerate_matches_reference_walk(key):
    rs = build_root_system(key[0], int(key[1:]))
    assert [s.psi for s in enumerate_minimal(rs)] == _reference_minimal(rs)


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_closed_walk_matches_subset_scan(family, rank):
    rs = build_root_system(family, rank)
    scan = [m for m in range(1 << len(rs.roots)) if closure_violation(rs, _psi(rs, m)) is None]
    assert sorted(_closed_masks(rs)) == scan


def test_closed_walk_counts():
    assert len(_closed_masks(build_root_system("A", 4))) == 6942
    assert len(_closed_masks(build_root_system("D", 4))) == 18291


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4)])
def test_hermite_span_agrees_with_smith_on_closed_subsets(family, rank):
    rs = build_root_system(family, rank)
    verdicts = set()
    for mask in _closed_masks(rs):
        psi = _psi(rs, mask)
        factors = smith_factors(psi)
        spans = factors == (1,) * rank
        assert (hermite_pivots(psi, rank) == [1] * rank) == spans, psi
        assert spans_q(SubalgebraSpec(rs, psi)) == (spans, factors), psi
        verdicts.add(spans)
    assert verdicts == {True, False}


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_walk_over_psi_matches_exhaustive_search(family, rank):
    # every closed spanning Psi: the same verdict as the reference search, and
    # a counterexample that is a closed spanning proper subset, itself minimal
    rs = build_root_system(family, rank)
    verdicts = set()
    for mask in _closed_masks(rs):
        spec = SubalgebraSpec(rs, _psi(rs, mask))
        if not spans_q(spec)[0]:
            continue
        minimal, counter = is_minimal(spec)
        assert minimal == (smaller_qgraded(spec) is None), spec.psi
        if counter is not None:
            sub = SubalgebraSpec(rs, counter)
            assert set(counter) < set(spec.psi), spec.psi
            assert is_closed(sub)[0] and spans_q(sub)[0], spec.psi
            assert smaller_qgraded(sub) is None, spec.psi
        verdicts.add(minimal)
    assert verdicts == {True, False}


def test_counterexample_is_rechecked(monkeypatch, b2rs):
    # a walk over Psi whose first set fails the re-check raises, as in the
    # enumeration; Psi itself is decided before the walk and not re-checked
    import liecert.qgraded as q

    monkeypatch.setattr(q, "_minimal_sets", lambda rs, roots, first: [((1, 0), (0, 1))])
    with pytest.raises(AssertionError, match="Smith-form re-check"):
        is_minimal(SubalgebraSpec(b2rs, b2rs.roots))
    monkeypatch.setattr(q, "_minimal_sets", lambda rs, roots, first: [])
    with pytest.raises(AssertionError, match="found no minimal set"):
        is_minimal(SubalgebraSpec(b2rs, b2rs.roots))


def test_derived_algebra_dim_matches_dense_rank():
    for family, rank in [("A", 1), ("B", 2), ("G", 2), ("A", 3)]:
        rs = build_root_system(family, rank)
        for psi in [rs.roots, rs.positive_roots, *(s.psi for s in enumerate_minimal(rs))]:
            g = extract_subalgebra(SubalgebraSpec(rs, psi))
            rows = [[dict(entry).get(k, 0) for k in range(g.dim)] for entry in g.structure.values()]
            assert derived_algebra_dim(g) == rref(MatQ.from_rows(rows)).rank, psi


def test_walk_that_claims_span_early_is_caught_by_the_recheck(monkeypatch):
    # only the walk's binding is broken: a prefix one pivot short of rank
    # "spans" with a unit row, while spans_q reads the true invariant factors
    import liecert.qgraded as q

    real = q.hermite_insert

    def one_short(pivots, vec, dim):
        real(pivots, vec, dim)
        missing = [c for c in range(dim) if c not in pivots]
        if len(missing) == 1:
            pivots[missing[0]] = [int(i == missing[0]) for i in range(dim)]

    monkeypatch.setattr(q, "hermite_insert", one_short)
    for family, rank in [("B", 2), ("A", 3)]:
        with pytest.raises(AssertionError, match="Smith-form re-check"):
            enumerate_minimal(build_root_system(family, rank))


def test_minimal_output_ignores_hash_seed():
    argv = ["-m", "liecert.cli", "minimal", "--family", "A", "--rank", "3"]
    runs = [_python(argv, hashseed=seed) for seed in ("0", "1", "7")]
    assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert json.loads(runs[0].stdout)["verdicts"]["count"] == 32


def test_enumerate_recheck_survives_python_O():
    """Each printed set is re-checked with the Smith form by explicit code."""
    script = textwrap.dedent(
        """
        import sys
        import liecert.qgraded as q
        from liecert.rootsys import build_root_system

        assert False, "asserts must be off for this check"
        q.spans_q = lambda spec: (False, ())
        try:
            q.enumerate_minimal(build_root_system("B", 2))
        except AssertionError as exc:
            print("raised:", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    proc = _python(["-c", script], optimize=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Smith-form re-check" in proc.stdout

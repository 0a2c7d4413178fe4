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
)
from liecert.rootsys import RootSystem, build_root_system, root_sum
from exact_reference import rref
from qgraded_reference import closed_spanning_sample, minimal_sets_walk, search_finding, smaller_qgraded
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


def _specs(rs):
    """The minimal sets of ``rs`` as subalgebra specs."""
    return [SubalgebraSpec(rs, psi) for psi in enumerate_minimal(rs)]


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
    found = [set(psi) for psi in enumerate_minimal(b2rs)]
    assert len(found) == 8
    for want in B2_MINIMAL:
        assert want in found


def test_enumerate_a2_contains_reference_families():
    rs = build_root_system("A", 2)
    found = [set(psi) for psi in enumerate_minimal(rs)]
    for want in [{(1, 0), (1, 1)}, {(0, 1), (1, 1)}, {(1, 0), (0, -1)}]:
        assert want in found


def test_enumerate_a1():
    rs = build_root_system("A", 1)
    found = [set(psi) for psi in enumerate_minimal(rs)]
    assert found == [{(-1,)}, {(1,)}] or found == [{(1,)}, {(-1,)}]
    assert len(found) == 2


def test_enumerate_members_certify_and_antichain():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        specs = _specs(rs)
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
    for spec in _specs(b2rs):
        cert = certify(spec)
        assert cert.metabelian and cert.metabelian_witness is None
        assert cert.dims == (2, 2, 4)
        assert cert.minimal


def test_metabelian_fails_for_positive_roots(b2rs):
    spec = SubalgebraSpec(b2rs, ((1, 0), (0, 1), (1, 1), (2, 1)))
    cert = certify(spec)
    assert not cert.minimal
    assert not cert.metabelian
    a, b = cert.metabelian_witness
    assert tuple(x + y for x, y in zip(a, b)) in b2rs.root_index


def test_metabelian_extends_to_rank_three_types():
    # beyond the reference types: every minimal subset of B3 and C3 is
    # metabelian too, and they all have exactly rank-many roots
    for family, rank in [("B", 3), ("C", 3)]:
        rs = build_root_system(family, rank)
        specs = _specs(rs)
        assert specs
        for spec in specs:
            assert len(spec.psi) == rank
            assert certify(spec).metabelian


def test_metabelian_a1_full_system():
    # {a, -a} in A1 is closed and spanning but the derived algebra is all of L
    rs = build_root_system("A", 1)
    cert = certify(SubalgebraSpec(rs, ((1,), (-1,))))
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
    got = [";".join(",".join(map(str, r)) for r in psi) for psi in enumerate_minimal(rs)]
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
    assert list(enumerate_minimal(rs)) == _reference_minimal(rs)


ORACLE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2"]


@pytest.mark.parametrize("key", ORACLE_TYPES)
def test_unimodular_bases_match_the_full_walk(key):
    # the search relies on section 2 alone ("no two roots of a minimal set sum
    # to a root or zero"); the walk decides minimality from closure and span
    # alone.  Every set found is a unimodular root basis, or the rank
    # re-check raises.  This covers every type the default cap admits, and
    # A5, B4 and C4 beyond it.
    rs = build_root_system(key[0], int(key[1:]))
    walk = sorted((SubalgebraSpec(rs, psi).psi for psi in minimal_sets_walk(rs, rs.roots)), key=lambda p: (len(p), p))
    assert list(enumerate_minimal(rs, cap=1 << 32)) == walk


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4)])
def test_first_found_walk_matches_the_full_walk(family, rank):
    # on every closed spanning Psi, the search of is_minimal and certify stops
    # at the first set of the full walk over Psi
    import liecert.qgraded as q

    rs = build_root_system(family, rank)
    for mask in _closed_masks(rs):
        psi = _psi(rs, mask)
        if spans_q(SubalgebraSpec(rs, psi))[0]:
            assert q._minimal_sets(rs, psi, first=True) == [minimal_sets_walk(rs, psi)[0]], psi


def test_first_found_matches_the_walk_on_a_d4_sample():
    # a seeded sample of D4's closed spanning Psi; CI runs the same
    # comparison on the seed-11 samples of B4 and F4
    import liecert.qgraded as q

    rs = build_root_system("D", 4)
    sample = closed_spanning_sample(rs, seed=11, tries=600)
    assert len(sample) > 200
    for psi in sample:
        assert q._minimal_sets(rs, psi, first=True) == [minimal_sets_walk(rs, psi)[0]], psi


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
    # a search over Psi whose first set fails the re-check raises, as in the
    # enumeration; Psi itself is decided before the search and not re-checked
    import liecert.qgraded as q

    monkeypatch.setattr(q, "_minimal_sets", lambda rs, roots, first=False: [((1, 0), (0, 1))])
    with pytest.raises(AssertionError, match="closure or determinant re-check"):
        is_minimal(SubalgebraSpec(b2rs, b2rs.roots))
    monkeypatch.setattr(q, "_minimal_sets", lambda rs, roots, first=False: [])
    with pytest.raises(AssertionError, match="found no minimal set"):
        is_minimal(SubalgebraSpec(b2rs, b2rs.roots))


# (the sets the search finds, in this order; the re-check that refuses them)
RECHECK_CASES = {
    "not-closed": ([((1, 0), (0, 1))], "closure or determinant"),  # (1,1) is a root outside
    "det-2": ([((0, 1), (2, 1))], "closure or determinant"),  # closed, det -2
    "one-short": ([((1, 0),)], "rank"),
    "four-roots": ([((1, 0), (0, 1), (1, 1), (2, 1))], "rank"),  # closed and spanning
}
# minimal sets of B2, each passing the other re-checks, found out of the printed order
ORDER_CASES = {
    "out-of-order": [((1, 1), (2, 1)), ((1, 0), (2, 1))],
    "repeated": [((1, 0), (2, 1)), ((1, 0), (2, 1))],
    "roots-unsorted": [((2, 1), (1, 0))],  # its root indices descend
}


@pytest.mark.parametrize(
    "path, sets, message",
    [
        pytest.param(path, sets, message, id=f"{path}-{name}")
        for path in ("pairwise", "root-sums")
        for name, (sets, message) in RECHECK_CASES.items()
    ]
    + [pytest.param("root-sums", sets, "order", id=f"root-sums-{name}") for name, sets in ORDER_CASES.items()],
)
def test_recheck_refuses_sets_that_are_not_minimal(monkeypatch, b2rs, path, sets, message):
    # root-sums: minimal re-checks each set the search finds on its root
    # indices, closure from _partners and _root_sums; pairwise: certify
    # re-checks the first set of its search over Psi = Phi(B2), closure by
    # closure_violation.  Either exits 4 with the re-check's message.
    import io

    import liecert.qgraded as q
    from liecert.cli import run

    argv = ["minimal", "--family", "B", "--rank", "2"]
    if path == "pairwise":
        argv = ["certify", *argv[1:], "--psi=all"]
    monkeypatch.setattr(q, "_minimal_sets", search_finding(*sets))
    out = io.StringIO()
    assert run(argv, out=out) == 4
    assert f"{message} re-check" in json.loads(out.getvalue())["error"]
    # a minimal set found in its place passes every re-check
    monkeypatch.setattr(q, "_minimal_sets", search_finding(((1, 0), (2, 1))))
    out = io.StringIO()
    assert run(argv, out=out) == (0 if path == "root-sums" else 1)
    verdicts = json.loads(out.getvalue())["verdicts"]
    if path == "root-sums":
        assert verdicts["count"] == 1 and verdicts["minimal_subalgebras"] == [[[1, 0], [2, 1]]]
    else:
        assert verdicts["minimal_counterexample"] == [[1, 0], [2, 1]]


@pytest.mark.parametrize(
    "key", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2"]
)
def test_search_finds_the_sets_in_the_printed_order(monkeypatch, key):
    # the search that enumerate_minimal runs emits the printed order itself,
    # (len(psi), psi), with each set's roots in index order; nothing sorts them
    import liecert.qgraded as q

    rs, real, found = build_root_system(key[0], int(key[1:])), q._minimal_sets, []

    def recorded(rs, roots, first=False, labels=None, keep=None):
        return real(rs, roots, first, labels, lambda ids: found.append(ids) or keep(ids))

    monkeypatch.setattr(q, "_minimal_sets", recorded)
    count = len(enumerate_minimal(rs, cap=1 << 60))
    sets = [tuple(rs.roots[i] for i in ids) for ids in found]
    assert all(list(ids) == sorted(ids) for ids in found)
    assert sets == sorted(sets, key=lambda psi: (len(psi), psi))
    assert len(set(sets)) == len(sets) == count


def test_root_indices_past_a_byte_are_held(monkeypatch):
    # the A16 chain alpha_1, alpha_1 + alpha_2, ...: root indices 151 to 271,
    # held and written past 255; the search is a stand-in, so no A16
    # enumeration runs
    import io

    import liecert.qgraded as q
    from liecert.cli import run

    rs = build_root_system("A", 16)
    chain = tuple(tuple(int(k <= n) for k in range(16)) for n in range(16))
    ids = [rs.root_index[r] for r in chain]
    assert (ids[0], ids[-1]) == (151, 271) and sum(i > 255 for i in ids) > 1
    monkeypatch.setattr(q, "_minimal_sets", search_finding(chain))
    out = io.StringIO()
    assert run(["minimal", "--family", "A", "--rank", "16", "--cap", str(2**272)], out=out) == 0
    verdicts = json.loads(out.getvalue())["verdicts"]
    assert verdicts["count"] == 1 and verdicts["minimal_subalgebras"] == [[list(r) for r in chain]]


@pytest.mark.parametrize("key", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4", "E6"])
def test_root_sums_agree_with_root_sum(key):
    import liecert.qgraded as q

    rs = build_root_system(key[0], int(key[1:]))
    sums = q._root_sums(rs)
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            s = root_sum(rs, a, b)
            assert sums[i][j] == (None if s is None else rs.root_index[s]), (a, b)


def test_derived_algebra_dim_matches_dense_rank():
    for family, rank in [("A", 1), ("B", 2), ("G", 2), ("A", 3)]:
        rs = build_root_system(family, rank)
        for psi in [rs.roots, rs.positive_roots, *enumerate_minimal(rs)]:
            g = extract_subalgebra(SubalgebraSpec(rs, psi))
            rows = [[dict(entry).get(k, 0) for k in range(g.dim)] for entry in g.structure.values()]
            assert derived_algebra_dim(g) == rref(MatQ.from_rows(rows)).rank, psi


def test_walk_that_claims_span_early_is_caught_by_the_recheck(monkeypatch):
    # only qgraded's binding is broken: the enumerator takes a set one pivot
    # short of rank for a full-rank one with a unit row; the re-check counts
    # its roots before it takes a determinant
    import liecert.qgraded as q

    real = q.hermite_insert

    def one_short(pivots, vec, dim):
        real(pivots, vec, dim)
        missing = [c for c in range(dim) if c not in pivots]
        if len(missing) == 1:
            pivots[missing[0]] = [int(i == missing[0]) for i in range(dim)]

    monkeypatch.setattr(q, "hermite_insert", one_short)
    for family, rank in [("B", 2), ("A", 3)]:
        with pytest.raises(AssertionError, match="rank re-check"):
            enumerate_minimal(build_root_system(family, rank))


def test_minimal_output_ignores_hash_seed():
    argv = ["-m", "liecert.cli", "minimal", "--family", "A", "--rank", "3"]
    runs = [_python(argv, hashseed=seed) for seed in ("0", "1", "7")]
    assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert json.loads(runs[0].stdout)["verdicts"]["count"] == 32


def test_enumerate_recheck_survives_python_O():
    """Each printed set is re-checked by its determinant in explicit code."""
    script = textwrap.dedent(
        """
        import sys
        import liecert.qgraded as q
        from liecert.rootsys import build_root_system

        assert False, "asserts must be off for this check"
        q.int_det = lambda rows: 0
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
    assert "closure or determinant re-check" in proc.stdout


def test_order_recheck_survives_python_O():
    """A repeated set is refused by explicit code, not by an assert."""
    script = textwrap.dedent(
        """
        import io
        import sys
        import liecert.qgraded as q
        from liecert.cli import run

        assert False, "asserts must be off for this check"

        def search(rs, roots, first=False, labels=None, keep=None):
            twice = (roots.index((1, 0)), roots.index((2, 1)))
            keep(twice)
            keep(twice)

        q._minimal_sets = search
        out = io.StringIO()
        print(run(["minimal", "--family", "B", "--rank", "2"], out=out), out.getvalue())
        """
    )
    proc = _python(["-c", script], optimize=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("4 ") and "order re-check" in proc.stdout

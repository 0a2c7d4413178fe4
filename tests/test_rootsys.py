"""Root system construction, heights, sums, and the reflection-closure oracle."""

import random

import pytest

from liecert.rootsys import build_root_system, expected_root_count, height, root_sum


def weyl_closure_oracle(rs):
    """Independent oracle: close the simple roots under all simple reflections."""
    orbit = set(rs.simple_roots)
    frontier = list(orbit)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rs.rank):
                img = rs.reflect(beta, i)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return orbit


def test_b2_matches_reference_roots():
    rs = build_root_system("B", 2)
    pos = {(1, 0), (0, 1), (1, 1), (2, 1)}
    assert set(rs.roots) == pos | {(-a, -b) for a, b in pos}
    assert len(rs.roots) == 8


def test_a3_has_twelve_roots():
    assert len(build_root_system("A", 3).roots) == 12


def test_g2_matches_reflection_closure_oracle():
    rs = build_root_system("G", 2)
    assert len(rs.roots) == 12
    assert set(rs.roots) == weyl_closure_oracle(rs)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6), ("E", 7), ("E", 8)],
)
def test_root_counts_and_invariants(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == expected_root_count(family, rank)
    rootset = set(rs.roots)
    # closed under negation, sign-uniform coordinates, closed under reflections
    for r in rs.roots:
        assert tuple(-x for x in r) in rootset
        assert all(x >= 0 for x in r) or all(x <= 0 for x in r)
    if len(rs.roots) <= 100:
        for r in rs.roots:
            for i in range(rs.rank):
                assert rs.reflect(r, i) in rootset
    # exactly one of r, -r has positive height; exactly rank roots of height 1
    assert sum(1 for r in rs.roots if height(r) > 0) == len(rs.roots) // 2
    assert sum(1 for r in rs.roots if height(r) == 1) == rank


def test_roots_are_listed_in_height_then_lex_order():
    # SubalgebraSpec orders Psi by root index and relies on this order
    classical = [(family, rank) for family, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for rank in range(low, 9)]
    for family, rank in classical + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        assert list(rs.roots) == sorted(rs.roots, key=lambda r: (height(r), r)), (family, rank)
        assert all(rs.root_index[r] == k for k, r in enumerate(rs.roots))


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        build_root_system(family, rank)


def test_root_system_is_built_once_per_type():
    rs = build_root_system("E", 8)
    assert build_root_system("e", 8) is rs
    assert build_root_system("E", 7) is not rs
    with pytest.raises(ValueError):  # a refused type raises on every call
        build_root_system("E", 9)
    with pytest.raises(ValueError):
        build_root_system("E", 9)


def test_heights_b2():
    assert height((1, 0)) == 1
    assert height((2, 1)) == 3
    assert height((-1, -1)) == -2


def test_root_sum_b2():
    rs = build_root_system("B", 2)
    assert root_sum(rs, (1, 0), (0, 1)) == (1, 1)
    assert root_sum(rs, (1, 0), (1, 0)) is None  # 2*alpha is not a root
    assert root_sum(rs, (1, 0), (-1, 0)) is None  # zero is not a root


def test_root_sum_symmetric_and_height_additive():
    rs = build_root_system("G", 2)
    rng = random.Random(3)
    roots = list(rs.roots)
    for _ in range(60):
        a, b = rng.choice(roots), rng.choice(roots)
        s1, s2 = root_sum(rs, a, b), root_sum(rs, b, a)
        assert s1 == s2
        if s1 is not None:
            assert height(s1) == height(a) + height(b)


def test_root_sum_rejects_non_roots():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        root_sum(rs, (5, 5), (1, 0))


def test_non_integral_coordinates_are_refused_not_truncated():
    from liecert.chevalley import SubalgebraSpec

    rs = build_root_system("B", 2)
    assert rs.check_root((1.0, 0)) == (1, 0)
    for call in (
        lambda: rs.check_root((1.5, 0)),
        lambda: SubalgebraSpec(rs, [(1.5, 0.9), (2, 1)]),
        lambda: root_sum(rs, (1.5, 0), (1, 1.7)),
        lambda: root_sum(rs, (1, 0), (1, 1.7)),
    ):
        with pytest.raises(ValueError, match="non-integral coordinate"):
            call()


def test_inner_product_symmetry_and_norm_ratio():
    rs = build_root_system("G", 2)
    a1, a2 = rs.simple_roots
    assert rs.inner(a1, a2) == rs.inner(a2, a1)
    # long-to-short squared-norm ratio is 3 in G2
    assert rs.inner(a2, a2) / rs.inner(a1, a1) == 3


def test_json_export_shape():
    obj = build_root_system("B", 2).to_json()
    assert obj["family"] == "B" and obj["rank"] == 2
    assert [1, 0] in obj["roots"] and [2, 1] in obj["roots"]

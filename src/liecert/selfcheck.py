"""End-to-end acceptance criteria, shared by the test suite and the CLI
``selftest`` subcommand.

Each criterion is a function returning a :class:`CriterionResult`; all of
them are exact (tolerance zero) and deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache

from .chevalley import SubalgebraSpec, extract_subalgebra
from .dercalc import (
    aid_falsify_random,
    aid_membership,
    centroid_space,
    diagonal_map,
    diagonal_toral_algebra,
    leibniz_violation,
    scalar_derivation_verdict,
    verify_aid_eq_inn,
)
from .exact import _Value
from .loopalg import (
    Inner,
    LaurentPoly,
    OperatorSum,
    TensorDerivation,
    ToralToCenter,
    affine_bracket,
    aid_obstruction_check,
    decompose_derivation,
    diagonal_derivative,
    diagonal_derivative_aid_check,
    global_inner_match,
    leibniz_check,
    loop_aid_reduce,
    loop_context,
    toral_center_witness,
)
from .qgraded import certify, enumerate_minimal, is_closed, verify_metabelian
from .rootsys import build_root_system

__all__ = ["CriterionResult", "CRITERIA", "run_criteria"]


class CriterionResult(_Value):
    def __init__(self, number: int, name: str, ok: bool, detail: str, seconds: float):
        self.__dict__.update(number=number, name=name, ok=ok, detail=detail, seconds=seconds)


@lru_cache(maxsize=None)
def _minimal(family: str, rank: int):
    return tuple(enumerate_minimal(build_root_system(family, rank)))


def _b2_minimal_context():
    rs = build_root_system("B", 2)
    return loop_context(SubalgebraSpec(rs, ((1, 0), (2, 1))))


B2_REFERENCE_MINIMAL = [
    {(1, 0), (2, 1)},
    {(1, 0), (0, -1)},
    {(0, 1), (1, 1)},
    {(0, 1), (-1, 0)},
    {(1, 1), (2, 1)},
    {(-1, 0), (-2, -1)},
    {(0, -1), (-1, -1)},
    {(-1, -1), (-2, -1)},
]


def _chain_root(start: int, end: int, l: int):
    """alpha_start + ... + alpha_end as a coordinate vector (1-based ends)."""
    return tuple(1 if start <= k + 1 <= end else 0 for k in range(l))


def _reference_families(l: int):
    """The five reference families of root subsets for type A of rank l.

    The fifth one, as printed, starts with two adjacent simple roots and is
    therefore not closed; it is returned anyway so the certifier can record
    the rejection.
    """
    alt = tuple(
        tuple((1 if (i % 2 == 0) else -1) if k == i else 0 for k in range(l)) for i in range(l)
    )
    chain = tuple(_chain_root(1, k, l) for k in range(1, l + 1))
    fam3 = (_chain_root(2, 2, l),) + tuple(_chain_root(1, k, l) for k in range(2, l + 1))
    fam4 = (_chain_root(1, 1, l), _chain_root(3, 3, l)) + tuple(
        _chain_root(1, k, l) for k in range(3, l + 1)
    )
    fam5 = (_chain_root(2, 2, l), _chain_root(3, 3, l)) + tuple(
        _chain_root(1, k, l) for k in range(3, l + 1)
    )
    return [alt, chain, fam3, fam4, fam5]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(seed: int) -> tuple[bool, str]:
    """Rank-2 type B enumeration returns exactly the eight reference subsets,
    end to end through the command line."""
    import io
    import json

    from .cli import run

    buf = io.StringIO()
    code = run(["--seed", str(seed), "minimal", "--family", "B", "--rank", "2"], out=buf)
    if code != 0:
        return False, f"CLI exited with {code}"
    doc = json.loads(buf.getvalue())
    found = [set(map(tuple, psi)) for psi in doc["verdicts"]["minimal_subalgebras"]]
    ok = len(found) == 8 and all(ref in found for ref in B2_REFERENCE_MINIMAL)
    return ok, f"CLI enumerated {len(found)} minimal subsets, reference set matched: {ok}"


def criterion_2(seed: int) -> tuple[bool, str]:
    """Type-A reference families on ranks 3 and 4 certify closed, spanning,
    minimal; the fifth family as printed is rejected as not closed."""
    notes = []
    ok = True
    for l in (3, 4):
        rs = build_root_system("A", l)
        families = _reference_families(l)
        for idx, psi in enumerate(families, start=1):
            spec = SubalgebraSpec(rs, psi)
            if idx == 5:
                closed, w = is_closed(spec)
                if closed:
                    ok = False
                    notes.append(f"A{l} family 5 unexpectedly closed")
                else:
                    notes.append(
                        f"A{l} family 5 as printed is not closed "
                        f"({w[0]} + {w[1]} = {w[2]} escapes); recorded as a defect"
                    )
                continue
            cert = certify(spec)
            if not (cert.closed and cert.spans and cert.minimal):
                ok = False
                notes.append(f"A{l} family {idx} failed: {cert.to_json()}")
        # cross-check: families 1-4 instances appear in the complete rank-3 list
        if l == 3:
            complete = [set(s.psi) for s in _minimal("A", 3)]
            for idx, psi in enumerate(families[:4], start=1):
                if set(SubalgebraSpec(rs, psi).psi) not in complete:
                    ok = False
                    notes.append(f"A3 family {idx} missing from the complete enumeration")
    return ok, "; ".join(notes) if notes else "families 1-4 certified on A3 and A4"


def criterion_3(seed: int) -> tuple[bool, str]:
    """Every enumerated minimal subset over A1, A2, A3, B2, G2 has pairwise
    vanishing root-vector brackets."""
    total = 0
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        for spec in _minimal(family, rank):
            cert = verify_metabelian(spec)
            if not cert.metabelian or cert.metabelian_witness is not None:
                return False, f"violation at {family}{rank} psi={spec.psi}"
            total += 1
    return True, f"{total} minimal subalgebras verified metabelian, zero violations"


def criterion_4(seed: int) -> tuple[bool, str]:
    """Almost-inner equals inner on every enumerated minimal subalgebra over
    A2, A3, B2, G2, from Der = Inn with exact witnesses."""
    total = 0
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        for spec in _minimal(family, rank):
            if not verify_aid_eq_inn(spec).ok:
                return False, f"failed at {family}{rank} psi={spec.psi}"
            total += 1
    return True, f"{total} subalgebras verified; every derivation space equals its inner part"


def criterion_5(seed: int) -> tuple[bool, str]:
    """Scalar-derivation dichotomy between square and overweight cases."""
    notes = []
    # overweight (three positive roots of rank-2 type A): scalars (1, 0, 0)
    rs = build_root_system("A", 2)
    spec = SubalgebraSpec(rs, ((1, 0), (0, 1), (1, 1)))
    v = scalar_derivation_verdict(extract_subalgebra(spec), [1, 0, 0])
    if v["almost_inner"] or v["scalar_system_feasible"]:
        return False, f"overweight case not rejected: {v}"
    notes.append(
        "scalars (1,0,0) on the three-positive-root subalgebra: 3x2 scalar system "
        "infeasible and the map even fails Leibniz (the derived algebra is not abelian), "
        "so it is certifiably not an almost-inner derivation"
    )
    # the abelian model with the same weights realises the non-inner diagonal
    gm = diagonal_toral_algebra([[2, -1], [-1, 2], [1, 1]])
    d = diagonal_map(gm, [1, 0, 0])
    if leibniz_violation(gm, d) is not None:
        return False, "model diagonal map should be a derivation"
    verdict = aid_membership(gm, d)
    if verdict.status != "not-aid" or verdict.reason != "scalar-system":
        return False, f"model verdict {verdict.status} instead of scalar-system not-aid"
    if aid_falsify_random(gm, d, trials=64, seed=seed) is None:
        return False, "falsification missed the model's non-almost-inner diagonal"
    notes.append("abelian model with the same weights: diagonal derivation certified not almost inner")
    # square case: every diagonal derivation is inner on each |Psi| = rank example
    rng = random.Random(seed)
    checked = 0
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        for spec2 in _minimal(family, rank):
            g2 = extract_subalgebra(spec2)
            scalars = [Fraction(rng.randint(-4, 4)) for _ in range(g2.dim - g2.torus)]
            v2 = scalar_derivation_verdict(g2, scalars)
            if not (v2["is_derivation"] and v2["inner"]):
                return False, f"square case failed at {family}{rank} psi={spec2.psi}"
            checked += 1
    notes.append(f"{checked} square cases: every diagonal derivation inner")
    return True, "; ".join(notes)


def criterion_6(seed: int) -> tuple[bool, str]:
    """Centroids of minimal subalgebras: dimension = rank, diagonal,
    commuting."""
    checked = 0
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        for spec in _minimal(family, rank):
            g = extract_subalgebra(spec)
            cent = centroid_space(g)
            if len(cent.basis) != g.torus:
                return False, f"dim Cent = {len(cent.basis)} != {g.torus} at {family}{rank} {spec.psi}"
            # entry u of a row-major dim x dim matrix is on the diagonal iff dim + 1 divides u
            if any(u % (g.dim + 1) for phi in cent.basis for u in phi.nonzeros):
                return False, f"non-diagonal centroid element at {family}{rank} {spec.psi}"
            for a in cent.basis:
                for b in cent.basis:
                    if a.mul(b) != b.mul(a):
                        return False, "centroid elements fail to commute"
            checked += 1
    return True, f"{checked} centroids computed: dimension = rank, all diagonal and commuting"


def _random_laurent(rng: random.Random, span: int = 2) -> LaurentPoly:
    return LaurentPoly.from_dict(
        {deg: rng.randint(-2, 2) for deg in rng.sample(range(-span, span + 1), rng.randint(1, 2))}
    )


def loop_operator_cases(ctx, seed: int):
    """Criterion 7's 100 seeded operator sums as ``(op, fs, with_derivative)``."""
    g = ctx.algebra
    rng = random.Random(seed)
    for case in range(100):
        terms = []
        inner_parts = rng.randint(0, 2)
        tensor_parts = rng.randint(0, 2)
        for _ in range(tensor_parts):
            w = tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim))
            terms.append((Fraction(1), TensorDerivation(ctx, g.ad(w), _random_laurent(rng))))
        for _ in range(inner_parts):
            support = {
                deg: tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim))
                for deg in rng.sample(range(-2, 3), rng.randint(1, 2))
            }
            terms.append((Fraction(rng.randint(1, 2)), Inner(ctx.element(support))))
        fs = [LaurentPoly.zero(), LaurentPoly.zero()]
        with_derivative = case % 2 == 1
        if with_derivative:
            fs = [_random_laurent(rng), _random_laurent(rng)]
            terms.append((Fraction(1), diagonal_derivative(ctx, fs)))
        yield OperatorSum(ctx, tuple(terms)), fs, with_derivative


def criterion_7(seed: int) -> tuple[bool, str]:
    """Loop-operator decomposition on 100 seeded random operator sums."""
    ctx = _b2_minimal_context()
    checked_inner_witness = checked_derivative_refuted = 0
    for case, (op, fs, with_derivative) in enumerate(loop_operator_cases(ctx, seed)):
        ok, pair = leibniz_check(op)
        if not ok:
            return False, f"case {case}: operator fails Leibniz at {pair[0].to_json()}, {pair[1].to_json()}"
        dec = decompose_derivation(op)
        for k in range(ctx.dim):
            if not dec.residual(ctx.basis_at(k, 0)).is_zero:
                return False, f"case {case}: residual does not kill L(x)1"
        for probe in [ctx.basis_at(k, d) for k in range(ctx.dim) for d in (-2, 0, 1, 3)]:
            lhs = dec.tensor_sum()(probe) + dec.residual(probe)
            if lhs != op(probe):
                return False, f"case {case}: decomposition does not reassemble the operator"
        res = loop_aid_reduce(ctx, dec.tensor_terms)
        if not res.all_inner:
            return False, f"case {case}: tensor components of an inner/ad sum must be inner"
        checked_inner_witness += 1
        family_is_aid, data = diagonal_derivative_aid_check(ctx, fs)
        if with_derivative and any(not f.is_zero for f in fs):
            if family_is_aid:
                return False, f"case {case}: nonzero weighted derivative not refuted"
            checked_derivative_refuted += 1
        if not with_derivative and not family_is_aid:
            return False, f"case {case}: zero weighted derivative flagged"
    return True, (
        f"100 operators decomposed exactly; {checked_inner_witness} inner witnesses, "
        f"{checked_derivative_refuted} weighted-derivative refutations"
    )


def criterion_8(seed: int) -> tuple[bool, str]:
    """Toral-to-center witnesses on the rank-2 type B minimal subalgebra."""
    ctx = _b2_minimal_context()
    rng = random.Random(seed)
    solved = 0
    for i in (1, 2):
        for j in (-3, -2, -1, 1, 2, 3):
            for _ in range(50):
                support = {}
                for deg in rng.sample(range(-3, 4), rng.randint(1, 3)):
                    support[deg] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ctx.dim))
                if rng.random() < 0.7:
                    vec = list(support.get(j, (Fraction(0),) * ctx.dim))
                    vec[i - 1] = Fraction(rng.randint(1, 3))
                    support[j] = tuple(vec)
                x = ctx.element(support)
                res = toral_center_witness(ctx, i, j, x)
                if res.status != "witnessed":
                    return False, f"no witness for i={i} j={j} x={x.to_json()}"
                if affine_bracket(x, res.y) != ToralToCenter(ctx, i, j)(x):
                    return False, "witness bracket mismatch"
                solved += 1
    # t + t^2 on h_1 does not divide the unit x_1 part; the central equation
    # is met along the kernel direction of root 1 instead
    x = ctx.element(
        {1: (Fraction(1), 0, 0, 0), 2: (Fraction(1), 0, 0, 0), 0: (0, 0, Fraction(1), 0)}
    )
    res = toral_center_witness(ctx, 1, 1, x)
    if res.status != "witnessed":
        return False, f"divisibility example mis-handled: {res}"
    if affine_bracket(x, res.y) != ctx.central(1):
        return False, "divisibility example witness is wrong"
    return True, f"{solved} witnesses verified by direct bracket, and the divisibility example"


def criterion_9(seed: int) -> tuple[bool, str]:
    """Degree zero is centrally obstructed, flagged in the certificate."""
    ctx = _b2_minimal_context()
    for i in (1, 2):
        op = ToralToCenter(ctx, i, 0)
        x = ctx.basis_at(i - 1, 0)
        res = aid_obstruction_check(ctx, op, x)
        if res.status != "central-obstruction":
            return False, f"expected a central obstruction at degree 0, got {res.status}"
    return True, (
        "degree-0 toral-to-center maps are centrally obstructed at h_i (x) 1 "
        "(no bracket against a degree-0 element reaches the center); flagged as a "
        "discrepancy with the all-degrees claim"
    )


def criterion_10(seed: int) -> tuple[bool, str]:
    """No single inner match for nonzero toral-to-center combinations."""
    ctx = _b2_minimal_context()
    rng = random.Random(seed)
    y = global_inner_match(ctx, {}, (-2, 2))
    if y is None or not y.is_zero:
        return False, "zero combination should match Y = 0"
    for case in range(20):
        width = 4 + (case % 5)  # windows of width 4..8
        half = width // 2
        window = (-half, width - half)
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, 2)
            j = rng.randint(window[0], window[1])
            w = rng.choice([-3, -2, -1, 1, 2, 3])
            coeffs[(i, j)] = w
        got = global_inner_match(ctx, coeffs, window)
        if got is not None:
            return False, f"case {case}: unexpected inner match for {coeffs}"
    return True, (
        "20 nonzero combinations have no inner match in windows of width 4-8 "
        "(inconclusive-negative by window, as labeled); zero combination matches Y = 0"
    )


CRITERIA = [
    (1, "reference enumeration of rank-2 type B minimal subalgebras", criterion_1),
    (2, "type-A reference families certified on ranks 3 and 4", criterion_2),
    (3, "derived algebras of minimal subalgebras are abelian", criterion_3),
    (4, "almost-inner derivations are inner on minimal subalgebras", criterion_4),
    (5, "scalar-derivation dichotomy (square vs overweight)", criterion_5),
    (6, "centroids are diagonal of dimension = rank", criterion_6),
    (7, "loop-operator decomposition and loop-level almost-inner checks", criterion_7),
    (8, "toral-to-center bracket witnesses (exact Bezout solver)", criterion_8),
    (9, "degree-zero central obstruction", criterion_9),
    (10, "independence: no inner match for toral-to-center combinations", criterion_10),
]


def run_criteria(numbers=None, seed: int = 2024) -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        start = time.monotonic()
        ok, detail = fn(seed)
        results.append(CriterionResult(number, name, ok, detail, time.monotonic() - start))
    return results

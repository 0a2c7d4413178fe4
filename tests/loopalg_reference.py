"""Windowed witness searches and the eager central term, for the tests.

``bracket_match`` is the exact windowed linear-feasibility search for one Y
with ``[X_t, Y] = Z_t`` on every pair, and ``global_inner_match`` the
windowed ``inner-match`` search built on it.  The package decides
``inner-match`` by the center argument instead, so these live here as
oracles: a None from them only means "nothing inside this window".

``normal_form_solve`` is the per-root Bezout solver with the central term
``t beta_k'`` built for every root before it is read, which
``liecert.loopalg._normal_form_solve`` builds only for the roots it reads.
"""

from __future__ import annotations

from fractions import Fraction

from exact_reference import dense, solve_sparse
from liecert.loopalg import (
    AffineElement,
    LaurentPoly,
    LoopContext,
    OperatorSum,
    ToralToCenter,
    WitnessResult,
    _bezout,
    _constant_term,
    _coordinate,
    affine_bracket,
    laurent_div,
)

Vec = tuple[Fraction, ...]


def _check_window(window: tuple[int, int]) -> None:
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]: the lower degree exceeds the upper")


def bracket_match(
    ctx: LoopContext,
    pairs: list[tuple[AffineElement, AffineElement]],
    window: tuple[int, int],
) -> AffineElement | None:
    """One Y supported in the window with ``[X_t, Y] = Z_t`` for every pair.

    For each component ``x_m t^m`` of X the sparse columns ``[x_m, b_k]`` and
    the form row ``(x_m, b_k)`` are computed once per call.  Unknown
    ``b_k t^n`` then contributes ``[x_m, b_k]`` at degree ``m + n`` and
    ``m (x_m, b_k)`` to the central equation when ``m + n = 0``.  The central
    coordinate of Y never matters and is left at zero.
    """
    _check_window(window)
    lo, hi = window
    g, dim = ctx.algebra, ctx.dim
    # unknown (deg, k) is column (deg - lo) * dim + k; one block of sparse
    # equations per pair, keyed by output (degree, coordinate), plus the
    # central equation
    memo: dict[Vec, tuple[list[tuple[int, int, Fraction]], list[tuple[int, Fraction]]]] = {}
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for x, z in pairs:
        by_output: dict[tuple[int, int], dict[int, Fraction]] = {}
        central_row: dict[int, Fraction] = {}
        for m, xv in x.support.items():
            if xv not in memo:
                memo[xv] = (
                    [(i % dim, i // dim, v) for i, v in enumerate(dense(g.ad(xv)).entries) if v],
                    [(k, v) for k, v in enumerate(g.form.mul_vec(xv)) if v],
                )
            entries, form = memo[xv]
            for deg in range(lo, hi + 1):
                base = (deg - lo) * dim
                for k, c, v in entries:
                    by_output.setdefault((m + deg, c), {})[base + k] = v
            if m and lo <= -m <= hi:
                base = (-m - lo) * dim
                for k, v in form:
                    central_row[base + k] = m * v
        out_keys = set(by_output)
        for d, vec in z.support.items():
            out_keys.update((d, c) for c, v in enumerate(vec) if v)
        for d, c in sorted(out_keys):
            rows.append(by_output.get((d, c), {}))
            zv = z.support.get(d)
            rhs.append(zv[c] if zv is not None else Fraction(0))
        rows.append(central_row)
        rhs.append(z.central)
    sol = solve_sparse(rows, rhs, (hi - lo + 1) * dim)
    if sol is None:
        return None
    support: dict[int, Vec] = {}
    for deg in range(lo, hi + 1):
        vec = sol[(deg - lo) * dim : (deg - lo + 1) * dim]
        if any(vec):
            support[deg] = vec
    y = ctx.element(support)
    for x, z in pairs:
        if affine_bracket(x, y) != z:
            raise AssertionError("solver returned a non-witness")
    return y


def global_inner_match(
    ctx: LoopContext,
    coefficients: dict[tuple[int, int], Fraction | int],
    window: tuple[int, int],
) -> AffineElement | None:
    """One Y matching a weighted sum of toral-to-center maps on every probe.

    Probes are the basis elements ``b_k (x) t^j`` over the window; both
    sides are linear in the probe, so sums of probes would add no equation.
    The window must contain the degree j of every nonzero term, or no probe
    would see that term and a match would be vacuous.
    """
    if not ctx.square():
        raise ValueError("needs dim L = 2 dim [L,L]")
    _check_window(window)
    terms = tuple(
        (Fraction(w), ToralToCenter(ctx, i, j)) for (i, j), w in sorted(coefficients.items()) if Fraction(w) != 0
    )
    lo, hi = window
    for _, t in terms:
        if not lo <= t.j <= hi:
            raise ValueError(f"window [{lo}, {hi}] misses degree {t.j} of the term d_{{{t.i},{t.j}}}")
    op = OperatorSum(ctx, terms)
    probes = [ctx.basis_at(k, j) for k in range(ctx.dim) for j in range(lo, hi + 1)]
    return bracket_match(ctx, [(p, op(p)) for p in probes], window)


def normal_form_solve(ctx: LoopContext, x: AffineElement, z: AffineElement) -> WitnessResult:
    """``_normal_form_solve`` with ``tb[k] = sum_j P[k][j] t b_j'`` built for
    every root k up front, as scaled and added Laurent polynomials."""
    l, form = ctx.l, ctx.algebra.form
    b = [_coordinate(x, k) for k in range(l)]
    c = [_coordinate(x, l + k) for k in range(l)]
    u, v = [LaurentPoly.zero()] * l, [LaurentPoly.zero()] * l
    for k in range(l):
        zk = _coordinate(z, l + k)
        if zk.is_zero:
            continue
        if b[k].is_zero and c[k].is_zero:
            g, q = LaurentPoly.zero(), None
        else:
            g, s, r = _bezout(b[k], c[k])
            q = laurent_div(zk, g)
        if q is None:
            return WitnessResult(
                "root-obstruction",
                None,
                {
                    "reason": "the gcd of the t_k and x_k coordinates of X does not divide the x_k component",
                    "root": k + 1,
                    "gcd": g.to_json(),
                    "component": zk.to_json(),
                },
            )
        u[k], v[k] = -(r * q), s * q
    tdb = [bj.derivative().shift(1) for bj in b]
    tb = [sum((tdb[j].scale(form.at(k, j)) for j in range(l)), LaurentPoly.zero()) for k in range(l)]
    gap = z.central - sum((_constant_term(tb[k], u[k]) for k in range(l)), Fraction(0))
    if gap:
        for k in range(l):
            du, dv = (LaurentPoly.one(), LaurentPoly.zero()) if b[k].is_zero and c[k].is_zero else (b[k], c[k])
            p = tb[k] * du
            if not p.is_zero:
                e, pe = p.coeffs[0]
                w = LaurentPoly.monomial(-e, gap / pe)
                u[k], v[k] = u[k] + w * du, v[k] + w * dv
                break
        else:
            return WitnessResult(
                "central-obstruction",
                None,
                {"reason": "no component of X at nonzero degree pairs with L under the form"},
            )
    support: dict[int, list[Fraction]] = {}
    for k in range(l):
        for index, poly in ((k, u[k]), (l + k, v[k])):
            for deg, a in poly.coeffs:
                support.setdefault(deg, [Fraction(0)] * ctx.dim)[index] = a
    return WitnessResult("witnessed", ctx.element({deg: tuple(vec) for deg, vec in support.items()}))

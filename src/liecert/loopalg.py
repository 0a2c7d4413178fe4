"""Loop algebra and affinization of a minimal Q-graded subalgebra.

Elements of the affinization ``L (x) F[t, 1/t] + F K`` are finitely supported
degree maps plus a central coordinate; brackets are exact, with the cocycle
term ``m (x, y) delta_{m+n,0} K`` read off the restricted Killing form.

Every operator is a shift symbol (the finite description of ``Der(L (x) A)``
in Benkart-Moody 1986): ``b t^n -> sum_s (A_s + n B_s) b t^{n+s} + c_n(b) K``
with finitely many nonzero parts, and ``K -> 0``.  Inner operators have
``A_s = ad(y_s)`` and ``c_n = -n (y_{-n}, .)``; tensor derivations ``v(x)g ->
D(v)(x)fg``, centroid multipliers among them, ``A_s = f_s D``; weighted
t-derivatives a diagonal ``B_s``; toral-to-center maps one ``c_j``.  One
``apply`` evaluates every symbol, and the Leibniz identity is decided on it.

Witness searches ask for Y with ``[X, Y] = Z`` exactly.  A fast path follows
the closed-form ansatz (torus correction at degree -j solved over a Gram
submatrix, then per-root Laurent division); the general path is a windowed
linear-feasibility search and is the correctness backstop, since the ansatz's
divisibility step can genuinely fail.  Window-bounded negatives are reported
as inconclusive, never as refutations; an empty window, or an inner-match
window that misses the degree of a term, is rejected as invalid input.

The general path's equations are built straight from the structure table:
for each component ``x_m t^m`` of X the sparse columns ``[x_m, b_k]`` and
the form row ``(x_m, b_k)`` are computed once per call.
Unknown ``b_k t^n`` then contributes ``[x_m, b_k]`` at degree ``m + n`` and
``m (x_m, b_k)`` to the central equation when ``m + n = 0``.  Every solution
is re-verified with ``affine_bracket`` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product

from .chevalley import DistinguishedBasis, LieAlgebra, SubalgebraSpec, extract_subalgebra
from .dercalc import aid_membership, centroid_violation, leibniz_violation
from .exact import MatQ, Rat, expect_json, rat_from_str, rat_to_str, solve, solve_sparse

__all__ = [
    "LaurentPoly",
    "laurent_div",
    "AffineElement",
    "Symbol",
    "LoopOperator",
    "LoopContext",
    "loop_context",
    "Inner",
    "TensorDerivation",
    "DiagonalDerivative",
    "ToralToCenter",
    "OperatorSum",
    "affine_bracket",
    "leibniz_check",
    "centroid_multiplier",
    "diagonal_derivative",
    "decompose_derivation",
    "loop_aid_reduce",
    "diagonal_derivative_aid_check",
    "toral_center_witness",
    "aid_obstruction_check",
    "global_inner_match",
    "default_window",
]

Vec = tuple[Rat, ...]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Finitely supported map degree -> coefficient; t is invertible."""

    coeffs: tuple[tuple[int, Rat], ...]  # sorted by degree, no zeros

    @staticmethod
    def from_dict(d: dict[int, Rat | int]) -> "LaurentPoly":
        items = tuple(sorted((int(k), Fraction(v)) for k, v in d.items() if Fraction(v) != 0))
        return LaurentPoly(items)

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, Fraction(1)),))

    @staticmethod
    def monomial(degree: int, coeff: Rat | int = 1) -> "LaurentPoly":
        c = Fraction(coeff)
        return LaurentPoly(((degree, c),) if c else ())

    def to_dict(self) -> dict[int, Rat]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = self.to_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, Fraction(0)) + v
        return LaurentPoly.from_dict(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((k, -v) for k, v in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict[int, Rat] = {}
        for k1, v1 in self.coeffs:
            for k2, v2 in other.coeffs:
                d[k1 + k2] = d.get(k1 + k2, Fraction(0)) + v1 * v2
        return LaurentPoly.from_dict(d)

    def scale(self, c: Rat | int) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly(tuple((k, c * v) for k, v in self.coeffs))

    def shift(self, n: int) -> "LaurentPoly":
        return LaurentPoly(tuple((k + n, v) for k, v in self.coeffs))

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly.from_dict({k - 1: k * v for k, v in self.coeffs if k})

    def coeff(self, degree: int) -> Rat:
        for k, v in self.coeffs:
            if k == degree:
                return v
        return Fraction(0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.coeffs)

    def to_json(self) -> dict:
        return {str(k): rat_to_str(v) for k, v in self.coeffs}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        coeffs = expect_json(obj, dict, "Laurent polynomial")
        return LaurentPoly.from_dict({int(k): rat_from_str(v) for k, v in coeffs.items()})


def laurent_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient in the Laurent ring, or None when it does not divide."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero:
        return LaurentPoly.zero()
    nlo, dlo = num.coeffs[0][0], den.coeffs[0][0]
    n = {k - nlo: v for k, v in num.coeffs}  # ordinary polynomials now
    d = {k - dlo: v for k, v in den.coeffs}
    ndeg, ddeg = max(n), max(d)
    if ndeg < ddeg:
        return None
    lead = d[ddeg]
    q: dict[int, Rat] = {}
    r = dict(n)
    while r and max(r) >= ddeg:
        top = max(r)
        c = r[top] / lead
        q[top - ddeg] = c
        for k, v in d.items():
            nk = top - ddeg + k
            r[nk] = r.get(nk, Fraction(0)) - c * v
            if r[nk] == 0:
                del r[nk]
    if r:
        return None
    return LaurentPoly.from_dict({k + nlo - dlo: v for k, v in q.items()})


# ---------------------------------------------------------------------------
# affine elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LoopContext:
    """A minimal Q-graded subalgebra packaged for loop/affine computations.

    The basis order is ``(h_1..h_l, x_1..x_m)``; the restricted Killing form
    must be present for the affinization cocycle.
    """

    algebra: LieAlgebra
    basis: DistinguishedBasis

    def __post_init__(self):
        if self.algebra.form is None:
            raise ValueError("affinization needs the restricted Killing form")

    @property
    def l(self) -> int:
        return self.basis.l

    @property
    def m(self) -> int:
        return self.basis.m

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def zero(self) -> "AffineElement":
        return AffineElement(self, {}, Fraction(0))

    def element(self, support: dict[int, Vec], central: Rat | int = 0) -> "AffineElement":
        return AffineElement(self, support, Fraction(central))

    def basis_at(self, index: int, degree: int) -> "AffineElement":
        return self.element({degree: self.algebra.basis_vector(index)})

    def central(self, c: Rat | int = 1) -> "AffineElement":
        return AffineElement(self, {}, Fraction(c))

    def square(self) -> bool:
        return self.l == self.m

    def root_block_isotropic(self) -> bool:
        """(x_a, x_b) = 0 for all root vectors; the witness solver relies on it."""
        f = self.algebra.form
        return all(
            f.at(self.l + a, self.l + b) == 0 for a in range(self.m) for b in range(self.m)
        )


def loop_context(spec: SubalgebraSpec, ambient: LieAlgebra | None = None) -> LoopContext:
    """Build the loop/affine context for a subalgebra spec.

    ``ambient`` is ignored: the subalgebra is read off the root data.  It is
    still accepted because the benchmark's checker passes one.
    """
    g, info = extract_subalgebra(spec)
    return LoopContext(algebra=g, basis=info)


@dataclass(frozen=True, eq=False)
class AffineElement:
    """Finitely supported element of ``L (x) F[t,1/t] + F K``."""

    ctx: LoopContext
    support: dict[int, Vec] = field(default_factory=dict)
    central: Rat = Fraction(0)

    def __post_init__(self):
        clean = {}
        for deg, vec in self.support.items():
            vec = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vec)
            if len(vec) != self.ctx.dim:
                raise ValueError("component length does not match the algebra dimension")
            if any(vec):
                clean[int(deg)] = vec
        object.__setattr__(self, "support", clean)
        if not isinstance(self.central, Fraction):
            object.__setattr__(self, "central", Fraction(self.central))

    def component(self, degree: int) -> Vec:
        return self.support.get(degree, tuple(Fraction(0) for _ in range(self.ctx.dim)))

    def degrees(self) -> list[int]:
        return sorted(self.support)

    @property
    def is_zero(self) -> bool:
        return not self.support and self.central == 0

    def loop_part(self) -> "AffineElement":
        return AffineElement(self.ctx, dict(self.support), Fraction(0))

    def loop_equal(self, other: "AffineElement") -> bool:
        return self.support == other.support

    def __add__(self, other: "AffineElement") -> "AffineElement":
        _same_ctx(self, other)
        a, b = self.support, other.support
        d = {k: _combine(self.ctx.dim, [(1, a.get(k, ())), (1, b.get(k, ()))]) for k in {**a, **b}}
        return AffineElement(self.ctx, d, self.central + other.central)

    def __neg__(self) -> "AffineElement":
        return self.scale(-1)

    def __sub__(self, other: "AffineElement") -> "AffineElement":
        return self + other.scale(-1)

    def scale(self, c: Rat | int) -> "AffineElement":
        c = Fraction(c)
        return AffineElement(
            self.ctx, {deg: tuple(c * v for v in vec) for deg, vec in self.support.items()}, c * self.central
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineElement):
            return NotImplemented
        return self.ctx is other.ctx and self.support == other.support and self.central == other.central

    def to_json(self) -> dict:
        return {
            "central": rat_to_str(self.central),
            "support": {str(deg): [rat_to_str(v) for v in vec] for deg, vec in sorted(self.support.items())},
        }

    @staticmethod
    def from_json(ctx: LoopContext, obj: dict) -> "AffineElement":
        support = expect_json(expect_json(obj, dict, "affine element").get("support", {}), dict, "support")
        vecs = {int(k): tuple(map(rat_from_str, expect_json(v, list, "component"))) for k, v in support.items()}
        return AffineElement(ctx, vecs, rat_from_str(obj.get("central", "0")))


def _same_ctx(a: AffineElement, b: AffineElement) -> None:
    if a.ctx is not b.ctx:
        raise ValueError("elements live over different algebras")


def affine_bracket(x: AffineElement, y: AffineElement) -> AffineElement:
    """``[v(x)t^m, w(x)t^n] = [v,w](x)t^{m+n} + m (v,w) delta_{m+n,0} K``."""
    _same_ctx(x, y)
    ctx = x.ctx
    g = ctx.algebra
    out: dict[int, list[Rat]] = {}
    central = Fraction(0)
    for m, xv in x.support.items():
        for n, yv in y.support.items():
            br = g.bracket(xv, yv)
            if any(br):
                acc = out.setdefault(m + n, [Fraction(0)] * ctx.dim)
                for k, v in enumerate(br):
                    acc[k] += v
            if m + n == 0 and m != 0:
                central += m * g.form_value(xv, yv)
    return AffineElement(ctx, {d: tuple(v) for d, v in out.items()}, central)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """``b t^n -> sum_s (A_s + n B_s) b t^{n+s} + c_n(b) K`` and ``K -> 0``.

    ``loop`` maps a shift s to ``(A_s, B_s)`` and ``central`` a degree n to
    the coordinates of the functional ``c_n``; zero parts are dropped.
    """

    loop: dict[int, tuple[MatQ, MatQ]]
    central: dict[int, Vec]

    def __post_init__(self):
        loop = {s: ab for s, ab in sorted(self.loop.items()) if any(ab[0].entries) or any(ab[1].entries)}
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "central", {n: c for n, c in sorted(self.central.items()) if any(c)})


def _combine(size: int, weighted) -> Vec:
    """``sum w * v`` over ``(w, v)`` pairs of length-``size`` vectors."""
    out = [Fraction(0)] * size
    for w, vec in weighted:
        for k, v in enumerate(vec):
            if v and w:
                out[k] += w * v
    return tuple(out)


def _diagonal(entries) -> MatQ:
    n = len(entries)
    return MatQ(n, n, tuple(Fraction(entries[i]) if i == j else Fraction(0) for i in range(n) for j in range(n)))


class LoopOperator:
    """Linear operator on affine elements, given by its shift symbol."""

    ctx: LoopContext

    def symbol(self) -> Symbol:
        raise NotImplementedError

    @cached_property
    def _symbol(self) -> Symbol:
        return self.symbol()

    def apply(self, x: AffineElement) -> AffineElement:
        if x.ctx is not self.ctx:
            raise ValueError("element and operator live over different algebras")
        sym = self._symbol
        parts: dict[int, list[tuple[int, Vec]]] = {}
        central = Fraction(0)
        for n, vec in x.support.items():
            for s, (a, b) in sym.loop.items():
                parts.setdefault(n + s, []).extend([(1, a.mul_vec(vec)), (n, b.mul_vec(vec))])
            central += sum((u * v for u, v in zip(sym.central.get(n, ()), vec)), Fraction(0))
        return AffineElement(self.ctx, {d: _combine(self.ctx.dim, p) for d, p in parts.items()}, central)

    __call__ = apply


@dataclass(frozen=True, eq=False)
class Inner(LoopOperator):
    """``X -> [y, X]``: ``A_s = ad(y_s)`` and ``c_n = -n (y_{-n}, .)``."""

    y: AffineElement

    @property
    def ctx(self) -> LoopContext:
        return self.y.ctx

    def symbol(self) -> Symbol:
        g, zero = self.ctx.algebra, MatQ.zeros(self.ctx.dim, self.ctx.dim)
        return Symbol(
            {s: (g.ad(v), zero) for s, v in self.y.support.items()},
            {-s: tuple(s * u for u in g.form.mul_vec(v)) for s, v in self.y.support.items()},
        )


@dataclass(frozen=True, eq=False)
class TensorDerivation(LoopOperator):
    """``v(x)g -> D(v)(x)(f g)`` for a matrix D on L: ``A_s = f_s D``.

    A derivation of the loop algebra when D is one of L; it does not see the
    cocycle, so affine-level identities hold only modulo the center.
    """

    ctx: LoopContext
    matrix: MatQ
    f: LaurentPoly

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.ctx.dim, self.ctx.dim):
            raise ValueError(f"tensor matrix must be {self.ctx.dim} x {self.ctx.dim}")

    def symbol(self) -> Symbol:
        dim = self.ctx.dim
        scaled = {s: MatQ(dim, dim, tuple(c * v for v in self.matrix.entries)) for s, c in self.f.coeffs}
        return Symbol({s: (a, MatQ.zeros(dim, dim)) for s, a in scaled.items()}, {})


@dataclass(frozen=True, eq=False)
class DiagonalDerivative(LoopOperator):
    """``h_i(x)t^j -> h_i(x) j t^{j-1} f_i`` and likewise on ``x_i``, so
    ``B_{d-1} = diag(f_{k mod l, d})``; kills ``L(x)1`` and K.  These are
    exactly the derivations of the loop algebra vanishing on ``L(x)1``."""

    ctx: LoopContext
    fs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if not self.ctx.square() or len(self.fs) != self.ctx.l:
            raise ValueError("need one Laurent weight per torus index")

    def symbol(self) -> Symbol:
        dim, l = self.ctx.dim, self.ctx.l
        shifts = {d - 1 for f in self.fs for d in f.degrees()}
        diag = {s: _diagonal([self.fs[k % l].coeff(s + 1) for k in range(dim)]) for s in shifts}
        return Symbol({s: (MatQ.zeros(dim, dim), b) for s, b in diag.items()}, {})


@dataclass(frozen=True, eq=False)
class ToralToCenter(LoopOperator):
    """Sends ``h_i (x) t^j`` to K and kills K, the root block, and every other
    toral mode: ``c_j`` is the ``h_i`` coordinate.  Indices are 1-based to
    match the CLI surface."""

    ctx: LoopContext
    i: int
    j: int

    def __post_init__(self):
        if not (1 <= self.i <= self.ctx.l):
            raise ValueError(f"torus index must be in 1..{self.ctx.l}")

    def symbol(self) -> Symbol:
        return Symbol({}, {self.j: self.ctx.algebra.basis_vector(self.i - 1)})


@dataclass(frozen=True, eq=False)
class OperatorSum(LoopOperator):
    """Finite weighted sum; its symbol is the weighted sum of the symbols."""

    ctx: LoopContext
    terms: tuple[tuple[Rat, LoopOperator], ...]

    def __post_init__(self):
        for _, op in self.terms:
            if op.ctx is not self.ctx:
                raise ValueError("operator sum mixes algebras")

    def symbol(self) -> Symbol:
        dim, syms = self.ctx.dim, [(w, op._symbol) for w, op in self.terms]

        def mat(s: int, side: int) -> MatQ:
            return MatQ(dim, dim, _combine(dim * dim, [(w, y.loop[s][side].entries) for w, y in syms if s in y.loop]))

        def row(n: int) -> Vec:
            return _combine(dim, [(w, y.central[n]) for w, y in syms if n in y.central])

        return Symbol(
            {s: (mat(s, 0), mat(s, 1)) for s in {s for _, y in syms for s in y.loop}},
            {n: row(n) for n in {n for _, y in syms for n in y.central}},
        )


# ---------------------------------------------------------------------------
# operator-level checks and constructions
# ---------------------------------------------------------------------------


def leibniz_check(
    op: LoopOperator, include_central: bool = False
) -> tuple[bool, tuple[AffineElement, AffineElement] | None]:
    """Decide ``D[x,y] = [Dx,y] + [x,Dy]`` exactly from the shift symbol.

    On ``(x t^m, y t^n)`` the loop part of the defect at degree ``m + n + s``
    is ``A_s[x,y] - [A_s x,y] - [x,A_s y] + m (B_s[x,y] - [B_s x,y]) +
    n (B_s[x,y] - [x,B_s y])``, so the identity holds modulo the center iff
    every A_s is a derivation of L and every B_s lies in its centroid.  That
    is the default: tensor-type operators are derivations of the loop
    algebra (the quotient by the center), not of the affinization.

    ``include_central=True`` also demands the central coordinate, which
    inner operators and the toral-to-center family satisfy.  At total degree
    ``d = m + n`` it reads ``c_d([x,y]) + n ((A + m B)x, y) - m (x, (A + n B)y)``
    with ``(A, B)`` the part at shift -d: a polynomial of degree <= 2 in m,
    identically zero unless d is in the symbol's support, and decided there
    by m = 0, 1, 2.  A failure comes with a basis pair ``(b_i t^m, b_j t^n)``
    whose defect is nonzero.
    """
    ctx, g, sym = op.ctx, op.ctx.algebra, op._symbol
    for a, b in sym.loop.values():
        viol = leibniz_violation(g, a)
        if viol is not None:
            return False, (ctx.basis_at(viol[0], 0), ctx.basis_at(viol[1], 0))
        viol = centroid_violation(g, b)
        if viol is not None:
            return False, (ctx.basis_at(viol[0], 1), ctx.basis_at(viol[1], 0))
    if include_central:
        for d in sorted({-s for s in sym.loop} | set(sym.central)):
            for m, i, j in product((0, 1, 2), range(ctx.dim), range(ctx.dim)):
                x, y = ctx.basis_at(i, m), ctx.basis_at(j, d - m)
                if (op(affine_bracket(x, y)) - affine_bracket(op(x), y) - affine_bracket(x, op(y))).central:
                    return False, (x, y)
    return True, None


def centroid_multiplier(ctx: LoopContext, coeffs, f: LaurentPoly) -> TensorDerivation:
    """Centroid element ``h_i(x)g -> c_i h_i(x)(f g)`` (likewise on x_i) of
    the loop algebra: the tensor derivation of a diagonal centroid matrix.
    Coordinates are over the diagonal centroid basis, so the context must be
    square (one root vector per torus direction)."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    if not ctx.square() or len(coeffs) != ctx.l:
        raise ValueError("centroid multipliers need one coefficient per torus index")
    return TensorDerivation(ctx, _diagonal([coeffs[k % ctx.l] for k in range(ctx.dim)]), f)


def diagonal_derivative(ctx: LoopContext, fs) -> DiagonalDerivative:
    """The derivation killing ``L(x)1`` with weight ``f_i`` on index i."""
    return DiagonalDerivative(ctx, tuple(fs))


@dataclass(frozen=True)
class Decomposition:
    tensor_terms: tuple[TensorDerivation, ...]
    residual: OperatorSum

    def tensor_sum(self) -> OperatorSum:
        ctx = self.residual.ctx
        return OperatorSum(ctx, tuple((Fraction(1), t) for t in self.tensor_terms))


def decompose_derivation(op: LoopOperator) -> Decomposition:
    """Split off the part determined by the action on ``L (x) 1``.

    ``op(b (x) 1) = sum_s A_s b t^s + c_0(b) K``, so the tensor terms are the
    ``A_s (x) t^s`` of the symbol, each A_s verified to satisfy Leibniz on L,
    and the residual ``op - sum`` kills ``L (x) 1`` exactly.
    """
    ctx = op.ctx
    if 0 in op._symbol.central:
        raise ValueError("operator emits a central part on L(x)1; not a loop derivation")
    terms = []
    for s, (a, _) in op._symbol.loop.items():
        if not any(a.entries):
            continue
        viol = leibniz_violation(ctx.algebra, a)
        if viol is not None:
            raise ValueError(f"degree-{s} component is not a derivation of L (pair {viol})")
        terms.append(TensorDerivation(ctx, a, LaurentPoly.monomial(s)))
    residual = OperatorSum(ctx, ((Fraction(1), op),) + tuple((Fraction(-1), t) for t in terms))
    if any(any(a.entries) for a, _ in residual._symbol.loop.values()) or 0 in residual._symbol.central:
        raise AssertionError("residual fails to kill L(x)1")
    return Decomposition(tensor_terms=tuple(terms), residual=residual)


@dataclass(frozen=True)
class LoopAidResult:
    witness: AffineElement | None
    component_verdicts: tuple[tuple[int, str], ...]  # (degree, status)

    @property
    def all_inner(self) -> bool:
        return self.witness is not None


def loop_aid_reduce(ctx: LoopContext, tensor_terms) -> LoopAidResult:
    """Inner witness for a sum of tensor derivations, when every degree
    component is an inner derivation of L; None as soon as one is not almost
    inner (the almost-inner condition at ``x (x) 1`` localises per degree)."""
    g, info = ctx.algebra, ctx.basis
    verdicts = []
    parts: dict[int, list[tuple[Rat, Vec]]] = {}
    for term in tensor_terms:
        degs = term.f.degrees()
        if len(degs) != 1:
            raise ValueError("tensor terms from decomposition carry monomial weights")
        verdict = aid_membership(g, info, term.matrix)
        verdicts.append((degs[0], verdict.status))
        if verdict.is_inner:
            parts.setdefault(degs[0], []).append((term.f.coeff(degs[0]), verdict.witness))
    if any(status != "inner" for _, status in verdicts):
        return LoopAidResult(witness=None, component_verdicts=tuple(verdicts))
    witness = ctx.element({deg: _combine(ctx.dim, p) for deg, p in parts.items()})
    d = OperatorSum(ctx, tuple((Fraction(1), t) for t in tensor_terms))
    if Inner(witness)._symbol.loop != d._symbol.loop:
        raise AssertionError("inner witness disagrees with the tensor sum")
    return LoopAidResult(witness=witness, component_verdicts=tuple(verdicts))


def torus_component_obstruction(z: AffineElement) -> bool:
    """True when the loop part of z has a nonzero torus component, which no
    bracket value can have (every bracket lands in the span of the root
    vectors tensor Laurent polynomials)."""
    l = z.ctx.l
    return any(any(vec[:l]) for vec in z.support.values())


def diagonal_derivative_aid_check(ctx: LoopContext, fs) -> tuple[bool, dict | None]:
    """A weighted-t-derivative operator is almost inner only when it is zero.

    At the first torus index i where some ``B_s`` is nonzero, the value at
    ``h_i (x) t`` is ``sum_s B_s h_i t^{1+s} = h_i (x) f_i``, whose torus
    component certifies non-membership in every bracket space.
    """
    op = DiagonalDerivative(ctx, tuple(fs))
    torus = [k for k in range(ctx.l) if any(b.at(k, k) for _, b in op._symbol.loop.values())]
    if not torus:
        return True, None
    x = ctx.basis_at(torus[0], 1)
    z = op(x)
    if not torus_component_obstruction(z):
        raise AssertionError("value at h_i (x) t has no torus component")
    return False, {"fails_at": x, "value": z, "index": torus[0] + 1}


# ---------------------------------------------------------------------------
# witness searches
# ---------------------------------------------------------------------------


def default_window(x: AffineElement, extra_degrees=()) -> tuple[int, int]:
    """[min - 2*spread, max + 2*spread] over the element support and targets."""
    degs = list(x.support) + list(extra_degrees)
    if not degs:
        degs = [0]
    lo, hi = min(degs), max(degs)
    spread = max(1, (max(x.support) - min(x.support)) if x.support else 1)
    return lo - 2 * spread, hi + 2 * spread


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

    Exact windowed linear feasibility; a None is only "nothing inside this
    window".  The central coordinate of Y never matters and is left at zero.
    """
    _check_window(window)
    lo, hi = window
    g, dim = ctx.algebra, ctx.dim
    # unknown (deg, k) is column (deg - lo) * dim + k; one block of sparse
    # equations per pair, keyed by output (degree, coordinate), plus the
    # central equation.  The nonzero entries of ad(x_m) and of the form row
    # of x_m are computed once per distinct component within this call.
    memo: dict[Vec, tuple[list[tuple[int, int, Rat]], list[tuple[int, Rat]]]] = {}
    rows: list[dict[int, Rat]] = []
    rhs: list[Rat] = []
    for x, z in pairs:
        by_output: dict[tuple[int, int], dict[int, Rat]] = {}
        central_row: dict[int, Rat] = {}
        for m, xv in x.support.items():
            if xv not in memo:
                memo[xv] = (
                    [(i % dim, i // dim, v) for i, v in enumerate(g.ad(xv).entries) if v],
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


@dataclass(frozen=True)
class WitnessSearch:
    status: str  # "witnessed" | "no-witness-in-window"
    y: AffineElement | None
    window: tuple[int, int]
    general_path_used: bool
    fast_path_failure: str | None = None


def toral_center_witness(
    ctx: LoopContext, i: int, j: int, x: AffineElement, window: tuple[int, int] | None = None
) -> WitnessSearch:
    """Find Y with ``[X, Y] = (coefficient of h_i (x) t^j in X) K``.

    Requires ``j != 0`` (the degree-zero operator is obstructed; see
    ``aid_obstruction_check``) and a square context.  The closed-form ansatz
    is tried first; the windowed general search is the backstop.
    """
    if j == 0:
        raise ValueError("degree 0 has no bracket witness; run aid_obstruction_check instead")
    if not ctx.square():
        raise ValueError("the witness construction needs dim L = 2 dim [L,L]")
    if not ctx.root_block_isotropic():
        raise ValueError("root vectors must pair to zero under the form")
    op = ToralToCenter(ctx, i, j)
    target = op(x)
    if window is None:
        window = default_window(x, extra_degrees=(-j,))
    _check_window(window)
    if target.is_zero:
        return WitnessSearch("witnessed", ctx.zero(), window, general_path_used=False)

    fast_failure = None
    y = _toral_witness_ansatz(ctx, i, j, x)
    if isinstance(y, str):
        fast_failure = y
        y = None
    if y is not None:
        if affine_bracket(x, y) != target:
            raise AssertionError("ansatz produced a non-witness")
        return WitnessSearch("witnessed", y, window, general_path_used=False)

    y = bracket_match(ctx, [(x, target)], window)
    if y is None:
        return WitnessSearch("no-witness-in-window", None, window, True, fast_failure)
    return WitnessSearch("witnessed", y, window, True, fast_failure)


def _toral_witness_ansatz(ctx: LoopContext, i: int, j: int, x: AffineElement):
    """Closed-form attempt: torus correction at degree -j over the Gram
    submatrix indexed by the torus directions absent from X, then per-root
    Laurent division.  Returns Y, or a string describing the failing step.
    It reads ``beta_k(t_m) = delta_km``, so it needs the torus dual to Psi."""
    l = ctx.l
    info = ctx.basis
    if not info.torus_is_dual:
        return "torus-not-dual"
    gram = info.gram
    b = [LaurentPoly.from_dict({deg: vec[m] for deg, vec in x.support.items()}) for m in range(l)]
    c = [LaurentPoly.from_dict({deg: vec[l + p] for deg, vec in x.support.items()}) for p in range(l)]
    amask = [not b[m].is_zero for m in range(l)]
    bset = [m for m in range(l) if not amask[m]]
    jinv = Fraction(1, j)
    d = {m: Fraction(0) for m in bset}
    if bset:
        sub = MatQ.from_rows([[gram.at(k, m) for m in bset] for k in bset])
        rhs = [gram.at(k, i - 1) * jinv for k in bset]
        sol = solve(sub, rhs)
        if sol is None:
            return "gram-submatrix-singular"
        d = dict(zip(bset, sol))
    # torus part of Y at degree -j, over the duals
    torus = [Fraction(0)] * l
    torus[i - 1] += jinv
    for m, dm in d.items():
        torus[m] -= dm
    yvec = list(_combine(ctx.dim, zip(torus, info.dual_torus_local)))
    support: dict[int, list[Rat]] = {-j: yvec}
    # per-root division: b_k e_k = s_k t^{-j} c_k
    for k in range(l):
        s_k = jinv * gram.at(k, i - 1) - sum(d[m] * gram.at(k, m) for m in bset)
        rhs_poly = c[k].scale(s_k).shift(-j)
        if not amask[k]:
            if not rhs_poly.is_zero:
                return "inconsistent-off-support-root"
            continue
        e_k = laurent_div(rhs_poly, b[k])
        if e_k is None:
            return "laurent-division"
        for deg, coeff in e_k.coeffs:
            acc = support.setdefault(deg, [Fraction(0)] * ctx.dim)
            acc[l + k] += coeff
    return ctx.element({deg: tuple(v) for deg, v in support.items()})


@dataclass(frozen=True)
class ObstructionResult:
    status: str  # "witnessed" | "central-obstruction" | "no-witness-in-window"
    y: AffineElement | None
    window: tuple[int, int] | None
    detail: dict | None = None


def aid_obstruction_check(
    ctx: LoopContext, op: LoopOperator, x: AffineElement, window: tuple[int, int] | None = None
) -> ObstructionResult:
    """Decide ``op(X) in [X, affinization]`` for sums of toral-to-center and
    inner operators, exactly where possible.

    The K-coefficient of any ``[X, Y]`` is ``sum_m m (x_m, y_{-m})``; when
    every nonzero-degree component of X is form-orthogonal to all of L, that
    functional vanishes identically, so a nonzero central target is a
    certified obstruction.  Otherwise a windowed witness search runs.
    """
    if window is not None:
        _check_window(window)
    z = op(x)
    if z.is_zero:
        return ObstructionResult("witnessed", ctx.zero(), window)
    if torus_component_obstruction(z):
        raise ValueError("target has a torus loop component; not in any bracket space")
    pairing_dead = not any(any(ctx.algebra.form.mul_vec(vec)) for deg, vec in x.support.items() if deg)
    if pairing_dead and z.central != 0:
        return ObstructionResult(
            "central-obstruction",
            None,
            None,
            {"reason": "no component of X at nonzero degree pairs with L under the form"},
        )
    if window is None:
        window = default_window(x, extra_degrees=tuple(z.degrees()) + tuple(-d for d in x.degrees()))
    y = bracket_match(ctx, [(x, z)], window)
    if y is None:
        return ObstructionResult("no-witness-in-window", None, window)
    return ObstructionResult("witnessed", y, window)


def global_inner_match(
    ctx: LoopContext,
    coefficients: dict[tuple[int, int], Rat | int],
    window: tuple[int, int],
) -> AffineElement | None:
    """One Y matching a weighted sum of toral-to-center maps on every probe.

    Probes are the basis elements ``b_k (x) t^j`` over the window; both
    sides are linear in the probe, so sums of probes would add no equation.
    A nonzero combination admits no match (the probes force Y's coordinates
    to vanish, and the central row then cannot be met); the zero combination
    returns Y = 0.  None is window-bounded: inconclusive-negative, not a
    proof for unseen degrees.
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
    pairs = [(p, op(p)) for p in probes]
    return bracket_match(ctx, pairs, window)

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

Witness searches ask for Y with ``[X, Y] = Z`` exactly.  On the normal form
of a minimal subalgebra (the torus dual to Psi and an abelian root block, so
``[t_j, x_k] = delta_jk x_k`` and the form on H is ``P = gram^-1``) write X's
coordinates as Laurent polynomials ``b_k, c_k`` (on ``t_k, x_k``) and Y's as
``u_k, v_k``.  The x_k component of ``[X, Y]`` is ``b_k v_k - c_k u_k`` and
its central part ``sum_k CT(t beta_k' u_k)`` with ``beta = P b``.  Extended
Euclid in the principal ideal domain Q[t, 1/t] solves each root equation or
names the root whose gcd does not divide the target; the central equation is
then met along a kernel direction ``(b_k, c_k)``, or certified unreachable.

Every witness is re-verified with ``affine_bracket`` before it is returned.

``inner-match`` asks for one Y with ``ad(Y) = F`` for a combination F of
toral-to-center maps.  F is central-valued, so every component of Y lies in
the center Z(L).  A root vector has a nonzero weight, so Z(L) is the set of
torus vectors that every root weight ``LieAlgebra.weights`` kills, zero on
the normal form where the weight of ``x_k`` is the k-th unit vector.  So
Y = 0 matches the zero F, and no Y a nonzero one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from .chevalley import LieAlgebra, SubalgebraSpec, extract_subalgebra, normal_form
from .dercalc import aid_membership, centroid_violation, leibniz_violation
from .exact import MatQ, Rat, _ReadOnly, _Value, expect_json, rat_from_str, rat_to_str

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
]

Vec = tuple[Rat, ...]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly(_Value):
    """Finitely supported map degree -> coefficient; t is invertible."""

    def __init__(self, coeffs: tuple[tuple[int, Rat], ...]):  # sorted by degree, no zeros
        self.__dict__["coeffs"] = coeffs

    @staticmethod
    def from_dict(d: dict[int, Rat | int]) -> "LaurentPoly":
        items = ((int(k), v if isinstance(v, Fraction) else Fraction(v)) for k, v in d.items())
        return LaurentPoly(tuple(sorted(kv for kv in items if kv[1])))

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


def _divmod(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division from the top degree: ``num = q den + r`` with every
    degree of r below the top degree of den (Euclidean division on
    polynomials)."""
    top, lead = den.coeffs[-1]
    q: dict[int, Rat] = {}
    r = dict(num.coeffs)
    while r and max(r) >= top:
        k = max(r)
        c = r[k] / lead
        q[k - top] = c
        for d, v in den.coeffs:
            j = k - top + d
            r[j] = r.get(j, Fraction(0)) - c * v
            if not r[j]:
                del r[j]
    return LaurentPoly.from_dict(q), LaurentPoly.from_dict(r)


def _polynomial(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """``(q, e)`` with ``p = t^e q`` and q a polynomial with a nonzero constant term."""
    e = p.coeffs[0][0] if p.coeffs else 0
    return p.shift(-e), e


def laurent_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient in the Laurent ring, or None when it does not divide."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    (n, ne), (d, de) = _polynomial(num), _polynomial(den)
    q, r = _divmod(n, d)
    return q.shift(ne - de) if r.is_zero else None


def _bezout(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """``(g, s, r)`` with ``s a + r b = g``, g the gcd made monic with a
    nonzero constant term; a and b are not both zero."""
    (p, ea), (q, eb) = _polynomial(a), _polynomial(b)
    r0, r1, s0, s1, t0, t1 = p, q, LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.one()
    while not r1.is_zero:
        quo, rem = _divmod(r0, r1)
        r0, r1, s0, s1, t0, t1 = r1, rem, s1, s0 - quo * s1, t1, t0 - quo * t1
    inv = 1 / r0.coeffs[-1][1]
    return r0.scale(inv), s0.scale(inv).shift(-ea), t0.scale(inv).shift(-eb)


# ---------------------------------------------------------------------------
# affine elements
# ---------------------------------------------------------------------------


class LoopContext(_ReadOnly):
    """A minimal Q-graded subalgebra packaged for loop/affine computations.

    The basis order is ``(h_1..h_l, x_1..x_m)``, with l the algebra's torus
    size; the restricted Killing form must be present for the affinization
    cocycle.
    """

    def __init__(self, algebra: LieAlgebra):
        if algebra.form is None:
            raise ValueError("affinization needs the restricted Killing form")
        self.__dict__.update(algebra=algebra)

    @property
    def l(self) -> int:
        return self.algebra.torus

    @property
    def m(self) -> int:
        return self.algebra.dim - self.algebra.torus

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


def loop_context(spec: SubalgebraSpec, ambient: LieAlgebra | None = None) -> LoopContext:
    """Build the loop/affine context for a subalgebra spec.

    ``ambient`` is ignored: the subalgebra is read off the root data.  It is
    still accepted because the benchmark's checker passes one.
    """
    return LoopContext(extract_subalgebra(spec))


class AffineElement(_ReadOnly):
    """Finitely supported element of ``L (x) F[t,1/t] + F K``; ``support``
    None means the empty map."""

    def __init__(self, ctx: LoopContext, support: dict[int, Vec] | None = None, central: Rat = Fraction(0)):
        clean = {}
        for deg, vec in (support or {}).items():
            vec = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vec)
            if len(vec) != ctx.dim:
                raise ValueError("component length does not match the algebra dimension")
            if any(vec):
                clean[int(deg)] = vec
        central = central if isinstance(central, Fraction) else Fraction(central)
        self.__dict__.update(ctx=ctx, support=clean, central=central)

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
    """``[v(x)t^m, w(x)t^n] = [v,w](x)t^{m+n} + m (v,w) delta_{m+n,0} K``,
    summed straight from the structure table over the nonzero coordinates."""
    _same_ctx(x, y)
    ctx = x.ctx
    g = ctx.algebra
    table = g._table
    ys = [(n, yv, [(j, b) for j, b in enumerate(yv) if b]) for n, yv in y.support.items()]
    out: dict[int, list[Rat]] = {}
    central = Fraction(0)
    for m, xv in x.support.items():
        xs = [(table[i], a) for i, a in enumerate(xv) if a]
        for n, yv, yj in ys:
            acc = out.get(m + n)
            for row, a in xs:
                for j, b in yj:
                    entry = row.get(j)
                    if entry:
                        if acc is None:
                            acc = out[m + n] = [Fraction(0)] * ctx.dim
                        ab = a * b
                        for k, c in entry:
                            acc[k] += ab * c
            if m + n == 0 and m != 0:
                central += m * g.form_value(xv, yv)
    return AffineElement(ctx, {d: tuple(v) for d, v in out.items()}, central)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class Symbol(_Value):
    """``b t^n -> sum_s (A_s + n B_s) b t^{n+s} + c_n(b) K`` and ``K -> 0``.

    ``loop`` maps a shift s to ``(A_s, B_s)`` and ``central`` a degree n to
    the coordinates of the functional ``c_n``; zero parts are dropped.
    """

    def __init__(self, loop: dict[int, tuple[MatQ, MatQ]], central: dict[int, Vec]):
        self.__dict__.update(
            loop={s: ab for s, ab in sorted(loop.items()) if ab[0].nonzeros or ab[1].nonzeros},
            central={n: c for n, c in sorted(central.items()) if any(c)},
        )


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
    return MatQ(n, n, {i * (n + 1): Fraction(x) for i, x in enumerate(entries)})


class LoopOperator(_ReadOnly):
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


class Inner(LoopOperator):
    """``X -> [y, X]``: ``A_s = ad(y_s)`` and ``c_n = -n (y_{-n}, .)``."""

    def __init__(self, y: AffineElement):
        self.__dict__["y"] = y

    @property
    def ctx(self) -> LoopContext:
        return self.y.ctx

    def symbol(self) -> Symbol:
        g, zero = self.ctx.algebra, MatQ(self.ctx.dim, self.ctx.dim, {})
        return Symbol(
            {s: (g.ad(v), zero) for s, v in self.y.support.items()},
            {-s: tuple(s * u for u in g.form.mul_vec(v)) for s, v in self.y.support.items()},
        )


class TensorDerivation(LoopOperator):
    """``v(x)g -> D(v)(x)(f g)`` for a matrix D on L: ``A_s = f_s D``.

    A derivation of the loop algebra when D is one of L; it does not see the
    cocycle, so affine-level identities hold only modulo the center.
    """

    def __init__(self, ctx: LoopContext, matrix: MatQ, f: LaurentPoly):
        if (matrix.rows, matrix.cols) != (ctx.dim, ctx.dim):
            raise ValueError(f"tensor matrix must be {ctx.dim} x {ctx.dim}")
        self.__dict__.update(ctx=ctx, matrix=matrix, f=f)

    def symbol(self) -> Symbol:
        dim = self.ctx.dim
        zero, nz = MatQ(dim, dim, {}), self.matrix.nonzeros
        return Symbol({s: (MatQ(dim, dim, {u: c * v for u, v in nz.items()}), zero) for s, c in self.f.coeffs}, {})


class DiagonalDerivative(LoopOperator):
    """``h_i(x)t^j -> h_i(x) j t^{j-1} f_i`` and likewise on ``x_i``, so
    ``B_{d-1} = diag(f_{k mod l, d})``; kills ``L(x)1`` and K.  These are
    exactly the derivations of the loop algebra vanishing on ``L(x)1``."""

    def __init__(self, ctx: LoopContext, fs: tuple[LaurentPoly, ...]):
        if not ctx.square() or len(fs) != ctx.l:
            raise ValueError("need one Laurent weight per torus index")
        self.__dict__.update(ctx=ctx, fs=fs)

    def symbol(self) -> Symbol:
        dim, l = self.ctx.dim, self.ctx.l
        shifts = {d - 1 for f in self.fs for d in f.degrees()}
        diag = {s: _diagonal([self.fs[k % l].coeff(s + 1) for k in range(dim)]) for s in shifts}
        return Symbol({s: (MatQ(dim, dim, {}), b) for s, b in diag.items()}, {})


class ToralToCenter(LoopOperator):
    """Sends ``h_i (x) t^j`` to K and kills K, the root block, and every other
    toral mode: ``c_j`` is the ``h_i`` coordinate.  Indices are 1-based to
    match the CLI surface."""

    def __init__(self, ctx: LoopContext, i: int, j: int):
        if not (1 <= i <= ctx.l):
            raise ValueError(f"torus index must be in 1..{ctx.l}")
        self.__dict__.update(ctx=ctx, i=i, j=j)

    def symbol(self) -> Symbol:
        return Symbol({}, {self.j: self.ctx.algebra.basis_vector(self.i - 1)})


class OperatorSum(LoopOperator):
    """Finite weighted sum; its symbol is the weighted sum of the symbols."""

    def __init__(self, ctx: LoopContext, terms: tuple[tuple[Rat, LoopOperator], ...]):
        for _, op in terms:
            if op.ctx is not ctx:
                raise ValueError("operator sum mixes algebras")
        self.__dict__.update(ctx=ctx, terms=terms)

    def symbol(self) -> Symbol:
        dim, syms = self.ctx.dim, [(w, op._symbol) for w, op in self.terms]

        def mat(s: int, side: int) -> MatQ:
            out: dict[int, Rat] = {}
            for w, y in syms:
                for u, v in y.loop[s][side].nonzeros.items() if s in y.loop else ():
                    out[u] = out.get(u, 0) + w * v
            return MatQ(dim, dim, out)

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


class Decomposition(_Value):
    def __init__(self, tensor_terms: tuple[TensorDerivation, ...], residual: OperatorSum):
        self.__dict__.update(tensor_terms=tensor_terms, residual=residual)

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
        if not a.nonzeros:
            continue
        viol = leibniz_violation(ctx.algebra, a)
        if viol is not None:
            raise ValueError(f"degree-{s} component is not a derivation of L (pair {viol})")
        terms.append(TensorDerivation(ctx, a, LaurentPoly.monomial(s)))
    residual = OperatorSum(ctx, ((Fraction(1), op),) + tuple((Fraction(-1), t) for t in terms))
    if any(a.nonzeros for a, _ in residual._symbol.loop.values()) or 0 in residual._symbol.central:
        raise AssertionError("residual fails to kill L(x)1")
    return Decomposition(tensor_terms=tuple(terms), residual=residual)


class LoopAidResult(_Value):
    def __init__(self, witness: AffineElement | None, component_verdicts: tuple[tuple[int, str], ...]):
        # component_verdicts: (degree, status) pairs
        self.__dict__.update(witness=witness, component_verdicts=component_verdicts)

    @property
    def all_inner(self) -> bool:
        return self.witness is not None


def loop_aid_reduce(ctx: LoopContext, tensor_terms) -> LoopAidResult:
    """Inner witness for a sum of tensor derivations, when every degree
    component is an inner derivation of L; None as soon as one is not almost
    inner (the almost-inner condition at ``x (x) 1`` localises per degree)."""
    g = ctx.algebra
    verdicts = []
    parts: dict[int, list[tuple[Rat, Vec]]] = {}
    for term in tensor_terms:
        degs = term.f.degrees()
        if len(degs) != 1:
            raise ValueError("tensor terms from decomposition carry monomial weights")
        verdict = aid_membership(g, term.matrix)
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


def torus_component_obstruction(z: AffineElement) -> tuple[int, int] | None:
    """The lowest degree at which the loop part of z has a nonzero torus
    component, and the first torus index there (0-based), else None.  No
    bracket value has one: every bracket lands in the span of the root
    vectors tensor Laurent polynomials."""
    return next(((deg, k) for deg in z.degrees() for k in range(z.ctx.l) if z.support[deg][k]), None)


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
    if torus_component_obstruction(z) is None:
        raise AssertionError("value at h_i (x) t has no torus component")
    return False, {"fails_at": x, "value": z, "index": torus[0] + 1}


# ---------------------------------------------------------------------------
# witness searches
# ---------------------------------------------------------------------------


class WitnessResult(_Value):
    """status: "witnessed" | "root-obstruction" | "torus-obstruction" | "central-obstruction"."""

    def __init__(self, status: str, y: AffineElement | None, detail: dict | None = None):
        self.__dict__.update(status=status, y=y, detail=detail)


def _coordinate(x: AffineElement, k: int) -> LaurentPoly:
    return LaurentPoly.from_dict({deg: vec[k] for deg, vec in x.support.items()})


def _constant_term(p: LaurentPoly, q: LaurentPoly) -> Rat:
    return sum((a * q.coeff(-m) for m, a in p.coeffs), Fraction(0))


def _normal_form_solve(ctx: LoopContext, x: AffineElement, z: AffineElement) -> WitnessResult:
    """Solve ``[X, Y] = Z`` root by root, then the central equation (see the
    module docstring); Z has no torus loop component."""
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

    def t_beta(k: int) -> LaurentPoly:
        # t beta_k' with beta = P b, P the form on the torus; built only for the roots read
        d: dict[int, Rat] = {}
        for j in range(l):
            pkj = form.at(k, j)
            for deg, a in b[j].coeffs if pkj else ():
                d[deg] = d.get(deg, 0) + pkj * deg * a
        return LaurentPoly.from_dict(d)

    gap = z.central - sum((_constant_term(t_beta(k), u[k]) for k in range(l) if not u[k].is_zero), Fraction(0))
    if gap:
        for k in range(l):
            # the kernel of root k's equation is spanned by (b_k, c_k), or is everything when both vanish
            du, dv = (LaurentPoly.one(), LaurentPoly.zero()) if b[k].is_zero and c[k].is_zero else (b[k], c[k])
            if du.is_zero:
                continue
            p = t_beta(k) * du
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
    support: dict[int, list[Rat]] = {}
    for k in range(l):
        for index, poly in ((k, u[k]), (l + k, v[k])):
            for deg, a in poly.coeffs:
                support.setdefault(deg, [Fraction(0)] * ctx.dim)[index] = a
    return WitnessResult("witnessed", ctx.element({deg: tuple(vec) for deg, vec in support.items()}))


def _require_normal_form(ctx: LoopContext) -> None:
    if not normal_form(ctx.algebra):
        raise ValueError(
            "the exact witness solver needs Psi in normal form: |Psi| = rank, "
            "linearly independent, and no sum of two roots of Psi in Psi"
        )


def _exact_witness(ctx: LoopContext, x: AffineElement, z: AffineElement) -> WitnessResult:
    _require_normal_form(ctx)
    torus = torus_component_obstruction(z)
    if torus is not None:
        reason = "the target has a torus loop component, which no bracket has"
        return WitnessResult("torus-obstruction", None, {"reason": reason, "degree": torus[0], "index": torus[1] + 1})
    res = _normal_form_solve(ctx, x, z)
    if res.y is not None and affine_bracket(x, res.y) != z:
        raise AssertionError("exact solver returned a non-witness")
    return res


def toral_center_witness(ctx: LoopContext, i: int, j: int, x: AffineElement) -> WitnessResult:
    """Find Y with ``[X, Y] = (coefficient of h_i (x) t^j in X) K``.

    Requires ``j != 0`` (the degree-zero operator is obstructed; see
    ``aid_obstruction_check``).  A witness always exists then: the form on H
    is positive definite, so a nonzero torus part of X at degree j pairs
    with some torus direction.
    """
    if j == 0:
        raise ValueError("degree 0 has no bracket witness; use aid-check")
    return _exact_witness(ctx, x, ToralToCenter(ctx, i, j)(x))


def aid_obstruction_check(ctx: LoopContext, op: LoopOperator, x: AffineElement) -> WitnessResult:
    """Decide ``op(X) in [X, affinization]`` exactly: a witness Y, the root
    whose gcd does not divide its component of ``op(X)``, a torus component
    of ``op(X)`` (its lowest degree and torus index), or a central
    obstruction (no component of X at nonzero degree pairs with L, so no
    bracket against X reaches the center)."""
    return _exact_witness(ctx, x, op(x))


def global_inner_match(
    ctx: LoopContext,
    coefficients: dict[tuple[int, int], Rat | int],
    window: tuple[int, int],
) -> AffineElement | None:
    """One Y with ``ad(Y)`` equal to a weighted sum F of toral-to-center maps,
    decided without a search (see the module docstring): Y = 0 for the zero
    combination, and None for a nonzero one.  The window must not be empty
    and must hold the degree j of every nonzero term, or the CLI's
    ``--window`` would name degrees that miss a term.  Psi outside the
    normal form is invalid input.
    """
    if not ctx.square():
        raise ValueError("needs dim L = 2 dim [L,L]")
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]: the lower degree exceeds the upper")
    terms = [ToralToCenter(ctx, i, j) for (i, j), w in sorted(coefficients.items()) if Fraction(w) != 0]
    for t in terms:
        if not lo <= t.j <= hi:
            raise ValueError(f"window [{lo}, {hi}] misses degree {t.j} of the term d_{{{t.i},{t.j}}}")
    _require_normal_form(ctx)
    if not terms:
        return ctx.element({})
    l, weights = ctx.l, ctx.algebra.weights
    # explicit, so that it runs under python -O: the weight of x_k is the k-th unit vector
    if any(weights[l + k] != tuple(int(j == k) for j in range(l)) for k in range(l)):
        raise AssertionError("the torus weights of Psi do not have rank l, so Z(L) is not zero")
    return None

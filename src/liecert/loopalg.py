"""Loop algebra and affinization of a minimal Q-graded subalgebra.

Elements of the affinization ``L (x) F[t, 1/t] + F K`` are finitely supported
degree maps plus a central coordinate; brackets are exact, with the cocycle
term ``m (x, y) delta_{m+n,0} K`` read off the restricted Killing form.  The
operator calculus covers inner operators, tensor derivations ``v(x)g ->
D(v)(x)fg``, centroid multipliers, per-index weighted t-derivatives (the
operators killing ``L(x)1``), the toral-to-center derivations (coefficient of
``h_i(x)t^j`` emitted on K), and finite weighted sums of all of these.

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

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .chevalley import DistinguishedBasis, LieAlgebra, SubalgebraSpec, build_semisimple, extract_subalgebra
from .dercalc import aid_membership, leibniz_violation
from .exact import MatQ, Rat, rat_from_str, rat_to_str, solve, solve_sparse

__all__ = [
    "LaurentPoly",
    "laurent_div",
    "AffineElement",
    "LoopContext",
    "loop_context",
    "Inner",
    "TensorDerivation",
    "CentroidMultiplier",
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
        return LaurentPoly.from_dict({int(k): rat_from_str(v) for k, v in obj.items()})


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
    """Build the loop/affine context for a subalgebra spec."""
    if ambient is None:
        ambient = build_semisimple(spec.system)
    g, info = extract_subalgebra(ambient, spec)
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
        d = {deg: vec for deg, vec in self.support.items()}
        for deg, vec in other.support.items():
            if deg in d:
                d[deg] = tuple(a + b for a, b in zip(d[deg], vec))
            else:
                d[deg] = vec
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
        support = {int(k): tuple(rat_from_str(v) for v in vec) for k, vec in obj.get("support", {}).items()}
        return AffineElement(ctx, support, rat_from_str(obj.get("central", "0")))


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


class LoopOperator:
    """Linear operator on affine elements, closed under finite weighted sums."""

    ctx: LoopContext

    def apply(self, x: AffineElement) -> AffineElement:
        raise NotImplementedError

    def __call__(self, x: AffineElement) -> AffineElement:
        if x.ctx is not self.ctx:
            raise ValueError("element and operator live over different algebras")
        return self.apply(x)


@dataclass(frozen=True, eq=False)
class Inner(LoopOperator):
    """``X -> [y, X]``: the inner derivation attached to y."""

    y: AffineElement

    @property
    def ctx(self) -> LoopContext:
        return self.y.ctx

    def apply(self, x: AffineElement) -> AffineElement:
        return affine_bracket(self.y, x)


@dataclass(frozen=True, eq=False)
class TensorDerivation(LoopOperator):
    """``v(x)g -> D(v)(x)(f g)`` for a matrix D on L; kills K.

    A derivation of the loop algebra when D is one of L; it does not see the
    cocycle, so affine-level identities hold only modulo the center.
    """

    ctx: LoopContext
    matrix: MatQ
    f: LaurentPoly

    def apply(self, x: AffineElement) -> AffineElement:
        out: dict[int, list[Rat]] = {}
        for deg, vec in x.support.items():
            img = self.matrix.mul_vec(vec)
            if not any(img):
                continue
            for fd, fc in self.f.coeffs:
                acc = out.setdefault(deg + fd, [Fraction(0)] * self.ctx.dim)
                for k, v in enumerate(img):
                    acc[k] += fc * v
        return AffineElement(self.ctx, {d: tuple(v) for d, v in out.items()}, Fraction(0))


@dataclass(frozen=True, eq=False)
class CentroidMultiplier(LoopOperator):
    """``h_i(x)g -> c_i h_i(x)(f g)`` and likewise on x_i; kills K.

    Coordinates are over the diagonal centroid basis, so the context must be
    square (one root vector per torus direction).
    """

    ctx: LoopContext
    coeffs: tuple[Rat, ...]
    f: LaurentPoly

    def __post_init__(self):
        if not self.ctx.square() or len(self.coeffs) != self.ctx.l:
            raise ValueError("centroid multipliers need one coefficient per torus index")

    def apply(self, x: AffineElement) -> AffineElement:
        l = self.ctx.l
        out: dict[int, list[Rat]] = {}
        for deg, vec in x.support.items():
            scaled = tuple(self.coeffs[k % l] * v for k, v in enumerate(vec))
            if not any(scaled):
                continue
            for fd, fc in self.f.coeffs:
                acc = out.setdefault(deg + fd, [Fraction(0)] * self.ctx.dim)
                for k, v in enumerate(scaled):
                    acc[k] += fc * v
        return AffineElement(self.ctx, {d: tuple(v) for d, v in out.items()}, Fraction(0))


@dataclass(frozen=True, eq=False)
class DiagonalDerivative(LoopOperator):
    """``h_i(x)t^j -> h_i(x) j t^{j-1} f_i`` and likewise on ``x_i``; kills
    ``L(x)1`` and K.  These are exactly the derivations of the loop algebra
    vanishing on ``L(x)1``."""

    ctx: LoopContext
    fs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if not self.ctx.square() or len(self.fs) != self.ctx.l:
            raise ValueError("need one Laurent weight per torus index")

    def apply(self, x: AffineElement) -> AffineElement:
        l = self.ctx.l
        out: dict[int, list[Rat]] = {}
        for deg, vec in x.support.items():
            if deg == 0:
                continue
            for k, v in enumerate(vec):
                if not v:
                    continue
                f = self.fs[k % l]
                for fd, fc in f.coeffs:
                    acc = out.setdefault(deg - 1 + fd, [Fraction(0)] * self.ctx.dim)
                    acc[k] += deg * v * fc
        return AffineElement(self.ctx, {d: tuple(v) for d, v in out.items()}, Fraction(0))


@dataclass(frozen=True, eq=False)
class ToralToCenter(LoopOperator):
    """Sends ``h_i (x) t^j`` to K and kills K, the root block, and every other
    toral mode.  Indices are 1-based to match the CLI surface."""

    ctx: LoopContext
    i: int
    j: int

    def __post_init__(self):
        if not (1 <= self.i <= self.ctx.l):
            raise ValueError(f"torus index must be in 1..{self.ctx.l}")

    def apply(self, x: AffineElement) -> AffineElement:
        c = x.component(self.j)[self.i - 1]
        return AffineElement(self.ctx, {}, c)


@dataclass(frozen=True, eq=False)
class OperatorSum(LoopOperator):
    ctx: LoopContext
    terms: tuple[tuple[Rat, LoopOperator], ...]

    def __post_init__(self):
        for _, op in self.terms:
            if op.ctx is not self.ctx:
                raise ValueError("operator sum mixes algebras")

    def apply(self, x: AffineElement) -> AffineElement:
        acc = self.ctx.zero()
        for w, op in self.terms:
            acc = acc + op.apply(x).scale(w)
        return acc


# ---------------------------------------------------------------------------
# operator-level checks and constructions
# ---------------------------------------------------------------------------


def _probe_elements(ctx: LoopContext, span: int = 3) -> list[AffineElement]:
    probes = [ctx.basis_at(k, j) for j in range(-span, span + 1) for k in range(ctx.dim)]
    probes.append(ctx.central(1))
    return probes


def _random_element(ctx: LoopContext, rng: random.Random, span: int = 3) -> AffineElement:
    support = {}
    for deg in rng.sample(range(-span, span + 1), rng.randint(1, 3)):
        support[deg] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ctx.dim))
    return ctx.element(support, rng.randint(-2, 2))


def leibniz_check(
    op: LoopOperator,
    samples: int = 24,
    seed: int = 2024,
    include_central: bool = False,
) -> tuple[bool, tuple[AffineElement, AffineElement] | None]:
    """Verify ``D[x,y] = [Dx,y] + [x,Dy]`` on probes plus seeded random pairs.

    By default the comparison ignores the central coordinate: tensor-type
    operators are derivations of the loop algebra (the quotient by the
    center), not of the affinization.  ``include_central=True`` demands the
    affine identity exactly, which inner operators and the toral-to-center
    family satisfy.
    """
    ctx = op.ctx
    rng = random.Random(seed)
    probes = _probe_elements(ctx)
    pairs = [(a, b) for i, a in enumerate(probes) for b in probes[i + 1 :: max(1, len(probes) // 8)]]
    for _ in range(samples):
        pairs.append((_random_element(ctx, rng), _random_element(ctx, rng)))
    for x, y in pairs:
        lhs = op(affine_bracket(x, y))
        rhs = affine_bracket(op(x), y) + affine_bracket(x, op(y))
        same = lhs == rhs if include_central else lhs.loop_equal(rhs)
        if not same:
            return False, (x, y)
    return True, None


def centroid_multiplier(ctx: LoopContext, coeffs, f: LaurentPoly) -> CentroidMultiplier:
    """Centroid element of the loop algebra from diagonal coefficients and a
    Laurent multiplier (the tensor-product description of the loop centroid)."""
    return CentroidMultiplier(ctx, tuple(Fraction(c) for c in coeffs), f)


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

    Returns tensor terms ``D_i (x) t^i`` reconstructed degree by degree from
    ``op(b (x) 1)``, each ``D_i`` verified to satisfy Leibniz on L, plus the
    residual ``op - sum``, which kills ``L (x) 1`` exactly.
    """
    ctx = op.ctx
    g = ctx.algebra
    zero_vec = tuple(Fraction(0) for _ in range(ctx.dim))
    images = [op(ctx.basis_at(k, 0)) for k in range(ctx.dim)]
    columns: dict[int, list[Vec]] = {}
    for k, img in enumerate(images):
        if img.central != 0:
            raise ValueError("operator emits a central part on L(x)1; not a loop derivation")
        for deg, vec in img.support.items():
            columns.setdefault(deg, [zero_vec] * ctx.dim)
    for k, img in enumerate(images):
        for deg, vec in img.support.items():
            cols = list(columns[deg])
            cols[k] = vec
            columns[deg] = cols
    terms = []
    for deg in sorted(columns):
        cols = columns[deg]
        mat = MatQ(ctx.dim, ctx.dim, tuple(cols[c][r] for r in range(ctx.dim) for c in range(ctx.dim)))
        viol = leibniz_violation(g, mat)
        if viol is not None:
            raise ValueError(f"degree-{deg} component is not a derivation of L (pair {viol})")
        terms.append(TensorDerivation(ctx, mat, LaurentPoly.monomial(deg)))
    residual_terms = ((Fraction(1), op),) + tuple((Fraction(-1), t) for t in terms)
    residual = OperatorSum(ctx, residual_terms)
    for k in range(ctx.dim):
        if not residual(ctx.basis_at(k, 0)).is_zero:
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
    parts: dict[int, Vec] = {}
    all_inner = True
    for term in tensor_terms:
        degs = term.f.degrees()
        if len(degs) != 1:
            raise ValueError("tensor terms from decomposition carry monomial weights")
        deg = degs[0]
        verdict = aid_membership(g, info, term.matrix)
        verdicts.append((deg, verdict.status))
        if verdict.is_inner:
            scale = term.f.coeff(deg)
            vec = tuple(scale * v for v in verdict.witness)
            if deg in parts:
                parts[deg] = tuple(a + b for a, b in zip(parts[deg], vec))
            else:
                parts[deg] = vec
        else:
            all_inner = False
    if not all_inner:
        return LoopAidResult(witness=None, component_verdicts=tuple(verdicts))
    witness = ctx.element(parts)
    inner = Inner(witness)
    d = OperatorSum(ctx, tuple((Fraction(1), t) for t in tensor_terms))
    for p in _probe_elements(ctx, span=2):
        if not inner(p).loop_equal(d(p)):
            raise AssertionError("inner witness disagrees with the tensor sum on probes")
    return LoopAidResult(witness=witness, component_verdicts=tuple(verdicts))


def torus_component_obstruction(z: AffineElement) -> bool:
    """True when the loop part of z has a nonzero torus component, which no
    bracket value can have (every bracket lands in the span of the root
    vectors tensor Laurent polynomials)."""
    l = z.ctx.l
    return any(any(vec[:l]) for vec in z.support.values())


def diagonal_derivative_aid_check(ctx: LoopContext, fs) -> tuple[bool, dict | None]:
    """A weighted-t-derivative operator is almost inner only when it is zero.

    For a nonzero weight ``f_i`` the value at ``h_i (x) t`` is ``h_i (x) f_i``,
    whose torus component certifies non-membership in every bracket space.
    """
    fs = tuple(fs)
    if all(f.is_zero for f in fs):
        return True, None
    op = DiagonalDerivative(ctx, fs)
    i = next(k for k, f in enumerate(fs) if not f.is_zero)
    x = ctx.basis_at(i, 1)
    z = op(x)
    if not torus_component_obstruction(z):
        raise AssertionError("value at h_i (x) t has no torus component")
    return False, {"fails_at": x, "value": z, "index": i + 1}


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
                ad = g.ad(xv)
                memo[xv] = (
                    [(k, c, ad.at(c, k)) for k in range(dim) for c in range(dim) if ad.at(c, k)],
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
    Laurent division.  Returns Y, or a string describing the failing step."""
    l = ctx.l
    info = ctx.basis
    if info.dual_torus_local is None or info.gram is None:
        raise ValueError("the witness ansatz needs the dual torus basis and the Gram matrix")
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
    yvec = [Fraction(0)] * ctx.dim
    for m, coeff in enumerate(torus):
        if coeff:
            for k, v in enumerate(info.dual_torus_local[m]):
                yvec[k] += coeff * v
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
    g = ctx.algebra
    pairing_dead = True
    for deg, vec in x.support.items():
        if deg == 0:
            continue
        row = g.form.mul_vec(vec)
        if any(row):
            pairing_dead = False
            break
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

    Probes are all ``h_i (x) t^j``, ``x_p (x) t^n`` and mixed sums with
    distinct indices, over the window.  A nonzero combination admits no match
    (each probe forces another Y coordinate to vanish, and the central row
    then cannot be met); the zero combination returns Y = 0.  None is
    window-bounded: inconclusive-negative, not a proof for unseen degrees.
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
    l = ctx.l
    probes: list[AffineElement] = []
    for i in range(ctx.dim):
        for j in range(lo, hi + 1):
            probes.append(ctx.basis_at(i, j))
    for i in range(l):
        for p in range(l):
            if p == i and l > 1:
                continue
            for j in range(lo, hi + 1):
                for n in range(lo, hi + 1):
                    probes.append(ctx.basis_at(i, j) + ctx.basis_at(l + p, n))
    pairs = [(p, op(p)) for p in probes]
    return bracket_match(ctx, pairs, window)

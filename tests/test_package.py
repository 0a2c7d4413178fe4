"""The package's public names, the layers that each command imports, and the
contract of its read-only classes."""

import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import liecert

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(liecert.__path__))


@pytest.mark.parametrize("name", ["liecert"] + [f"liecert.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), exported
    assert [n for n in exported if not hasattr(module, n)] == []


def _fresh(script, *argv):
    """Run ``script`` in a fresh interpreter with ``src`` on the path; its
    standard output, split into lines."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LOADED = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'liecert'))"

PUBLIC = [
    "__version__",
    "Rat", "MatQ", "kernel_basis", "solve", "invariant_factors",
    "RootSystem", "build_root_system", "height", "root_sum",
    "CONVENTION", "LieAlgebra", "SubalgebraSpec",
    "build_semisimple", "extract_subalgebra",
    "QGradedCertificate", "is_closed", "spans_q", "is_minimal", "enumerate_minimal", "verify_metabelian", "certify",
]


def test_public_names_are_pinned_and_listed():
    assert liecert.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(liecert))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="'liecert' has no attribute 'no_such_name'"):
        liecert.no_such_name


def test_public_names_load_their_module_on_first_use():
    script = f"import sys\nimport liecert\nprint({LOADED})\nfrom liecert import certify\nprint({LOADED})"
    bare, after = _fresh(script)
    assert bare == "liecert"
    assert after.split() == ["liecert", "liecert.chevalley", "liecert.exact", "liecert.qgraded", "liecert.rootsys"]


INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
B2_MIN = ["--family", "B", "--rank", "2", "--psi", "1,0;2,1"]
A1 = ["--family", "A", "--rank", "1"]
X = str(INPUTS / "x_h1_deg1.json")
OP = str(INPUTS / "op_d11.json")
ROOTS = {"liecert", "liecert.cli", "liecert.exact", "liecert.rootsys"}
GRADED = ROOTS | {"liecert.chevalley", "liecert.qgraded"}
DERIVATIONS = GRADED | {"liecert.dercalc"}
LOOP = DERIVATIONS | {"liecert.loopalg"}

# argv, exit code, the liecert modules that the command loads
BOUNDARY = [
    (["roots", *A1], 0, ROOTS),
    (["minimal", *A1], 0, GRADED),
    (["certify", *A1, "--psi", "1"], 0, GRADED),
    (["der", *A1, "--psi", "1"], 0, DERIVATIONS),
    (["aid", *A1, "--psi", "1"], 0, DERIVATIONS),
    (["centroid", *A1, "--psi", "1"], 0, DERIVATIONS),
    (["affine-bracket", *B2_MIN, "--x", X, "--y", X], 0, LOOP),
    (["dij-witness", *B2_MIN, "--i", "1", "--j", "1", "--x", X], 0, LOOP),
    (["aid-check", *B2_MIN, "--op", OP, "--x", X], 0, LOOP),
    (["inner-match", *B2_MIN, "--op", OP, "--window", "1"], 3, LOOP),
    (["selftest", "--criteria", "1"], 0, LOOP | {"liecert.selfcheck"}),
]


# standard modules that no command needs; each is slow to import
UNUSED_STDLIB = ("dataclasses", "inspect", "typing")


@pytest.mark.parametrize("argv, code, modules", BOUNDARY, ids=[argv[0] for argv, _, _ in BOUNDARY])
def test_each_command_imports_only_its_layers(argv, code, modules):
    # the stdlib check counts only what the command loads: `site` may already
    # have loaded one of them (typing, on some interpreters)
    script = (
        "import io, sys\nbefore = set(sys.modules)\nfrom liecert.cli import run\n"
        f"print(run(sys.argv[1:], out=io.StringIO()))\nprint({LOADED})\n"
        f"print(' '.join(sorted((set(sys.modules) - before) & set({UNUSED_STDLIB!r}))))"
    )
    got_code, loaded, stdlib = _fresh(script, *argv)
    assert int(got_code) == code
    assert set(loaded.split()) == modules
    assert stdlib == ""


# ---------------------------------------------------------------------------
# the read-only classes: frozen, compared by value or by identity as declared
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def b2():
    from liecert.chevalley import SubalgebraSpec
    from liecert.loopalg import loop_context
    from liecert.rootsys import build_root_system

    rs = build_root_system("B", 2)
    spec = SubalgebraSpec(rs, ((1, 0), (2, 1)))
    return rs, spec, loop_context(spec)


def _instances(b2):
    """One instance of each of the package's read-only classes."""
    from liecert.dercalc import AidVerdict, centroid_space, derivation_space, verify_aid_eq_inn
    from liecert.exact import MatQ
    from liecert.loopalg import (
        Inner,
        LaurentPoly,
        ToralToCenter,
        aid_obstruction_check,
        centroid_multiplier,
        decompose_derivation,
        diagonal_derivative,
        loop_aid_reduce,
    )
    from liecert.qgraded import certify
    from liecert.selfcheck import CriterionResult

    rs, spec, ctx = b2
    x, one = ctx.basis_at(0, 1), LaurentPoly.one()
    op = ToralToCenter(ctx, 1, 1)
    decomposition = decompose_derivation(op)
    return [
        MatQ.identity(2), rs, spec, ctx.algebra, certify(spec),
        derivation_space(ctx.algebra), centroid_space(ctx.algebra), AidVerdict("inner"), verify_aid_eq_inn(spec),
        one, ctx, x, op._symbol, op, Inner(x), centroid_multiplier(ctx, (1, 1), one),
        diagonal_derivative(ctx, (one, one)), decomposition.residual, decomposition,
        loop_aid_reduce(ctx, ()), aid_obstruction_check(ctx, op, x), CriterionResult(1, "name", True, "", 0.0),
    ]


def test_attributes_cannot_be_assigned_or_deleted(b2):
    instances = _instances(b2)
    assert len({type(obj) for obj in instances}) == len(instances) == 22
    for obj in instances:
        name = next(iter(vars(obj)))
        with pytest.raises(AttributeError, match="read-only"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(obj, name)
        with pytest.raises(AttributeError, match="read-only"):
            obj.new_attribute = None


def test_equal_specs_are_one_memo_key(b2):
    from liecert import chevalley
    from liecert.chevalley import SubalgebraSpec, extract_subalgebra

    rs, spec, _ = b2
    again = SubalgebraSpec(rs, [(2, 1), (1, 0)])
    assert again is not spec and again == spec and hash(again) == hash(spec)
    assert SubalgebraSpec(rs, ((1, 0), (0, 1))) != spec
    first = extract_subalgebra(spec)
    hits = chevalley._extract.cache_info().hits
    assert extract_subalgebra(again) is first
    assert chevalley._extract.cache_info().hits == hits + 1


def test_values_compare_by_value():
    from liecert.exact import MatQ
    from liecert.loopalg import LaurentPoly, Symbol

    m = MatQ(2, 2, dict(enumerate((Fraction(1), Fraction(0), Fraction(0), Fraction(1)))))
    assert m == MatQ.identity(2) and hash(m) == hash(MatQ.identity(2))
    assert m != MatQ(2, 2, {}) and m != (2, 2, m.nonzeros)
    # explicit zeros are dropped: a dict with zeros, rows and JSON give one value
    half = Fraction(1, 2)
    with_zeros = MatQ(2, 3, {0: half, 1: Fraction(0), 4: Fraction(-3), 5: 0})
    from_rows = MatQ.from_rows([[half, 0, 0], [0, -3, 0]])
    from_json = MatQ.from_json({"rows": 2, "cols": 3, "entries": ["1/2", "0", "0", "0", "-3", "0"]})
    assert with_zeros == from_rows == from_json and dict(with_zeros.nonzeros) == {0: half, 4: -3}
    assert hash(with_zeros) == hash(from_rows) == hash(from_json)
    assert with_zeros != MatQ(3, 2, {0: half, 4: Fraction(-3)}) and len({with_zeros, from_rows, from_json}) == 1
    for bad in ({-1: half}, {6: half}, {6: Fraction(0)}, {0: half, 100: half}):
        with pytest.raises(ValueError, match="out of range"):
            MatQ(2, 3, bad)
    with pytest.raises(ValueError, match="out of range"):
        MatQ(0, 3, {0: half})
    with pytest.raises(TypeError):
        with_zeros.nonzeros[0] = Fraction(1)  # read-only
    assert LaurentPoly.from_dict({1: 2, 3: 0}) == LaurentPoly.monomial(1, 2) != LaurentPoly.monomial(1, 3)
    zero = MatQ(2, 2, {})
    # zero parts are dropped, so both symbols hold only the shift-0 part
    assert Symbol({0: (m, zero), 1: (zero, zero)}, {2: (0, 0)}) == Symbol({0: (m, zero)}, {})
    assert repr(LaurentPoly.one()) == "LaurentPoly(coeffs=((0, Fraction(1, 1)),))"


def test_structures_compare_by_identity(b2):
    from liecert.chevalley import LieAlgebra
    from liecert.loopalg import LoopContext
    from liecert.rootsys import RootSystem

    rs, _, ctx = b2
    fields = ("family", "rank", "cartan", "roots", "root_index", "symmetrizer")
    assert RootSystem(*(getattr(rs, f) for f in fields)) != rs
    assert LieAlgebra(1, ("a",), {}) != LieAlgebra(1, ("a",), {})
    same = LoopContext(algebra=ctx.algebra)
    assert same != ctx and same == same
    assert ctx.basis_at(0, 1) == ctx.basis_at(0, 1)  # AffineElement keeps its own value equality
    with pytest.raises(TypeError):
        hash(ctx.basis_at(0, 1))


def test_cached_properties_still_cache(b2):
    from liecert.chevalley import LieAlgebra
    from liecert.rootsys import _build_root_system

    g = LieAlgebra(2, ("h", "x"), {(0, 1): ((1, Fraction(1)),)}, torus=1)
    assert g._table is g._table and "_table" in vars(g)
    rs = _build_root_system.__wrapped__("A", 2)
    assert rs.positive_roots is rs.positive_roots and "positive_roots" in vars(rs)


def test_keyword_constructors_and_defaults(b2):
    from liecert.dercalc import AidVerdict
    from liecert.loopalg import AffineElement, LoopContext, WitnessResult

    _, _, ctx = b2
    verdict = AidVerdict(status="not-aid")
    assert (verdict.status, verdict.witness, verdict.reason, verdict.data) == ("not-aid", None, None, None)
    assert AidVerdict(status="inner", reason="r") == AidVerdict("inner", None, "r", None)
    assert repr(verdict) == "AidVerdict(status='not-aid', witness=None, reason=None, data=None)"
    assert LoopContext(algebra=ctx.algebra).dim == ctx.dim
    empty = AffineElement(ctx=ctx)
    assert empty.support == {} and empty.central == 0 and isinstance(empty.central, Fraction)
    assert AffineElement(ctx, None, 2).central == Fraction(2)
    assert WitnessResult(status="witnessed", y=None).detail is None

"""The package's public names, and the layers that each command imports."""

import importlib
import os
import pkgutil
import subprocess
import sys
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
    "Rat", "MatQ", "rref", "kernel_basis", "solve", "invariant_factors",
    "RootSystem", "build_root_system", "height", "root_sum",
    "CONVENTION", "LieAlgebra", "SubalgebraSpec", "DistinguishedBasis",
    "build_semisimple", "killing_form", "extract_subalgebra",
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


@pytest.mark.parametrize("argv, code, modules", BOUNDARY, ids=[argv[0] for argv, _, _ in BOUNDARY])
def test_each_command_imports_only_its_layers(argv, code, modules):
    script = (
        "import io, sys\nfrom liecert.cli import run\n"
        f"print(run(sys.argv[1:], out=io.StringIO()))\nprint({LOADED})"
    )
    got_code, loaded = _fresh(script, *argv)
    assert int(got_code) == code
    assert set(loaded.split()) == modules

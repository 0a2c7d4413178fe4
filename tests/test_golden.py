"""Golden certificates: fixed CLI commands whose stdout and exit code are frozen.

Each case runs ``liecert.cli.run`` in-process from ``tests/golden/inputs``,
so an input file is named as given on every checkout, with
``build_semisimple`` made to raise, and compares the document byte for byte
with ``tests/golden/<name>.out``.  A change that alters any of these
outputs has to say why; regenerate deliberately with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import liecert
from liecert.cli import SEED_ENV, run

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

B2_MIN = ["--family", "B", "--rank", "2", "--psi", "1,0;2,1"]
A4_CHAIN = ["--family", "A", "--rank", "4", "--psi", "1,0,0,0;1,1,0,0;1,1,1,0;1,1,1,1"]
A3_CHAIN = ["--family", "A", "--rank", "3", "--psi", "1,0,0;1,1,0;1,1,1"]
E6_BIPARTITE = [
    "--family", "E", "--rank", "6",
    "--psi", "1,0,0,0,0,0;0,-1,0,0,0,0;0,0,-1,0,0,0;0,0,0,1,0,0;0,0,0,0,-1,0;0,0,0,0,0,1",
]
E8_BIPARTITE = [
    "--family", "E", "--rank", "8",
    "--psi", "1,0,0,0,0,0,0,0;0,-1,0,0,0,0,0,0;0,0,-1,0,0,0,0,0;0,0,0,1,0,0,0,0;"
    "0,0,0,0,-1,0,0,0;0,0,0,0,0,1,0,0;0,0,0,0,0,0,-1,0;0,0,0,0,0,0,0,1",
]

# name -> (argv, exit code); input file names are relative to golden/inputs
CASES = {
    "minimal-B2": (["minimal", "--family", "B", "--rank", "2"], 0),
    "certify-A4-chain": (["certify"] + A4_CHAIN, 0),
    "der-A4-chain": (["der"] + A4_CHAIN, 0),
    "aid-A4-chain": (["aid"] + A4_CHAIN, 0),
    "aid-A4-chain-matrix": (["aid"] + A4_CHAIN + ["--matrix", "d_a4_chain_inner.json"], 0),
    "aid-B2-nonminimal-precondition": (
        ["aid", "--family", "B", "--rank", "2", "--psi", "1,0", "--matrix", "d_b2_nonminimal_outer.json"],
        1,
    ),
    # four commuting root vectors over a rank-3 torus: scaling x_1 alone is a
    # derivation, and D(x) is outside [x, L] at x = sum x_i
    "aid-A3-abelian-ideal-scalar-system": (
        ["aid", "--family", "A", "--rank", "3", "--psi", "0,1,0;1,1,0;0,1,1;1,1,1"]
        + ["--matrix", "d_a3_abelian_ideal_diagonal.json"],
        1,
    ),
    "affine-bracket-B2": (["affine-bracket"] + B2_MIN + ["--x", "x_division_fails.json", "--y", "y_b2_mixed.json"], 0),
    "centroid-A4-chain": (["centroid"] + A4_CHAIN, 0),
    "centroid-B2-nonminimal": (["centroid", "--family", "B", "--rank", "2", "--psi", "1,0"], 0),
    "certify-E6-bipartite": (["certify"] + E6_BIPARTITE, 0),
    "certify-E8-bipartite": (["certify"] + E8_BIPARTITE, 0),
    "certify-B2-not-closed": (["certify", "--family", "B", "--rank", "2", "--psi", "1,0;0,1"], 1),
    "der-B2-nonminimal": (["der", "--family", "B", "--rank", "2", "--psi", "1,0"], 0),
    "der-B2-opposite-pair": (["der", "--family", "B", "--rank", "2", "--psi", "1,0;-1,0"], 0),
    "dij-witness-B2-ansatz": (["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", "x_ansatz.json"], 0),
    "dij-witness-B2-general": (
        ["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", "x_division_fails.json"],
        0,
    ),
    "dij-witness-A3-chain-general": (
        ["dij-witness"] + A3_CHAIN + ["--i", "1", "--j", "1", "--x", "x_a3_division_fails.json"],
        0,
    ),
    "aid-check-B2-witnessed": (["aid-check"] + B2_MIN + ["--op", "op_d11.json", "--x", "x_h1_deg1.json"], 0),
    "aid-check-B2-mixed": (["aid-check"] + B2_MIN + ["--op", "op_d11.json", "--x", "x_division_fails.json"], 0),
    "aid-check-B2-obstruction": (["aid-check"] + B2_MIN + ["--op", "op_d10.json", "--x", "x_h1_deg0.json"], 1),
    "aid-check-B2-root-obstruction": (
        ["aid-check"] + B2_MIN + ["--op", "op_diagonal_t.json", "--x", "x_one_plus_t_x1.json"],
        1,
    ),
    "aid-check-B2-torus-obstruction": (
        ["aid-check"] + B2_MIN + ["--op", "op_diagonal_t.json", "--x", "x_h1_deg1.json"],
        1,
    ),
    "inner-match-B2-window2": (["inner-match"] + B2_MIN + ["--op", "op_d11.json", "--window", "2"], 3),
    "inner-match-A4-chain-window2": (["inner-match"] + A4_CHAIN + ["--op", "op_a4_mixed.json", "--window", "2"], 3),
    "selftest": (["selftest"], 0),
    "roots-invalid-type": (["roots", "--family", "Q", "--rank", "9"], 2),
    "roots-E8": (["roots", "--family", "E", "--rank", "8"], 0),
    "dij-witness-degree-zero": (["dij-witness"] + B2_MIN + ["--i", "1", "--j", "0", "--x", "x_h1_deg0.json"], 2),
    # "1" and "01" name one degree: refused, not read as the later key
    "dij-witness-duplicate-degree": (
        ["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", "x_duplicate_degree.json"],
        2,
    ),
    # one object names the key "1" twice: refused, not read as the later value
    "dij-witness-repeated-key": (
        ["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", "x_repeated_key.json"],
        2,
    ),
}


def _invoke(name):
    argv, _ = CASES[name]
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def _forbid_ambient_builds(monkeypatch):
    """Make ``build_semisimple`` raise at every binding site in the package:
    no command, ``selftest`` included, builds the ambient algebra."""

    def refuse(rs):
        raise AssertionError(f"built the ambient algebra of {rs.family}{rs.rank}")

    for info in pkgutil.iter_modules(liecert.__path__, "liecert."):
        importlib.import_module(info.name)
    for name, module in list(sys.modules.items()):
        if (name == "liecert" or name.startswith("liecert.")) and hasattr(module, "build_semisimple"):
            monkeypatch.setattr(module, "build_semisimple", refuse)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.chdir(INPUTS)
    _forbid_ambient_builds(monkeypatch)
    code, text = _invoke(name)
    assert code == CASES[name][1]
    assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_goldens_in_one_process_forward_then_reverse(monkeypatch):
    # the extraction memo is shared by every command in a process, so no
    # document may depend on which commands ran before it
    from liecert import chevalley

    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.chdir(INPUTS)
    _forbid_ambient_builds(monkeypatch)
    chevalley._extract.cache_clear()
    names = sorted(CASES)
    for name in names + names[::-1]:
        code, text = _invoke(name)
        assert code == CASES[name][1], name
        assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
    assert chevalley._extract.cache_info().hits > 0


def test_no_orphan_goldens():
    # every frozen document and every input file belongs to a case
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)
    named = {a for argv, _ in CASES.values() for a in argv if a.endswith(".json")}
    assert {p.name for p in INPUTS.iterdir()} <= named


# the witness solver keeps per-call dicts keyed by degree, and inner-match
# its coefficients keyed by (i, j); no document may depend on the
# interpreter's hash seed
HASH_SEED_CASES = [
    "dij-witness-A3-chain-general",
    "dij-witness-B2-general",
    "inner-match-A4-chain-window2",
    "inner-match-B2-window2",
]


def _same_output_under_hash_seeds(name):
    argv, code = CASES[name]
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != SEED_ENV}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    for hash_seed in ("0", "1", "7"):
        proc = subprocess.run(
            [sys.executable, "-m", "liecert.cli"] + argv,
            cwd=INPUTS,
            env=dict(base, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == want, f"PYTHONHASHSEED={hash_seed}"


@pytest.mark.parametrize("name", HASH_SEED_CASES)
def test_witness_output_independent_of_hash_seed(name):
    _same_output_under_hash_seeds(name)


# the ambient form and the subalgebra tables are read off dicts keyed by roots
@pytest.mark.parametrize("name", ["certify-E8-bipartite", "der-B2-opposite-pair"])
def test_graded_output_independent_of_hash_seed(name):
    _same_output_under_hash_seeds(name)


if __name__ == "__main__":
    os.environ.pop(SEED_ENV, None)
    os.chdir(INPUTS)
    for name in sys.argv[1:] or sorted(CASES):
        code, text = _invoke(name)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
        print(f"wrote {name} (exit {code})")

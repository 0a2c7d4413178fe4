"""Golden certificates: fixed CLI commands whose stdout and exit code are frozen.

Each case runs ``liecert.cli.run`` in-process and compares the document byte
for byte with ``tests/golden/<name>.out``.  A change that alters any of these
outputs has to say why; regenerate deliberately with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from pathlib import Path

import pytest

from liecert.cli import SEED_ENV, run

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

B2_MIN = ["--family", "B", "--rank", "2", "--psi", "1,0;2,1"]
A4_CHAIN = ["--family", "A", "--rank", "4", "--psi", "1,0,0,0;1,1,0,0;1,1,1,0;1,1,1,1"]
E6_BIPARTITE = [
    "--family", "E", "--rank", "6",
    "--psi", "1,0,0,0,0,0;0,-1,0,0,0,0;0,0,-1,0,0,0;0,0,0,1,0,0;0,0,0,0,-1,0;0,0,0,0,0,1",
]

# name -> (argv, exit code); input file names are resolved under golden/inputs
CASES = {
    "minimal-B2": (["minimal", "--family", "B", "--rank", "2"], 0),
    "certify-A4-chain": (["certify"] + A4_CHAIN, 0),
    "der-A4-chain": (["der"] + A4_CHAIN, 0),
    "aid-A4-chain": (["aid"] + A4_CHAIN, 0),
    "centroid-A4-chain": (["centroid"] + A4_CHAIN, 0),
    "certify-E6-bipartite": (["certify"] + E6_BIPARTITE, 0),
    "certify-B2-not-closed": (["certify", "--family", "B", "--rank", "2", "--psi", "1,0;0,1"], 1),
    "der-B2-nonminimal": (["der", "--family", "B", "--rank", "2", "--psi", "1,0"], 0),
    "dij-witness-B2-ansatz": (["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", "x_ansatz.json"], 0),
    "dij-witness-B2-general": (
        ["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", "x_division_fails.json", "--window", "2"],
        0,
    ),
    "aid-check-B2-witnessed": (["aid-check"] + B2_MIN + ["--op", "op_d11.json", "--x", "x_h1_deg1.json"], 0),
    "aid-check-B2-mixed": (["aid-check"] + B2_MIN + ["--op", "op_d11.json", "--x", "x_division_fails.json"], 0),
    "aid-check-B2-obstruction": (["aid-check"] + B2_MIN + ["--op", "op_d10.json", "--x", "x_h1_deg0.json"], 1),
    "inner-match-B2-window2": (["inner-match"] + B2_MIN + ["--op", "op_d11.json", "--window", "2"], 3),
    "selftest": (["selftest"], 0),
    "roots-invalid-type": (["roots", "--family", "Q", "--rank", "9"], 2),
    "dij-witness-degree-zero": (["dij-witness"] + B2_MIN + ["--i", "1", "--j", "0", "--x", "x_h1_deg0.json"], 2),
}


def _argv(argv):
    return [str(INPUTS / a) if a.endswith(".json") else a for a in argv]


def _invoke(name):
    argv, _ = CASES[name]
    buf = io.StringIO()
    code = run(_argv(argv), out=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code, text = _invoke(name)
    assert code == CASES[name][1]
    assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    import os

    os.environ.pop(SEED_ENV, None)
    for name in sys.argv[1:] or sorted(CASES):
        code, text = _invoke(name)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
        print(f"wrote {name} (exit {code})")

"""CLI surface: subcommands, exit codes, JSON shapes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liecert.cli import parse_psi, run


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    text = buf.getvalue()
    doc = json.loads(text) if text.strip() else None
    return code, doc, text


def test_parse_psi():
    assert parse_psi("1,0;2,1") == ((1, 0), (2, 1))
    assert parse_psi("-1,0") == ((-1, 0),)
    with pytest.raises(ValueError):
        parse_psi(";;")


def test_roots_command():
    code, doc, _ = invoke(["roots", "--family", "B", "--rank", "2"])
    assert code == 0
    assert doc["family"] == "B" and doc["rank"] == 2
    assert [1, 0] in doc["roots"] and [2, 1] in doc["roots"]
    assert len(doc["roots"]) == 8


def test_roots_invalid_type_exits_2():
    code, doc, _ = invoke(["roots", "--family", "Q", "--rank", "9"])
    assert code == 2 and "error" in doc


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_minimal_b2():
    code, doc, _ = invoke(["minimal", "--family", "B", "--rank", "2"])
    assert code == 0
    assert doc["command"] == "minimal"
    assert doc["verdicts"]["count"] == 8
    psis = [set(map(tuple, psi)) for psi in doc["verdicts"]["minimal_subalgebras"]]
    assert {(1, 0), (2, 1)} in psis


def test_minimal_cap_exceeded():
    code, doc, _ = invoke(["minimal", "--family", "E", "--rank", "6"])
    assert code == 2


def test_certify_positive_and_exit_codes():
    code, doc, _ = invoke(["certify", "--family", "B", "--rank", "2", "--psi", "1,0;0,-1"])
    assert code == 0
    v = doc["verdicts"]
    assert v["closed"] and v["spans_q"] and v["minimal"] and v["metabelian"]
    # non-minimal, non-abelian: positives of B2
    code, doc, _ = invoke(["certify", "--family", "B", "--rank", "2", "--psi", "1,0;0,1;1,1;2,1"])
    assert code == 1
    assert doc["verdicts"]["minimal"] is False and doc["verdicts"]["metabelian"] is False


def test_certify_not_closed_reports_witness():
    code, doc, _ = invoke(["certify", "--family", "B", "--rank", "2", "--psi", "1,0;0,1"])
    assert code == 1
    assert doc["verdicts"]["closed"] is False
    assert doc["verdicts"]["closure_witness"] is not None


def test_der_and_centroid():
    code, doc, _ = invoke(["der", "--family", "B", "--rank", "2", "--psi", "1,0;2,1"])
    assert code == 0
    assert doc["verdicts"]["dim_der"] == 4 == doc["verdicts"]["dim_inn"]
    code, doc, _ = invoke(["centroid", "--family", "B", "--rank", "2", "--psi", "1,0;2,1"])
    assert code == 0
    assert doc["verdicts"]["dim"] == 2 and doc["verdicts"]["diagonal"]


def test_aid_full_certificate():
    code, doc, _ = invoke(["aid", "--family", "B", "--rank", "2", "--psi", "1,0;2,1"])
    assert code == 0
    assert doc["verdicts"]["ok"]


def test_aid_with_matrix_file(tmp_path):
    zero = {"rows": 4, "cols": 4, "entries": ["0"] * 16}
    p = tmp_path / "d.json"
    p.write_text(json.dumps(zero))
    code, doc, _ = invoke(["aid", "--family", "B", "--rank", "2", "--psi", "1,0;2,1", "--matrix", str(p)])
    assert code == 0 and doc["verdicts"]["status"] == "inner"
    bad = {"rows": 4, "cols": 4, "entries": ["0"] * 12 + ["1"] + ["0"] * 3}  # h_1 -> x_2
    p.write_text(json.dumps(bad))
    code, doc, _ = invoke(["aid", "--family", "B", "--rank", "2", "--psi", "1,0;2,1", "--matrix", str(p)])
    assert code == 1 and doc["verdicts"]["status"] == "not-derivation"


def test_affine_bracket_command(tmp_path):
    x = {"central": "0", "support": {"1": ["1", "0", "0", "0"]}}
    y = {"central": "0", "support": {"-1": ["0", "1", "0", "0"]}}
    (tmp_path / "x.json").write_text(json.dumps(x))
    (tmp_path / "y.json").write_text(json.dumps(y))
    code, doc, _ = invoke(
        [
            "affine-bracket",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
        ]
    )
    assert code == 0
    out = doc["verdicts"]["bracket"]
    assert out["support"] == {}  # torus brackets vanish; only a central term can remain


def test_dij_witness_command(tmp_path):
    x = {"central": "0", "support": {"1": ["2", "0", "0", "0"], "0": ["0", "0", "1", "0"]}}
    (tmp_path / "x.json").write_text(json.dumps(x))
    code, doc, _ = invoke(
        [
            "dij-witness",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--i", "1", "--j", "1", "--x", str(tmp_path / "x.json"),
        ]
    )
    assert code == 0
    assert doc["verdicts"]["status"] == "witnessed"
    assert doc["verdicts"]["witness"] is not None


def test_dij_witness_degree_zero_rejected(tmp_path):
    x = {"central": "0", "support": {"0": ["1", "0", "0", "0"]}}
    (tmp_path / "x.json").write_text(json.dumps(x))
    code, doc, _ = invoke(
        [
            "dij-witness",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--i", "1", "--j", "0", "--x", str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


def test_dij_witness_window_exhausted_exits_3(tmp_path):
    # the ansatz fails Laurent division here, and a zero-width window at
    # degree 0 cannot hold the degree -1 torus correction the target needs
    x = {
        "central": "0",
        "support": {"1": ["1", "0", "0", "0"], "2": ["1", "0", "0", "0"], "0": ["0", "0", "1", "0"]},
    }
    (tmp_path / "x.json").write_text(json.dumps(x))
    code, doc, _ = invoke(
        [
            "dij-witness",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--i", "1", "--j", "1", "--x", str(tmp_path / "x.json"),
            "--window", "0",
        ]
    )
    assert code == 3
    assert doc["verdicts"]["status"] == "no-witness-in-window"
    assert doc["verdicts"]["fast_path_failure"] == "laurent-division"


def test_aid_check_central_obstruction(tmp_path):
    x = {"central": "0", "support": {"0": ["1", "0", "0", "0"]}}
    op = {"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 0}]}
    (tmp_path / "x.json").write_text(json.dumps(x))
    (tmp_path / "op.json").write_text(json.dumps(op))
    code, doc, _ = invoke(
        [
            "aid-check",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--op", str(tmp_path / "op.json"), "--x", str(tmp_path / "x.json"),
        ]
    )
    assert code == 1
    assert doc["verdicts"]["status"] == "central-obstruction"
    assert doc["verdicts"]["flags"]


def test_aid_check_witnessed(tmp_path):
    x = {"central": "0", "support": {"1": ["1", "0", "0", "0"]}}
    op = {"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 1}]}
    (tmp_path / "x.json").write_text(json.dumps(x))
    (tmp_path / "op.json").write_text(json.dumps(op))
    code, doc, _ = invoke(
        [
            "aid-check",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--op", str(tmp_path / "op.json"), "--x", str(tmp_path / "x.json"),
        ]
    )
    assert code == 0 and doc["verdicts"]["status"] == "witnessed"


def test_inner_match_command(tmp_path):
    op = {"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 1}]}
    (tmp_path / "op.json").write_text(json.dumps(op))
    code, doc, _ = invoke(
        [
            "inner-match",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--op", str(tmp_path / "op.json"), "--window", "2",
        ]
    )
    assert code == 3
    assert doc["verdicts"]["status"] == "no-inner-match-in-window"
    zero = {"terms": []}
    (tmp_path / "op.json").write_text(json.dumps(zero))
    code, doc, _ = invoke(
        [
            "inner-match",
            "--family", "B", "--rank", "2", "--psi", "1,0;2,1",
            "--op", str(tmp_path / "op.json"), "--window", "2",
        ]
    )
    assert code == 0 and doc["verdicts"]["status"] == "matched"


B2_MIN = ["--family", "B", "--rank", "2", "--psi", "1,0;2,1"]


def test_inner_match_rejects_vacuous_windows(tmp_path):
    # window (1, -1) holds no probe and no unknown; (0, 0) holds no probe
    # that sees a j = 1 term: either way "matched" would be vacuous
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 1}]}))
    for window in ("-1", "0"):
        code, doc, _ = invoke(["inner-match"] + B2_MIN + ["--op", str(op), "--window", window])
        assert code == 2 and "error" in doc, window
    op.write_text(json.dumps({"terms": []}))
    code, doc, _ = invoke(["inner-match"] + B2_MIN + ["--op", str(op), "--window", "-1"])
    assert code == 2 and "empty window" in doc["error"]


def test_dij_witness_rejects_empty_window(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"central": "0", "support": {"1": ["1", "0", "0", "0"]}}))
    code, doc, _ = invoke(["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", str(x), "--window", "-3"])
    assert code == 2 and "empty window [3, -3]" in doc["error"]


def test_aid_check_rejects_empty_window(tmp_path):
    x = tmp_path / "x.json"
    op = tmp_path / "op.json"
    x.write_text(json.dumps({"central": "0", "support": {"1": ["1", "0", "0", "0"]}}))
    op.write_text(json.dumps({"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 1}]}))
    code, doc, _ = invoke(["aid-check"] + B2_MIN + ["--op", str(op), "--x", str(x), "--window", "-1"])
    assert code == 2 and "empty window" in doc["error"]


def test_byte_determinism_and_json_flag(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code1, _, text1 = invoke(
        ["--json", str(out1), "certify", "--family", "B", "--rank", "2", "--psi", "1,0;2,1"]
    )
    code2, _, text2 = invoke(
        ["--json", str(out2), "certify", "--family", "B", "--rank", "2", "--psi", "1,0;2,1"]
    )
    assert code1 == code2 == 0
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes() == text1.encode()


def test_seed_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("LIECERT_SEED", "7")
    code, doc, _ = invoke(["minimal", "--family", "A", "--rank", "1"])
    assert doc["seed"] == 7
    code, doc, _ = invoke(["--seed", "3", "minimal", "--family", "A", "--rank", "1"])
    assert doc["seed"] == 3


def test_cache_flag_is_gone():
    code, doc, _ = invoke(["--cache", "somewhere", "certify"] + B2_MIN)
    assert code == 2 and doc is None


def _cli_process(argv, python_flags=()):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "liecert.cli"] + argv, env=env, capture_output=True, text=True
    )


X_H1_DEG1 = str(Path(__file__).parent / "golden" / "inputs" / "x_h1_deg1.json")
I2 = {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}
ZERO4 = {"rows": 4, "cols": 4, "entries": ["0"] * 16}
BAD4 = {"rows": 4, "cols": 4, "entries": 5}


@pytest.mark.parametrize(
    "args,flag,payload",
    [
        # a weight with a zero denominator
        (["inner-match"], "--op", {"terms": [{"kind": "dij", "i": 1, "j": 1, "weight": "1/0"}]}),
        # a top-level document that is not an object
        (["dij-witness", "--i", "1", "--j", "1"], "--x", [1, 2]),
        # operator terms that are not a list of objects
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [1]}),
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": "dij"}),
        (["inner-match"], "--op", {"terms": [1]}),
        (["inner-match"], "--op", {"terms": {"kind": "dij", "i": 1, "j": 1}}),
        # a tensor term whose matrix does not match the algebra
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [{"kind": "tensor", "f": {"0": "1"}, "matrix": I2}]}),
        # fields of the wrong JSON type inside a document
        (["aid"], "--matrix", {"rows": 4, "cols": 4, "entries": 5}),
        (["dij-witness", "--i", "1", "--j", "1"], "--x", {"support": 5}),
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [{"kind": "diagonal-derivative", "fs": 5}]}),
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [{"kind": "inner", "y": 5}]}),
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [{"kind": "tensor", "f": {"0": "1"}, "matrix": BAD4}]}),
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [{"kind": "tensor", "f": 7, "matrix": ZERO4}]}),
        # rationals that are JSON numbers or booleans, not strings
        (["inner-match", "--window", "2"], "--op", {"terms": [{"kind": "dij", "i": 1, "j": 1, "weight": 0.1}]}),
        (["dij-witness", "--i", "1", "--j", "1"], "--x", {"support": {"1": [True, "0", "0", "0"]}}),
    ],
)
def test_malformed_input_files_exit_2_without_traceback(tmp_path, args, flag, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    proc = _cli_process(args + B2_MIN + [flag, str(path)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "error" in json.loads(proc.stdout)


@pytest.mark.parametrize("matrix", [I2, {"rows": 4, "cols": 5, "entries": ["0"] * 20}])
def test_aid_matrix_of_the_wrong_shape_exits_2(tmp_path, matrix):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(matrix))
    proc = _cli_process(["aid"] + B2_MIN + ["--matrix", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["error: shape mismatch"]


def test_rat_from_str_rejects_zero_denominator():
    from liecert.exact import rat_from_str

    with pytest.raises(ValueError, match="zero denominator"):
        rat_from_str("3/0")


def test_selftest_subset():
    code, doc, _ = invoke(["selftest", "--criteria", "1,9"])
    assert code == 0
    assert doc["verdicts"]["all_ok"]
    assert [c["number"] for c in doc["verdicts"]["criteria"]] == [1, 9]


@pytest.mark.parametrize("criteria", ["99", "0", "1,11"])
def test_selftest_rejects_unknown_criteria(criteria, capsys):
    code, doc, _ = invoke(["selftest", "--criteria", criteria])
    assert code == 2 and "error" in doc
    assert "valid numbers are 1..10" in capsys.readouterr().err


def test_selftest_under_python_O(monkeypatch):
    """Every check raises explicitly, so all ten criteria print the golden
    document byte for byte under -O."""
    monkeypatch.delenv("LIECERT_SEED", raising=False)
    proc = _cli_process(["selftest"], python_flags=["-O"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "golden" / "selftest.out").read_text(encoding="utf-8")


def test_dij_witness_with_dependent_square_psi_takes_the_general_path(tmp_path):
    # |Psi| = rank but beta_3 = beta_1 + beta_2, so the torus is the simple
    # coroots and the closed-form ansatz, which assumes the dual torus, is skipped
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"central": "0", "support": {"2": ["1", "1", "1", "2", "-1", "0"]}}))
    argv = ["dij-witness", "--family", "A", "--rank", "3", "--psi", "1,0,0;0,1,0;1,1,0"]
    proc = _cli_process(argv + ["--i", "1", "--j", "2", "--window", "4", "--x", str(path)])
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(proc.stdout)["verdicts"]
    assert verdicts["general_path_used"] is True
    assert verdicts["fast_path_failure"] == "torus-not-dual"
    assert verdicts["status"] == "witnessed"


def test_timings_opt_in():
    _, doc, _ = invoke(["minimal", "--family", "A", "--rank", "1"])
    assert "timings" not in doc
    _, doc, _ = invoke(["--timings", "minimal", "--family", "A", "--rank", "1"])
    assert "timings" in doc

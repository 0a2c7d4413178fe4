"""CLI surface: subcommands, exit codes, JSON shapes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from liecert.cli import _parse, parse_psi, run


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


def test_aid_matrix_exits_4_where_the_scalar_system_point_does_not_refute(tmp_path):
    # the scalar system of this complement derivation is infeasible, but the
    # root vectors of Psi do not commute and D(x) lies in [x, L] at x = sum x_i,
    # so no refutation is printed; the re-check runs under python -O too
    p = tmp_path / "d.json"
    p.write_text(json.dumps({"rows": 7, "cols": 7, "entries": ["1" if u in (16, 24) else "0" for u in range(49)]}))
    argv = ["aid", "--family", "G", "--rank", "2", "--psi=-3,-2;-3,-1;-2,-1;0,-1;0,1", "--matrix", str(p)]
    code, doc, _ = invoke(argv)
    assert code == 4 and "lies in [x, L]" in doc["error"]
    proc = _cli_process(argv, python_flags=("-O",))
    assert proc.returncode == 4 and json.loads(proc.stdout) == doc, proc.stderr


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


def test_dij_witness_degree_zero_rejected(tmp_path, capsys):
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
    # one refusal, the solver's: the same line on stderr and in the document
    assert doc == {"error": "degree 0 has no bracket witness; use aid-check"}
    assert capsys.readouterr().err == "error: degree 0 has no bracket witness; use aid-check\n"


def test_dij_witness_former_window_exhausted_input_is_witnessed(tmp_path):
    # t + t^2 on h_1 does not divide the unit x_1 part, which once sent this
    # X to a window search; the exact solver witnesses it, with no window
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
        ]
    )
    assert code == 0
    v = doc["verdicts"]
    assert v["status"] == "witnessed" and v["detail"] is None and v["general_path_used"] is False
    assert "window" not in v and "fast_path_failure" not in v


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


def test_inner_match_outside_the_normal_form_exits_2(tmp_path):
    # Psi = {a, -a} is square but does not span, so Z(L) is not zero; the
    # windowed search matched d_{2,1} there with a Y in Z(L) (x) t^-1
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"weight": "1", "kind": "dij", "i": 2, "j": 1}]}))
    code, doc, _ = invoke(["inner-match", "--family", "B", "--rank", "2", "--psi=1,0;-1,0", "--op", str(op)])
    assert code == 2 and "needs Psi in normal form" in doc["error"]


def test_dij_witness_rejects_empty_window(tmp_path):
    # the exact solver needs no window, so --window, empty or not, is an unknown option
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"central": "0", "support": {"1": ["1", "0", "0", "0"]}}))
    for window in ("-3", "2"):
        code, doc, _ = invoke(["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", str(x), "--window", window])
        assert code == 2 and doc is None, window


def test_aid_check_rejects_empty_window(tmp_path):
    x = tmp_path / "x.json"
    op = tmp_path / "op.json"
    x.write_text(json.dumps({"central": "0", "support": {"1": ["1", "0", "0", "0"]}}))
    op.write_text(json.dumps({"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 1}]}))
    for window in ("-1", "2"):
        code, doc, _ = invoke(["aid-check"] + B2_MIN + ["--op", str(op), "--x", str(x), "--window", window])
        assert code == 2 and doc is None, window


def test_aid_check_root_obstruction_names_the_root():
    # X = (1 + t) x_1; the diagonal derivative with weight t on index 1 sends
    # it to t x_1, and 1 + t does not divide t
    proc = _cli_process(
        ["aid-check"] + B2_MIN + ["--op", str(INPUTS / "op_diagonal_t.json"), "--x", str(INPUTS / "x_one_plus_t_x1.json")]
    )
    assert proc.returncode == 1, proc.stderr
    v = json.loads(proc.stdout)["verdicts"]
    assert v["status"] == "root-obstruction" and v["witness"] is None and v["flags"] == []
    assert v["detail"]["root"] == 1 and v["detail"]["gcd"] == {"0": "1", "1": "1"}


def test_rank_past_the_bound_exits_2():
    for argv in (["roots"], ["minimal"], ["certify", "--psi", "1"]):
        proc = _cli_process([argv[0], "--family", "A", "--rank", "21"] + argv[1:])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == ["error: rank 21 is out of range: at most 20"]


@pytest.mark.parametrize("window", ["51", "-51"])
def test_inner_match_window_past_the_bound_exits_2(tmp_path, window):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"weight": "1", "kind": "dij", "i": 1, "j": 1}]}))
    proc = _cli_process(["inner-match"] + B2_MIN + ["--op", str(op), "--window", window])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"error: window {window} is out of range: |W| is at most 50"]


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


def test_non_integer_seed_in_the_environment_exits_2():
    proc = _cli_process(["roots", "--family", "A", "--rank", "1"], env={"LIECERT_SEED": "abc"})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["error: LIECERT_SEED='abc' is not an integer"]
    assert json.loads(proc.stdout) == {"error": "LIECERT_SEED='abc' is not an integer"}


def test_unreadable_input_path_exits_2(tmp_path):
    # a directory where an input file is expected
    proc = _cli_process(["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Is a directory" in lines[0], proc.stderr
    assert list(json.loads(proc.stdout)) == ["error"]


def test_unwritable_json_path_exits_2(tmp_path):
    target = tmp_path / "missing" / "out.json"
    proc = _cli_process(["--json", str(target), "roots", "--family", "A", "--rank", "1"])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(target) in lines[0], proc.stderr
    # the error is the only document on stdout: the roots document is not printed
    assert list(json.loads(proc.stdout)) == ["error"]
    assert not target.parent.exists()


def test_cache_flag_is_gone():
    code, doc, _ = invoke(["--cache", "somewhere", "certify"] + B2_MIN)
    assert code == 2 and doc is None


def _cli_process(argv, python_flags=(), env=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "liecert.cli"] + argv, env=env, capture_output=True, text=True
    )


INPUTS = Path(__file__).parent / "golden" / "inputs"
X_H1_DEG1 = str(INPUTS / "x_h1_deg1.json")
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


def test_aid_matrix_of_a_negative_shape_exits_2(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"rows": -1, "cols": -1, "entries": ["5"]}))
    proc = _cli_process(["aid"] + B2_MIN + ["--matrix", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["error: negative matrix shape"]


def test_psi_starting_with_a_minus_sign_needs_the_equals_form():
    b2 = ["certify", "--family", "B", "--rank", "2"]
    proc = _cli_process(b2 + ["--psi=-1,0;-2,-1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdicts"]["minimal"] is True
    # argparse takes a separate "-1,0;..." for an option: a usage error, not a crash
    proc = _cli_process(b2 + ["--psi", "-1,0;-2,-1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error" in line] == [
        "liecert certify: error: argument --psi: expected one argument"
    ]


def test_rat_from_str_rejects_zero_denominator():
    from liecert.exact import rat_from_str

    with pytest.raises(ValueError, match="zero denominator"):
        rat_from_str("3/0")


def test_rat_from_str_repeats_a_short_value_as_before():
    from liecert.exact import rat_from_str

    for value, message in [
        ([1, 2], "expected a rational as a string, got [1, 2]"),
        ({"b": 1, "a": 2}, "expected a rational as a string, got {'b': 1, 'a': 2}"),
        (0.1, "expected a rational as a string, got 0.1"),
        (True, "expected a rational as a string, got True"),
        ("abc", "Invalid literal for Fraction: 'abc'"),
        ("y" * 55, f"Invalid literal for Fraction: {'y' * 55!r}"),
        ("3/0", "zero denominator in '3/0'"),
    ]:
        with pytest.raises(ValueError) as info:
            rat_from_str(value)
        assert str(info.value) == message


# an operator file whose tensor matrix holds one entry of each of these values
LONG_ENTRIES = {
    "long-list": ([1] * 100_000, "expected a rational as a string, got a JSON array [1, 1, 1, 1, 1, 1, ...]"),
    "deep-list": (json.loads("[" * 900 + "]" * 900), "expected a rational as a string, got a JSON array [[[[[[[...]]]]]]]"),
    "long-string": ("x" * 100_000, "Invalid literal for Fraction: a JSON string '" + "x" * 59 + "..."),
    "long-zero-denominator": ("1/" + "0" * 4000, "zero denominator in a JSON string '1/" + "0" * 57 + "..."),
}


@pytest.mark.parametrize("name", LONG_ENTRIES)
def test_long_input_value_gives_a_short_error_line(tmp_path, name):
    # the error line used to repeat the whole value: 300 KB for the long list
    entry, message = LONG_ENTRIES[name]
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"kind": "tensor", "f": {"0": "1"}, "matrix": {"rows": 1, "cols": 1, "entries": [entry]}}]}))
    proc = _cli_process(["aid-check", *B2_MIN, "--x", X_H1_DEG1, "--op", str(op)])
    assert proc.returncode == 2, proc.stderr[:300]
    assert proc.stderr == f"error: {message}\n" and len(proc.stderr.encode()) < 200
    assert json.loads(proc.stdout) == {"error": message}


# an operator file whose one term has each of these kinds
LONG_KINDS = {
    "short-string": ("bogus", "unknown operator kind 'bogus'"),
    "long-string": ("x" * 100_000, "unknown operator kind a JSON string '" + "x" * 59 + "..."),
    "long-list": (["dij"] * 100_000, "unknown operator kind a JSON array ['dij', 'dij', 'dij', 'dij', 'dij', 'dij', ...]"),
}


@pytest.mark.parametrize("name", LONG_KINDS)
def test_unknown_operator_kind_gives_a_short_error_line(tmp_path, name):
    # the error line used to repeat the whole kind: 100 KB for the long string
    kind, message = LONG_KINDS[name]
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"kind": kind}]}))
    proc = _cli_process(["aid-check", *B2_MIN, "--x", X_H1_DEG1, "--op", str(op)])
    assert proc.returncode == 2, proc.stderr[:300]
    assert proc.stderr == f"error: {message}\n" and len(proc.stderr.encode()) < 200
    assert json.loads(proc.stdout) == {"error": message}


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


def test_dij_witness_with_dependent_square_psi_exits_2(tmp_path):
    # |Psi| = rank but beta_3 = beta_1 + beta_2, so the torus is the simple
    # coroots and [x_1, x_2] is nonzero: no normal form, invalid input
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"central": "0", "support": {"2": ["1", "1", "1", "2", "-1", "0"]}}))
    argv = ["dij-witness", "--family", "A", "--rank", "3", "--psi", "1,0,0;0,1,0;1,1,0"]
    proc = _cli_process(argv + ["--i", "1", "--j", "2", "--x", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "normal form" in lines[0], proc.stderr
    assert "error" in json.loads(proc.stdout)


def test_timings_opt_in():
    _, doc, _ = invoke(["minimal", "--family", "A", "--rank", "1"])
    assert "timings" not in doc
    _, doc, _ = invoke(["--timings", "minimal", "--family", "A", "--rank", "1"])
    assert "timings" in doc


def _count_calls(monkeypatch, counts, module, name):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("command", ["certify", "aid"])
def test_closure_and_span_are_decided_once_per_command(monkeypatch, command):
    # |Psi| = rank, so the minimality search checks no proper subset
    from liecert import chevalley, qgraded

    chevalley._closure.cache_clear()  # closure is decided once per spec, so a warm memo would count 0
    counts = {}
    for module, name in [
        (chevalley, "closure_violation"),
        (qgraded, "closure_violation"),
        (qgraded, "invariant_factors"),
    ]:
        _count_calls(monkeypatch, counts, module, name)
    code, doc, _ = invoke([command] + B2_MIN)
    assert code == 0
    assert counts == {"closure_violation": 1, "invariant_factors": 1}


E8_BIPARTITE = [
    "--family", "E", "--rank", "8",
    "--psi", "1,0,0,0,0,0,0,0;0,-1,0,0,0,0,0,0;0,0,-1,0,0,0,0,0;0,0,0,1,0,0,0,0;"
    "0,0,0,0,-1,0,0,0;0,0,0,0,0,1,0,0;0,0,0,0,0,0,-1,0;0,0,0,0,0,0,0,1",
]


def test_only_minimal_builds_the_root_sum_memo():
    # the whole-system sums cost more than a certify on E8; the walk's own
    # re-check looks its few pairs up instead (B2's positive roots are not
    # minimal, so their counterexample is re-checked in full)
    from liecert import qgraded

    memos = (qgraded._root_sums, qgraded._partners)  # the partner masks are read off the sums
    for memo in memos:
        memo.cache_clear()
    b2_positive = ["--family", "B", "--rank", "2", "--psi", "1,0;0,1;1,1;2,1"]
    for argv, code in ((["certify", *E8_BIPARTITE], 0), (["aid", *E8_BIPARTITE], 0), (["certify", *b2_positive], 1)):
        assert invoke(argv)[0] == code, argv
        assert [memo.cache_info().currsize for memo in memos] == [0, 0], argv
    assert invoke(["minimal", "--family", "B", "--rank", "2"])[0] == 0
    assert [memo.cache_info().currsize for memo in memos] == [1, 1]


@pytest.fixture
def cold_extraction():
    """Empty the extraction and per-type memos around a test that counts
    what they compute, so values left by earlier tests do not hide a call
    and values built under the test's patches do not outlive it."""
    from liecert import chevalley

    memos = (chevalley._extract, chevalley._torus_form, chevalley._positive_pair_constants)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_torus_form_is_built_once_per_type(monkeypatch, cold_extraction):
    # two B2 subalgebras, a dij-witness on one and an aid-check on the other:
    # two extractions, one torus form
    from functools import lru_cache

    from liecert import chevalley

    calls = []
    body = chevalley._torus_form.__wrapped__

    def counting_body(rs):
        calls.append(f"{rs.family}{rs.rank}")
        return body(rs)

    monkeypatch.setattr(chevalley, "_torus_form", lru_cache(maxsize=32)(counting_body))
    code, _, _ = invoke(["dij-witness"] + B2_MIN + ["--i", "1", "--j", "1", "--x", str(INPUTS / "x_ansatz.json")])
    assert code == 0
    other = ["--family", "B", "--rank", "2", "--psi", "0,1;1,1"]
    code, _, _ = invoke(["aid-check"] + other + ["--op", str(INPUTS / "op_d11.json"), "--x", X_H1_DEG1])
    assert code == 0
    assert chevalley._extract.cache_info().misses == 2
    assert calls == ["B2"]


def test_e8_positive_roots_are_decided_by_the_walk():
    # the exhaustive subset search over C(120, 8) sets ran past 20 s on both
    # commands; the walk over Psi stops at its first minimal set
    from liecert.rootsys import build_root_system

    def psi_arg(roots):
        return ";".join(",".join(map(str, r)) for r in roots)

    args = ["--family", "E", "--rank", "8", "--psi"]
    code, doc, _ = invoke(["certify", *args, psi_arg(build_root_system("E", 8).positive_roots)])
    assert code == 1
    assert doc["verdicts"]["minimal"] is False
    counter = doc["verdicts"]["minimal_counterexample"]
    assert len(counter) == 8
    code, doc, _ = invoke(["certify", *args, psi_arg(counter)])
    assert doc["verdicts"]["minimal"] is True and doc["verdicts"]["minimal_counterexample"] is None
    code, doc, _ = invoke(["aid", *args, psi_arg(build_root_system("E", 8).positive_roots)])
    assert code == 2
    assert doc == {"error": "the procedure applies to minimal Q-graded subalgebras only"}


def test_aid_with_a_complement_exits_4(monkeypatch):
    # every minimal set is r_2^l with Der = Inn, so a faked complement
    # direction contradicts the theorem: an internal error, not a verdict
    from liecert import dercalc
    from liecert.exact import MatQ

    real_space = dercalc.derivation_space

    def with_complement(g):
        real = real_space(g)
        return dercalc.DerivationBasis(real.der_basis, real.inn_basis, (MatQ.identity(g.dim),))

    assert invoke(["aid"] + B2_MIN)[0] == 0  # Der is kept on the algebra
    with monkeypatch.context() as patch:
        patch.setattr(dercalc, "derivation_space", with_complement)
        code, doc, _ = invoke(["aid"] + B2_MIN)
    assert code == 4
    assert list(doc) == ["error"] and "Der = Inn" in doc["error"]
    assert invoke(["aid"] + B2_MIN)[0] == 0  # the faked complement was not kept


def test_non_basis_minimal_set_exits_4(monkeypatch, capsys):
    # a closed spanning B2 set of four roots, passed off as the only minimal
    # set: the rank re-check refuses it wherever a minimal set is produced
    from liecert import qgraded
    from qgraded_reference import search_finding

    four = ((1, 0), (0, 1), (1, 1), (2, 1))
    monkeypatch.setattr(qgraded, "_minimal_sets", search_finding(four))
    b2 = ["--family", "B", "--rank", "2"]
    for argv in (["minimal", *b2], ["certify", *b2, "--psi", "1,0;0,1;1,1;2,1"]):
        code, doc, _ = invoke(argv)
        assert code == 4, argv
        assert list(doc) == ["error"] and "rank re-check" in doc["error"]
        assert "Traceback" not in capsys.readouterr().err


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    from liecert import cli

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_root_system", broken)
    code, doc, _ = invoke(["roots", "--family", "B", "--rank", "2"])
    assert code == 4
    assert doc == {"error": "internal error: RuntimeError: boom"}
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


def test_failed_recheck_exits_4_not_1(monkeypatch):
    from liecert import qgraded

    monkeypatch.setattr(qgraded, "int_det", lambda rows: 0)
    code, doc, _ = invoke(["minimal", "--family", "B", "--rank", "2"])
    assert code == 4
    assert doc["error"].startswith("internal error: AssertionError: enumerated set")


def test_unexpected_exception_exits_4_from_the_module_entry_point():
    # runs liecert.cli as __main__, as `python -m liecert.cli` does, with a
    # handler that raises
    script = textwrap.dedent(
        """
        import runpy, sys
        import liecert.rootsys

        def broken(*args):
            raise RuntimeError("boom")

        liecert.rootsys.build_root_system = broken
        sys.argv = ["liecert", "roots", "--family", "B", "--rank", "2"]
        runpy.run_module("liecert.cli", run_name="__main__", alter_sys=True)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: internal error: RuntimeError: boom\n"
    assert json.loads(proc.stdout) == {"error": "internal error: RuntimeError: boom"}


@pytest.mark.parametrize(
    "args,flag,payload,message",
    [
        (["inner-match"], "--op", {"terms": [{"weight": "1"}]}, 'operator term: missing field "kind"'),
        (["inner-match"], "--op", {"terms": [{"kind": "dij", "i": 1}]}, 'dij term: missing field "j"'),
        (["aid-check", "--x", X_H1_DEG1], "--op", {"terms": [{"kind": "inner"}]}, 'inner term: missing field "y"'),
        (
            ["aid-check", "--x", X_H1_DEG1],
            "--op",
            {"terms": [{"kind": "tensor", "f": {"0": "1"}, "matrix": {"rows": 4, "cols": 4}}]},
            'matrix: missing field "entries"',
        ),
        (["aid"], "--matrix", {"rows": 4, "entries": ["0"] * 16}, 'matrix: missing field "cols"'),
    ],
)
def test_missing_required_field_exits_2_naming_it(tmp_path, capsys, args, flag, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, doc, _ = invoke(args + B2_MIN + [flag, str(path)])
    assert code == 2 and doc == {"error": message}
    assert capsys.readouterr().err == f"error: {message}\n"


TENSOR_F_TWICE = {"terms": [{"kind": "tensor", "f": {"1": "1", "01": "2"}, "matrix": ZERO4}]}
INNER_Y_TWICE = {"terms": [{"kind": "inner", "y": {"support": {"01": ["1"] * 4, "1": ["0"] * 4}}}]}
FS_TWICE = {"terms": [{"kind": "diagonal-derivative", "fs": [{"0": "1"}, {"1": "1", "01": "0"}]}]}


@pytest.mark.parametrize(
    "args,flag,payload,message",
    [
        (
            ["dij-witness", "--i", "1", "--j", "1"],
            "--x",
            {"support": {"1": ["1", "0", "0", "0"], "01": ["0"] * 4}},
            'support: degree 1 is named twice, as "1" and "01"',
        ),
        # a tensor term's f map, an inner term's y and a diagonal derivative's weights
        (["aid-check", "--x", X_H1_DEG1], "--op", TENSOR_F_TWICE, 'Laurent polynomial: degree 1 is named twice, as "1" and "01"'),
        (["aid-check", "--x", X_H1_DEG1], "--op", INNER_Y_TWICE, 'support: degree 1 is named twice, as "01" and "1"'),
        (["aid-check", "--x", X_H1_DEG1], "--op", FS_TWICE, 'Laurent polynomial: degree 1 is named twice, as "1" and "01"'),
    ],
)
def test_degree_named_twice_exits_2_naming_it(tmp_path, capsys, args, flag, payload, message):
    # int("01") == int("1"): both keys name degree 1, and the reader refuses the pair rather than keep one
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, doc, _ = invoke(args + B2_MIN + [flag, str(path)])
    assert code == 2 and doc == {"error": message}
    assert capsys.readouterr().err == f"error: {message}\n"


ZERO4_TEXT = ", ".join(['"0"'] * 16)


@pytest.mark.parametrize(
    "args,flag,text,key",
    [
        (["dij-witness", "--i", "1", "--j", "1"], "--x", '{"support": {"1": ["1", "0", "0", "0"], "1": ["0", "0", "0", "0"]}}', "1"),
        (["aid-check", "--x", X_H1_DEG1], "--op", '{"terms": [{"kind": "dij", "i": 1, "j": 1, "i": 2}]}', "i"),
        (["aid"], "--matrix", '{"rows": 4, "cols": 4, "entries": [' + ZERO4_TEXT + '], "cols": 2}', "cols"),
    ],
    ids=["element", "operator", "matrix"],
)
def test_repeated_key_exits_2_naming_it_and_the_file(tmp_path, capsys, args, flag, text, key):
    # json.load keeps the last of two equal keys; the reader refuses the pair instead
    path = tmp_path / "input.json"
    path.write_text(text)
    code, doc, _ = invoke(args + B2_MIN + [flag, str(path)])
    message = f'{path}: key "{key}" appears twice in one object'
    assert code == 2 and doc == {"error": message}
    assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_key_error_exits_4_not_2(monkeypatch, capsys):
    from liecert import cli

    def broken(*args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "build_root_system", broken)
    code, doc, _ = invoke(["roots", "--family", "B", "--rank", "2"])
    assert code == 4
    assert doc == {"error": "internal error: KeyError: 'lost'"}
    assert capsys.readouterr().err == "error: internal error: KeyError: 'lost'\n"


@pytest.mark.parametrize("command", ["certify", "der", "centroid"])
def test_psi_names_all_and_positive(command):
    from liecert.rootsys import build_root_system

    rs = build_root_system("B", 2)
    for name, roots in [("all", rs.roots), ("positive", rs.positive_roots)]:
        explicit = ";".join(",".join(map(str, r)) for r in roots)
        named = invoke([command, "--family", "B", "--rank", "2", f"--psi={name}"])
        assert named == invoke([command, "--family", "B", "--rank", "2", f"--psi={explicit}"]), name


def test_borel_der_is_inner_through_the_cli():
    code, doc, _ = invoke(["der", "--family", "G", "--rank", "2", "--psi=positive"])
    assert code == 0
    verdicts = doc["verdicts"]
    assert verdicts["dim_l"] == verdicts["dim_der"] == verdicts["dim_inn"] == 8
    assert verdicts["dim_complement"] == 0


def _handler_document(argv):
    """The document that the handler of ``argv`` returns, before it is written."""
    args = _parse(argv)
    return args.handler(args, 0)[0]


def _sent(doc):
    """The text that ``cli._send`` writes for ``doc``, once whole and once
    streamed in chunks of five characters; the two must be the same."""
    from liecert import cli

    texts = []
    for chunk in (cli._CHUNK, 5):
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK", chunk)
            assert cli._send(doc, 0, buf) == (doc, 0)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1], doc
    return texts[0]


def test_document_writer_matches_json_dumps():
    # every document is written as json.dumps(doc, sort_keys=True, indent=2)
    # would write it, byte for byte, and a newline; a float goes through json.dumps
    import random

    rng = random.Random(5)
    leaves = ["", "a", "\u00e9\n\"\\", "x\u2028", 0, -7, 10**40, True, False, None, 0.125, -0.0, 1e300, float("inf")]

    def document(depth):
        r = rng.random()
        if depth > 3 or r < 0.3:
            return rng.choice(leaves)
        if r < 0.65:
            return {rng.choice(["k", "B", "a", "\u00fc", ""]) + str(rng.randint(0, 9)): document(depth + 1) for _ in range(rng.randint(0, 4))}
        return [document(depth + 1) for _ in range(rng.randint(0, 4))]

    for _ in range(500):
        doc = document(0)
        assert _sent(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", doc
    # lists of strings: a one-item list, a list that mixes str and int either
    # way round, escapes, and real documents
    a8 = "--psi=" + ";".join(",".join("1" if k <= n else "0" for k in range(8)) for n in range(8))
    _, der_a8, _ = invoke(["der", "--family", "A", "--rank", "8", a8])
    _, minimal_a4, _ = invoke(["minimal", "--family", "A", "--rank", "4"])
    assert der_a8["verdicts"]["dim_der"] == 16 and minimal_a4["verdicts"]["count"] == 250
    for doc in (
        der_a8,
        minimal_a4,
        {"e": ["7/3"]},
        {"e": ["1", 2, "3"]},
        {"e": [1, "2"]},
        # a list that starts with a str but holds another item, in the middle or at the end
        {"e": ["a", None, "b"]},
        {"e": ["a", "b", 3]},
        {"e": ["a", "b", 0.5]},
        {"e": ["a", ["b", "c"], {"k": "v"}]},
        {"e": ["a", True]},
        {"e": [["a", "b"], ["c"], []]},
        {"e": ["\"q\"", "back\\slash", "tab\t", "é", "\U0001f600", "\x00", ""]},
    ):
        assert _sent(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", doc
    # the handlers' own minimal documents hold the RootSets of the search,
    # whose items are tuples of roots, written as json.dumps writes the list
    # of its items
    minimal = [_handler_document(["minimal", "--family", f, "--rank", n]) for f, n in (("A", "4"), ("B", "3"), ("G", "2"))]
    assert [type(doc["verdicts"]["minimal_subalgebras"][0]) for doc in minimal] == [tuple] * 3
    for doc in minimal:
        assert _sent(doc) == json.dumps(doc, sort_keys=True, indent=2, default=list) + "\n", doc


def _random_matrices(rng):
    """MatQ values of every edge shape and entry pattern, with int, negative and Fraction entries."""
    from fractions import Fraction

    from liecert.exact import MatQ

    def value():
        return rng.choice([1, -1, 7, -12, 10**30, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 10**20)])

    out = [MatQ(0, 0, {}), MatQ(0, 3, {}), MatQ(4, 0, {}), MatQ(1, 1, {}), MatQ(1, 1, {0: 5}), MatQ(1, 1, {0: Fraction(-1, 3)})]
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        n = rows * cols
        pattern = rng.choice(["zero", "first", "last", "ends", "dense", "sparse"])
        cells = {
            "zero": [],
            "first": [0],
            "last": [n - 1],
            "ends": [0, n - 1],
            "dense": range(n),
            "sparse": rng.sample(range(n), rng.randint(1, n)),
        }[pattern]
        out.append(MatQ(rows, cols, {u: value() for u in cells}))
    return out


def _as_plain_json(doc):
    """``doc`` with each MatQ replaced by its ``to_json()``."""
    from liecert.exact import MatQ

    if type(doc) is MatQ:
        return doc.to_json()
    if type(doc) is dict:
        return {k: _as_plain_json(v) for k, v in doc.items()}
    if type(doc) is list:
        return [_as_plain_json(v) for v in doc]
    return doc


def test_matrix_writer_matches_json_dumps_of_to_json():
    # a MatQ is written from its nonzeros; the bytes are those of json.dumps over to_json()
    import random

    rng = random.Random(11)
    matrices = _random_matrices(rng)

    def document(depth):
        r = rng.random()
        if depth > 3 or r < 0.35:
            return rng.choice(matrices + ["s", 3, None])
        if r < 0.7:
            return {rng.choice("abcz") + str(rng.randint(0, 9)): document(depth + 1) for _ in range(rng.randint(0, 4))}
        return [document(depth + 1) for _ in range(rng.randint(0, 4))]

    docs = [*matrices, [matrices[:8]], {"m": {"n": [[matrices[6]]]}}] + [document(0) for _ in range(300)]
    for doc in docs:
        assert _sent(doc) == json.dumps(_as_plain_json(doc), sort_keys=True, indent=2) + "\n", doc


A8_CHAIN = ["--family", "A", "--rank", "8", "--psi=" + ";".join(",".join("1" if k <= n else "0" for k in range(8)) for n in range(8))]


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [["der", *A8_CHAIN], ["centroid", *A8_CHAIN], ["minimal", "--family", "A", "--rank", "4"]],
    ids=["der-A8", "centroid-A8", "minimal-A4"],
)
def test_streamed_document_is_the_one_shot_document(tmp_path, monkeypatch, argv):
    from liecert import cli

    one_shot = _CountingOut()
    assert run(argv, out=one_shot) == 0 and one_shot.writes == 1
    monkeypatch.setattr(cli, "_CHUNK", 8)
    out = _CountingOut()
    assert run(argv, out=out) == 0
    assert out.getvalue() == one_shot.getvalue()
    assert out.writes > 1
    # --json writes its file in full, then the same bytes go to out
    path = tmp_path / "doc.json"
    out = io.StringIO()
    assert run(["--json", str(path), *argv], out=out) == 0
    assert path.read_text(encoding="utf-8") == out.getvalue() == one_shot.getvalue()


def test_unwritable_json_path_streams_nothing(tmp_path, monkeypatch):
    from liecert import cli

    monkeypatch.setattr(cli, "_CHUNK", 8)
    target = tmp_path / "missing" / "out.json"
    code, doc, _ = invoke(["--json", str(target), "der", *A8_CHAIN])
    assert code == 2 and list(doc) == ["error"] and str(target) in doc["error"]


# a handler whose document holds a value that the writer does not take, with a
# MatQ streamed ahead of it or not, in a fresh process: argv is the value's
# name, "streamed" or "whole", then the liecert argv
_BAD_DOCUMENT = textwrap.dedent(
    """
    import sys
    from collections import OrderedDict
    from fractions import Fraction
    from liecert import cli
    from liecert.exact import MatQ

    bad = {
        "fraction": Fraction(1, 2),
        "fraction-after-str": ["1", Fraction(1, 2)],
        "tuple": (1, 2),
        "int-key": {1: "a"},
        "set": {1},
        "dict-subclass": OrderedDict(a=1),
    }
    value, where = bad[sys.argv.pop(1)], sys.argv.pop(1)

    def handler(args, seed):
        return {"a": MatQ.identity(3), "b": value} if where == "streamed" else {"b": value}, 0

    cli._CHUNK = 5
    cli._COMMANDS["roots"] = (handler, *cli._COMMANDS["roots"][1:])
    sys.exit(cli.main())
    """
)


@pytest.mark.parametrize("bad", ["fraction", "fraction-after-str", "tuple", "int-key", "set", "dict-subclass"])
def test_document_the_writer_cannot_take_exits_4(tmp_path, bad):
    # a handler's fault, never exit 1 and never a traceback; json.dumps used to
    # write a tuple, an int key and a dict subclass, and the rest crashed with exit 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    path = tmp_path / "doc.json"
    for where in ("whole", "streamed"):
        for front in ([], ["--json", str(path)]):
            argv = [sys.executable, "-c", _BAD_DOCUMENT, bad, where, *front, "roots", "--family", "A", "--rank", "1"]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert proc.returncode == 4, (where, front, proc.stderr)
            assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: internal error: TypeError: ")
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
            if where == "streamed" and not front:  # the text already written cannot be taken back
                assert proc.stdout.startswith('{\n  "a": {\n    "cols": 3,')
                continue
            # nothing of the document reached stdout: only its error
            assert json.loads(proc.stdout) == {"error": proc.stderr[len("error: ") : -1]}
            if front and where == "whole":
                assert path.read_text(encoding="utf-8") == proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_json_to_dev_stdout_in_a_pipe_finishes():
    # --json writes its file, then the document again to stdout; it never reads
    # the file back, which here would be the reading end of stdout's own pipe
    script = "import sys; from liecert import cli; cli._CHUNK = 5; sys.exit(cli.main())"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-c", script, "--json", "/dev/stdout", "der", *B2_MIN]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    code, _, text = invoke(["der", *B2_MIN])
    assert (proc.returncode, proc.stderr) == (code, "") == (0, "")
    assert proc.stdout == text + text


def test_input_files_share_one_decoder(monkeypatch):
    # json.loads with a hook would build a JSONDecoder and its scanner on every call
    monkeypatch.setattr(json, "JSONDecoder", None)
    code, doc, _ = invoke(["dij-witness", *B2_MIN, "--i", "1", "--j", "1", "--x", X_H1_DEG1])
    assert code == 0 and doc["verdicts"]["status"]


def test_timings_document_is_json_dumps_output():
    code, doc, text = invoke(["--timings", "roots", "--family", "A", "--rank", "1"])
    assert code == 0 and type(doc["timings"]["wall_s"]) is float
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the command table's parser against the argparse front end it replaced
# ---------------------------------------------------------------------------


def _oracle():
    """The replaced argparse tree, with prefix abbreviations turned off: the
    one change to the command-line language."""
    import argparse

    from cli_reference import _build_parser

    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in (parser, *commands.choices.values()):
        p.allow_abbrev = False
    return parser


ORACLE = _oracle()


def _outcome(argv):
    """``_parse`` and the oracle on ``argv``: each "help", "refused" or the
    parsed attributes."""
    try:
        ours = _parse(argv)
        ours = "help" if isinstance(ours, str) else vars(ours)
    except ValueError:
        ours = "refused"
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            theirs = vars(ORACLE.parse_args(argv))
    except SystemExit as exc:
        theirs = "help" if exc.code == 0 else "refused"
    return ours, theirs


A1 = ["--family", "A", "--rank", "1"]
B2 = ["--family", "B", "--rank", "2"]
# argv and how it is read; "--" and single-dash clusters such as "-hx" are
# refused here, while argparse's reading of them differs between Python versions
EDGE_CASES = [
    (["frobnicate"], "refused"),
    (["roots", *A1, "--bogus", "1"], "refused"),
    (["roots", "--family", "A", "--rank"], "refused"),
    (["certify", *B2], "refused"),
    (["roots", "--family", "A", "--rank", "x"], "refused"),
    (["certify", *B2, "--psi", "-1,0"], "refused"),
    (["dij-witness", *B2, "--psi", "1,0;2,1", "--i", "1", "--j", "-1", "--x", "x.json"], "accepted"),
    (["affine-bracket", *B2, "--psi", "1,0;2,1", "--x=a=b", "--y", "y.json"], "accepted"),
    (["roots", *A1, "--family", "B", "--rank=2"], "accepted"),
    (["roots", *A1, "--seed", "3"], "refused"),
    (["--timings=1", "roots", *A1], "refused"),
    (["roots", *A1, "--"], "refused"),
    (["roots", "--", *A1], "refused"),
    (["--seed=-3", "--json", "-", "certify", *B2, "--psi", "-1, 0"], "accepted"),
    (["certify", *B2, "--psi", "1", "--bogus", "--help"], "help"),
    (["roots", "--rank", "x", "--help"], "refused"),
]


def _argv_cases():
    from test_golden import CASES
    from test_package import BOUNDARY

    cases = [pytest.param(argv, id=f"golden-{name}") for name, (argv, _) in CASES.items()]
    cases += [pytest.param(argv, id=f"boundary-{argv[0]}") for argv, _, _ in BOUNDARY]
    return cases + [pytest.param(argv, id=f"edge-{k}") for k, (argv, _) in enumerate(EDGE_CASES)]


@pytest.mark.parametrize("argv", _argv_cases())
def test_parse_agrees_with_the_argparse_oracle(argv):
    ours, theirs = _outcome(argv)
    assert ours == theirs


@pytest.mark.parametrize("argv, reading", EDGE_CASES, ids=[f"edge-{k}" for k in range(len(EDGE_CASES))])
def test_edge_cases_are_read_as_pinned(argv, reading):
    ours, _ = _outcome(argv)
    assert (ours if isinstance(ours, str) else "accepted") == reading


def test_parse_agrees_with_the_argparse_oracle_on_drawn_argv():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from liecert.cli import _COMMANDS

    options = ["--seed", "--json", "--timings", "--help", "--family", "--rank", "--psi", "--cap", "--matrix"]
    options += ["--x", "--y", "--i", "--j", "--op", "--window", "--criteria", "--bogus"]
    values = ["B", "2", "0", "-1", "x", "1,0;2,1", "-1,0", "-1, 0", "-.5", "-", "", "all", "a=b", "--psi=1"]
    token = st.one_of(
        st.sampled_from(options + values + list(_COMMANDS) + ["-h", "frobnicate"]),
        st.builds("{}={}".format, st.sampled_from(options), st.sampled_from(values)),
    )

    @st.composite
    def argvs(draw):
        # a well-formed command line with drawn tokens inserted, so that both
        # accepted and refused argv are drawn often
        command = draw(st.sampled_from(list(_COMMANDS)))
        argv = [command]
        for option, (kind, _, required) in _COMMANDS[command][2].items():
            if required:
                argv += [option, draw(st.sampled_from(["3", "-2"] if kind is int else ["B", "1,0"]))]
        for extra in draw(st.lists(token, max_size=4)):
            argv.insert(draw(st.integers(0, len(argv))), extra)
        return argv

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.one_of(st.lists(token, max_size=8), argvs()))
    def check(argv):
        ours, theirs = _outcome(argv)
        assert ours == theirs

    check()


def test_option_abbreviations_exit_2(capsys):
    assert run(["roots", "--fam", "A", "--rank", "1"], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "liecert roots: error: the following arguments are required: --family\n"
    assert run(["--se", "3", "roots", *A1], out=io.StringIO()) == 2


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"], ["-h", "minimal"], ["aid", *B2, "-h"]])
def test_help_goes_to_out(argv, capsys):
    buf = io.StringIO()
    assert run(argv, out=buf) == 0
    assert capsys.readouterr() == ("", "")
    text = buf.getvalue()
    assert text.startswith("usage: liecert") and text.endswith("\n")
    if argv[0] in ("--help", "-h"):
        assert all(f"\n  {command} " in text for command in ("roots", "minimal", "certify", "dij-witness", "selftest"))
    else:
        assert text.startswith(f"usage: liecert {argv[0]} --family STR --rank INT --psi STR")


# ---------------------------------------------------------------------------
# the raw-read input reader against the text-mode reader it replaced
# ---------------------------------------------------------------------------

ELEMENT = Path(X_H1_DEG1).read_bytes()
# "Expecting value" at char 40 of the text-mode text, where each newline is one character
MALFORMED = b'{\n  "central": "0",\n  "support": {"1": [,]}\n}\n'
# name -> (file bytes, or None for no file and "dir" for a directory;
#          True if the new reader puts the file name before the oracle's message)
READER_CASES = {
    "lf": (ELEMENT, False),
    "crlf": (ELEMENT.replace(b"\n", b"\r\n"), False),
    "crlf-malformed": (MALFORMED.replace(b"\n", b"\r\n"), True),
    "cr-malformed": (MALFORMED.replace(b"\n", b"\r"), True),
    "bom": (b"\xef\xbb\xbf" + ELEMENT, True),
    "invalid-utf8": (ELEMENT.replace(b'"0"', b'"\xff"', 1), True),
    "empty": (b"", True),
    "array": (b'[{"central": "0"}]', False),
    "nested-repeated-key": (b'{"support": {"1": ["1", "0", "0", "0"]}, "extra": {"a": 1, "a": 2}}', False),
    "directory": ("dir", False),
    "missing": (None, False),
}
READER_COMMANDS = {
    "dij-witness": ["dij-witness", *B2_MIN, "--i", "1", "--j", "1", "--x"],
    "aid-check": ["aid-check", *B2_MIN, "--x", X_H1_DEG1, "--op"],
}


def _reader_input(tmp_path, name):
    content, _ = READER_CASES[name]
    path = tmp_path / f"{name}.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    return str(path)


def _run_captured(argv, capsys):
    code, _, text = invoke(argv)
    return code, text, capsys.readouterr().err


@pytest.mark.parametrize("command", READER_COMMANDS)
@pytest.mark.parametrize("name", READER_CASES)
def test_reader_matches_the_text_mode_reader(tmp_path, capsys, monkeypatch, command, name):
    from cli_reference import load_json_text_mode

    from liecert import cli

    path = _reader_input(tmp_path, name)
    argv = READER_COMMANDS[command] + [path]
    code, out, err = _run_captured(argv, capsys)
    monkeypatch.setattr(cli, "_load_json", load_json_text_mode)
    want_code, want_out, want_err = _run_captured(argv, capsys)
    assert code == want_code
    if READER_CASES[name][1]:
        assert want_code == 2 and err == want_err.replace("error: ", f"error: {path}: ", 1)
        assert json.loads(out) == {"error": f"{path}: {json.loads(want_out)['error']}"}
    else:
        assert (out, err) == (want_out, want_err)


@pytest.mark.parametrize("name", ["crlf-malformed", "cr-malformed"])
def test_error_offsets_count_a_translated_newline_as_one_character(tmp_path, capsys, name):
    path = _reader_input(tmp_path, name)
    code, doc, _ = invoke(READER_COMMANDS["dij-witness"] + [path])
    assert code == 2 and doc == {"error": f"{path}: Expecting value: line 3 column 21 (char 40)"}


def test_crlf_element_gives_the_lf_document(tmp_path):
    argv = READER_COMMANDS["dij-witness"]
    lf = invoke(argv + [_reader_input(tmp_path, "lf")])
    assert lf[0] == 0 and lf == invoke(argv + [_reader_input(tmp_path, "crlf")])


@pytest.mark.parametrize("command", READER_COMMANDS)
def test_deep_nesting_exits_2_naming_the_file(tmp_path, capsys, command):
    # the decoder recurses once per level and raises RecursionError, which exited 4
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"support": ' + "[" * depth + "]" * depth + "}")
    code, doc, _ = invoke(READER_COMMANDS[command] + [str(path)])
    message = f"{path}: JSON nested too deep to read"
    assert code == 2 and doc == {"error": message}
    assert capsys.readouterr().err == f"error: {message}\n"


def test_spec_memo_builds_one_spec_per_argv():
    from liecert import cli

    argv = ["certify", *B2_MIN]
    assert cli._spec_from_args(_parse(argv)) is cli._spec_from_args(_parse(argv))
    # a refused argv is not kept: it raises on every call
    for psi, message in [("1,0;1,0", "duplicate root"), ("1,2", "not a root")]:
        args = _parse(["certify", "--family", "B", "--rank", "2", "--psi", psi])
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                cli._spec_from_args(args)
    too_big = _parse(["certify", "--family", "A", "--rank", str(cli.MAX_RANK + 1), "--psi", "all"])
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            cli._spec_from_args(too_big)

"""Output checks: verdict invariants and direct re-verification of witnesses.

A check never compares a witness with a stored one, because a solver change
may return another valid witness.  Every ``Y`` a job returns is instead
bracketed against its ``X`` with ``affine_bracket`` and compared with the
operator's value.  Checks run outside the timed region.
"""

from __future__ import annotations

import json


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Checker:
    """Checks job outputs; loop contexts for witness checks are built once."""

    def __init__(self):
        self._contexts = {}

    def check(self, job: dict, code: int, text: str) -> dict:
        """The parsed output; raise CheckFailed unless it meets the job's expectations."""
        expect = job["expect"]
        _require(code == expect["exit"], f"exit {code}, expected {expect['exit']}")
        doc = json.loads(text)
        if expect["command"] != "roots":  # roots prints the bare root system
            _require(doc.get("command") == expect["command"], "wrong command in document")
        getattr(self, "_" + expect["command"].replace("-", "_"))(job, expect, doc)
        return doc

    # -- finite-dimensional verdicts ----------------------------------------

    def _roots(self, job, expect, doc):
        _require(doc.get("roots") == expect["roots"], "wrong root list")

    def _minimal(self, job, expect, doc):
        v = doc["verdicts"]
        _require(v["count"] == expect["count"], f"count {v['count']}, expected {expect['count']}")
        _require(len(v["minimal_subalgebras"]) == v["count"], "count disagrees with the listed sets")

    def _certify(self, job, expect, doc):
        v = doc["verdicts"]
        for key in ("closed", "spans_q", "minimal", "metabelian"):
            _require(v[key] is True, f"certify field {key} is {v[key]!r}")
        _require(v["dims"] and all(d > 0 for d in v["dims"]), "non-positive dimension")
        _require(all(f == 1 for f in v["invariant_factors"]), "invariant factors are not all 1")
        for key in ("closure_witness", "minimal_counterexample", "metabelian_witness"):
            _require(v[key] is None, f"certify carries a {key}")

    def _der(self, job, expect, doc):
        v = doc["verdicts"]
        _require(v["dim_der"] == v["dim_inn"], f"dim Der {v['dim_der']} != dim Inn {v['dim_inn']}")
        _require(v["dim_complement"] == 0 and len(v["der_basis"]) == v["dim_der"], "inconsistent derivation basis")

    def _aid(self, job, expect, doc):
        _require(doc["verdicts"]["ok"] is True, "aid certificate is not ok")

    def _centroid(self, job, expect, doc):
        v = doc["verdicts"]
        _require(v["dim"] == expect["rank"], f"centroid dim {v['dim']}, expected {expect['rank']}")
        _require(v["diagonal"] is True, "centroid is not diagonal")

    # -- affine verdicts ----------------------------------------------------

    def _context(self, expect):
        from liecert.chevalley import SubalgebraSpec, build_semisimple
        from liecert.loopalg import loop_context
        from liecert.rootsys import build_root_system

        key = (expect["family"], expect["rank"], tuple(map(tuple, expect["psi"])))
        if key not in self._contexts:
            rs = build_root_system(expect["family"], expect["rank"])
            spec = SubalgebraSpec(rs, key[2])
            self._contexts[key] = loop_context(spec, build_semisimple(rs))
        return self._contexts[key]

    def _verify_witness(self, ctx, x, op, witness) -> None:
        from liecert.loopalg import AffineElement, affine_bracket

        _require(witness is not None, "no witness returned")
        y = AffineElement.from_json(ctx, witness)
        _require(affine_bracket(x, y) == op(x), "[X, Y] does not equal the operator value")

    def _dij_witness(self, job, expect, doc):
        from liecert.loopalg import AffineElement, ToralToCenter

        v = doc["verdicts"]
        _require(v["status"] == "witnessed", f"status {v['status']}")
        ctx = self._context(expect)
        x = AffineElement.from_json(ctx, job["files"][expect["x"]])
        self._verify_witness(ctx, x, ToralToCenter(ctx, expect["i"], expect["j"]), v["witness"])

    def _aid_check(self, job, expect, doc):
        from liecert.loopalg import AffineElement

        v = doc["verdicts"]
        if expect["exit"] == 1:
            _require(v["status"] == "central-obstruction" and v["flags"], "degree-0 obstruction not flagged")
            _require(v["witness"] is None, "obstruction carries a witness")
            return
        _require(v["status"] == "witnessed", f"status {v['status']}")
        ctx = self._context(expect)
        x = AffineElement.from_json(ctx, job["files"][expect["x"]])
        self._verify_witness(ctx, x, _operator(ctx, job["files"][expect["op"]]), v["witness"])

    def _inner_match(self, job, expect, doc):
        v = doc["verdicts"]
        _require(v["status"] == "no-inner-match-in-window", f"status {v['status']}")
        _require(v["witness"] is None, "nonzero combination was matched")


def _operator(ctx, obj):
    """The operator of an ``aid-check`` input, built from the public classes."""
    from fractions import Fraction

    from liecert.exact import MatQ
    from liecert.loopalg import AffineElement, Inner, LaurentPoly, OperatorSum, TensorDerivation, ToralToCenter

    terms = []
    for term in obj["terms"]:
        if term["kind"] == "dij":
            op = ToralToCenter(ctx, term["i"], term["j"])
        elif term["kind"] == "inner":
            op = Inner(AffineElement.from_json(ctx, term["y"]))
        else:
            op = TensorDerivation(ctx, MatQ.from_json(term["matrix"]), LaurentPoly.from_json(term["f"]))
        terms.append((Fraction(term["weight"]), op))
    return OperatorSum(ctx, tuple(terms))

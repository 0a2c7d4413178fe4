"""Command-line front end emitting JSON certificates.

One JSON document goes to standard output; diagnostics go to standard error.
Exit codes: 0 a verified positive, 1 a checked property violated (or an
expected-negative obstruction), 2 invalid input, 3 inconclusive (a
window-bounded search came back empty).

Identical inputs and seed produce byte-identical output; wall-clock timings
are therefore reported only on request (``--timings``) and excluded from the
default document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .chevalley import CONVENTION, SubalgebraSpec, build_semisimple, extract_subalgebra
from .dercalc import aid_membership, centroid_space, derivation_space, verify_aid_eq_inn
from .exact import MatQ, expect_json, rat_from_str, rat_to_str
from .loopalg import (
    AffineElement,
    Inner,
    LaurentPoly,
    OperatorSum,
    TensorDerivation,
    ToralToCenter,
    affine_bracket,
    aid_obstruction_check,
    diagonal_derivative,
    global_inner_match,
    loop_context,
    toral_center_witness,
)
from .qgraded import EnumerationCapExceeded, certify, enumerate_minimal
from .rootsys import build_root_system

__all__ = ["main", "run"]

DEFAULT_SEED = 2024
SEED_ENV = "LIECERT_SEED"


def parse_psi(text: str):
    """Semicolon-separated integer coordinate tuples: ``"1,0;2,1"``."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        out.append(tuple(int(p) for p in chunk.split(",")))
    if not out:
        raise ValueError("empty Psi")
    return tuple(out)


def _spec_from_args(args) -> SubalgebraSpec:
    rs = build_root_system(args.family, args.rank)
    return SubalgebraSpec(rs, parse_psi(args.psi))


def _context_from_args(args):
    spec = _spec_from_args(args)
    return spec, build_semisimple(spec.system)


def _inputs(spec: SubalgebraSpec, **extra) -> dict:
    """The ``inputs`` block of a document about the subalgebra of ``spec``."""
    return {"family": spec.system.family, "rank": spec.system.rank, "psi": [list(r) for r in spec.psi], **extra}


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return expect_json(json.load(fh), dict, path)


def _operator_from_json(ctx, obj) -> OperatorSum:
    """Operator schema: {"terms": [{"weight": "p/q", "kind": ..., ...}]}.

    Kinds: "dij" (fields i, j), "inner" (field y: affine element),
    "tensor" (fields matrix, f), "diagonal-derivative" (field fs).
    """
    raw = obj.get("terms", [])
    if not isinstance(raw, list) or not all(isinstance(t, dict) for t in raw):
        raise ValueError('"terms" must be a list of objects')
    terms = []
    for term in raw:
        weight = term.get("weight", "1")
        kind = term["kind"]
        if kind == "dij":
            op = ToralToCenter(ctx, expect_json(term["i"], int, '"i"'), expect_json(term["j"], int, '"j"'))
        elif kind == "inner":
            op = Inner(AffineElement.from_json(ctx, term["y"]))
        elif kind == "tensor":
            op = TensorDerivation(ctx, MatQ.from_json(term["matrix"]), LaurentPoly.from_json(term["f"]))
        elif kind == "diagonal-derivative":
            op = diagonal_derivative(ctx, [LaurentPoly.from_json(f) for f in expect_json(term["fs"], list, '"fs"')])
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
        terms.append((rat_from_str(weight), op))
    return OperatorSum(ctx, tuple(terms))


def _envelope(command: str, inputs: dict, verdicts, seed: int, timings=None) -> dict:
    doc = {
        "toolkit": "liecert",
        "toolkit_version": __version__,
        "convention": CONVENTION,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "verdicts": verdicts,
    }
    if timings is not None:
        doc["timings"] = timings
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_roots(args, seed):
    rs = build_root_system(args.family, args.rank)
    return rs.to_json(), 0


def _cmd_minimal(args, seed):
    rs = build_root_system(args.family, args.rank)
    try:
        specs = enumerate_minimal(rs, cap=args.cap)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"error": str(exc)}, 2
    doc = _envelope(
        "minimal",
        {"family": rs.family, "rank": rs.rank},
        {"count": len(specs), "minimal_subalgebras": [[list(r) for r in s.psi] for s in specs]},
        seed,
    )
    return doc, 0


def _cmd_certify(args, seed):
    spec, ambient = _context_from_args(args)
    cert = certify(spec, ambient)
    doc = _envelope(
        "certify",
        _inputs(spec),
        cert.to_json(),
        seed,
    )
    return doc, 0 if cert.all_positive() else 1


def _cmd_der(args, seed):
    spec, ambient = _context_from_args(args)
    g, info = extract_subalgebra(ambient, spec)
    basis = derivation_space(g)
    doc = _envelope(
        "der",
        _inputs(spec),
        {
            "dim_l": g.dim,
            "dim_der": basis.dim_der,
            "dim_inn": basis.dim_inn,
            "dim_complement": len(basis.complement_basis),
            "der_basis": [m.to_json() for m in basis.der_basis],
            "inn_basis": [m.to_json() for m in basis.inn_basis],
            "complement_basis": [m.to_json() for m in basis.complement_basis],
        },
        seed,
    )
    return doc, 0


def _cmd_aid(args, seed):
    spec, ambient = _context_from_args(args)
    inputs = _inputs(spec)
    if args.matrix:
        g, info = extract_subalgebra(ambient, spec)
        d = MatQ.from_json(_load_json(args.matrix))
        verdict = aid_membership(g, info, d)
        verdicts = {
            "status": verdict.status,
            "witness": [rat_to_str(v) for v in verdict.witness] if verdict.witness else None,
            "reason": verdict.reason,
        }
        return _envelope("aid", inputs, verdicts, seed), 0 if verdict.is_inner else 1
    cert = verify_aid_eq_inn(spec, ambient, seed=seed)
    return _envelope("aid", inputs, cert.to_json(), seed), 0 if cert.ok else 1


def _cmd_centroid(args, seed):
    spec, ambient = _context_from_args(args)
    g, info = extract_subalgebra(ambient, spec)
    cent = centroid_space(g)
    diagonal = all(
        all(m.at(r, c) == 0 for r in range(g.dim) for c in range(g.dim) if r != c) for m in cent.basis
    )
    doc = _envelope(
        "centroid",
        _inputs(spec),
        {"dim": len(cent.basis), "diagonal": diagonal, "basis": [m.to_json() for m in cent.basis]},
        seed,
    )
    return doc, 0


def _cmd_affine_bracket(args, seed):
    spec, ambient = _context_from_args(args)
    ctx = loop_context(spec, ambient)
    x = AffineElement.from_json(ctx, _load_json(args.x))
    y = AffineElement.from_json(ctx, _load_json(args.y))
    out = affine_bracket(x, y)
    doc = _envelope(
        "affine-bracket",
        _inputs(spec),
        {"bracket": out.to_json()},
        seed,
    )
    return doc, 0


def _cmd_dij_witness(args, seed):
    spec, ambient = _context_from_args(args)
    ctx = loop_context(spec, ambient)
    x = AffineElement.from_json(ctx, _load_json(args.x))
    if args.j == 0:
        print("error: degree 0 is obstructed; use aid-check", file=sys.stderr)
        return {"error": "degree 0 has no bracket witness; use aid-check"}, 2
    window = (-args.window, args.window) if args.window is not None else None
    res = toral_center_witness(ctx, args.i, args.j, x, window=window)
    verdicts = {
        "status": res.status,
        "witness": res.y.to_json() if res.y is not None else None,
        "window": list(res.window),
        "general_path_used": res.general_path_used,
        "fast_path_failure": res.fast_path_failure,
    }
    inputs = _inputs(spec, i=args.i, j=args.j, x=x.to_json())
    code = 0 if res.status == "witnessed" else 3
    return _envelope("dij-witness", inputs, verdicts, seed), code


def _cmd_aid_check(args, seed):
    spec, ambient = _context_from_args(args)
    ctx = loop_context(spec, ambient)
    x = AffineElement.from_json(ctx, _load_json(args.x))
    op = _operator_from_json(ctx, _load_json(args.op))
    window = (-args.window, args.window) if args.window is not None else None
    res = aid_obstruction_check(ctx, op, x, window=window)
    flags = []
    if res.status == "central-obstruction":
        flags.append(
            "degree-zero-central-obstruction: the operator value is central, but no "
            "bracket against this element reaches the center (the cocycle needs a "
            "nonzero-degree component that pairs with the algebra)"
        )
    verdicts = {
        "status": res.status,
        "witness": res.y.to_json() if res.y is not None else None,
        "window": list(res.window) if res.window else None,
        "detail": res.detail,
        "flags": flags,
    }
    inputs = _inputs(spec, x=x.to_json())
    code = {"witnessed": 0, "central-obstruction": 1, "no-witness-in-window": 3}[res.status]
    return _envelope("aid-check", inputs, verdicts, seed), code


def _cmd_inner_match(args, seed):
    spec, ambient = _context_from_args(args)
    ctx = loop_context(spec, ambient)
    op = _operator_from_json(ctx, _load_json(args.op))
    if not all(isinstance(t, ToralToCenter) for _, t in op.terms):
        raise ValueError("inner-match expects a sum of dij terms")
    coefficients = {(t.i, t.j): w for w, t in op.terms}
    y = global_inner_match(ctx, coefficients, (-args.window, args.window))
    verdicts = {
        "status": "matched" if y is not None else "no-inner-match-in-window",
        "witness": y.to_json() if y is not None else None,
        "window": [-args.window, args.window],
        "note": None if y is not None else "inconclusive-negative: bounded by the search window",
    }
    inputs = _inputs(spec, coefficients={f"{i},{j}": rat_to_str(w) for (i, j), w in sorted(coefficients.items())})
    return _envelope("inner-match", inputs, verdicts, seed), 0 if y is not None else 3


def _cmd_selftest(args, seed):
    from .selfcheck import CRITERIA, run_criteria

    wanted = None
    if args.criteria:
        wanted = {int(c) for c in args.criteria.split(",")}
        unknown = sorted(wanted - {number for number, _, _ in CRITERIA})
        if unknown:
            raise ValueError(f"unknown criteria {unknown}: valid numbers are 1..{len(CRITERIA)}")
    results = run_criteria(wanted, seed=seed)
    verdicts = {
        "criteria": [
            {"number": r.number, "name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "all_ok": all(r.ok for r in results),
    }
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} criterion {r.number}: {r.name} ({r.seconds:.2f}s)", file=sys.stderr)
    doc = _envelope("selftest", {"criteria": args.criteria or "all"}, verdicts, seed)
    return doc, 0 if verdicts["all_ok"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liecert", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help=f"deterministic seed (default {DEFAULT_SEED}, or ${SEED_ENV})")
    parser.add_argument("--json", metavar="PATH", default=None, help="also write the output document to PATH")
    parser.add_argument("--timings", action="store_true", help="include wall-clock timings in the document")
    sub = parser.add_subparsers(dest="command", required=True)

    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--family", required=True)
    algebra.add_argument("--rank", type=int, required=True)
    subset = argparse.ArgumentParser(add_help=False, parents=[algebra])
    subset.add_argument("--psi", required=True, help='semicolon-separated coordinates, e.g. "1,0;2,1"')

    def add(name, fn, parents=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(handler=fn)
        return p

    add("roots", _cmd_roots, [algebra], help="construct a root system")

    p = add("minimal", _cmd_minimal, [algebra], help="enumerate the minimal Q-graded subalgebras")
    p.add_argument("--cap", type=int, default=1 << 24)

    for name, fn in [("certify", _cmd_certify), ("der", _cmd_der), ("aid", _cmd_aid), ("centroid", _cmd_centroid)]:
        p = add(name, fn, [subset], help=f"{name} for a root subset")
        if name == "aid":
            p.add_argument("--matrix", default=None, help="derivation matrix JSON file")

    p = add("affine-bracket", _cmd_affine_bracket, [subset], help="bracket two affine elements")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("dij-witness", _cmd_dij_witness, [subset], help="bracket witness for a toral-to-center derivation")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--window", type=int, default=None)

    p = add("aid-check", _cmd_aid_check, [subset], help="almost-inner check of an operator at an element")
    p.add_argument("--op", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--window", type=int, default=None)

    p = add("inner-match", _cmd_inner_match, [subset], help="search one inner match for a dij combination")
    p.add_argument("--op", required=True)
    p.add_argument("--window", type=int, default=4)

    p = add("selftest", _cmd_selftest, help="run the acceptance criteria")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers (default all)")

    return parser


# built once per process: parse_args leaves the parser unchanged
_PARSER = _build_parser()


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, DEFAULT_SEED))
    started = time.monotonic()
    try:
        doc, code = args.handler(args, seed)
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        doc, code = {"error": str(exc)}, 2
    if args.timings and isinstance(doc, dict) and "error" not in doc:
        doc["timings"] = {"wall_s": round(time.monotonic() - started, 3)}
    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out.write(payload)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting JSON certificates.

One JSON document goes to standard output; diagnostics go to standard error.
Exit codes: 0 a verified positive, 1 a checked property violated (or a
certified obstruction), 2 invalid input, 3 only from ``inner-match``: its
decided non-match keeps the status ``no-inner-match-in-window`` until the
benchmark accepts ``not-inner``, 4 internal error (any other exception,
including a failed re-check or a minimal set that is not r_2^l; the
document is then ``{"error": ...}``).

Identical inputs and seed produce byte-identical output; wall-clock timings
are therefore reported only on request (``--timings``) and excluded from the
default document.

Each subcommand imports the layers it runs inside its handler, so a fresh
process pays only for those: ``roots`` loads ``exact`` and ``rootsys`` alone.
Beyond the modules that Python's start-up already loads, every command adds
only ``argparse``, ``json`` and ``fractions`` (with ``gettext``, ``locale``,
``decimal`` and ``numbers``): the package's read-only classes are plain
classes, so no class decorator pulls in ``inspect`` and its imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .exact import MatQ, expect_json, json_field, rat_from_str, rat_to_str
from .rootsys import build_root_system

__all__ = ["main", "run"]

DEFAULT_SEED = 2024
SEED_ENV = "LIECERT_SEED"
# value ranges refused before any work: a rank-r system has O(r^2) roots;
# inner-match's window W only has to hold the degrees of the terms
MAX_RANK = 20
MAX_WINDOW = 50


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


def _root_system(args):
    if args.rank > MAX_RANK:
        raise ValueError(f"rank {args.rank} is out of range: at most {MAX_RANK}")
    return build_root_system(args.family, args.rank)


def _spec_from_args(args):
    from .chevalley import SubalgebraSpec

    rs = _root_system(args)
    named = {"all": rs.roots, "positive": rs.positive_roots}
    return SubalgebraSpec(rs, named[args.psi] if args.psi in named else parse_psi(args.psi))


def _inputs(spec, **extra) -> dict:
    """The ``inputs`` block of a document about the subalgebra of ``spec``."""
    return {"family": spec.system.family, "rank": spec.system.rank, "psi": [list(r) for r in spec.psi], **extra}


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV}={raw!r} is not an integer") from None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return expect_json(json.load(fh), dict, path)


def _operator_from_json(ctx, obj):
    """Operator schema: {"terms": [{"weight": "p/q", "kind": ..., ...}]}.

    Kinds: "dij" (fields i, j), "inner" (field y: affine element),
    "tensor" (fields matrix, f), "diagonal-derivative" (field fs).
    """
    from .loopalg import AffineElement, Inner, LaurentPoly, OperatorSum, TensorDerivation, ToralToCenter, diagonal_derivative

    raw = obj.get("terms", [])
    if not isinstance(raw, list) or not all(isinstance(t, dict) for t in raw):
        raise ValueError('"terms" must be a list of objects')
    terms = []
    for term in raw:
        weight = term.get("weight", "1")
        kind = json_field(term, "kind", "operator term")

        def field(key):
            return json_field(term, key, f"{kind} term")

        if kind == "dij":
            op = ToralToCenter(ctx, expect_json(field("i"), int, '"i"'), expect_json(field("j"), int, '"j"'))
        elif kind == "inner":
            op = Inner(AffineElement.from_json(ctx, field("y")))
        elif kind == "tensor":
            op = TensorDerivation(ctx, MatQ.from_json(field("matrix")), LaurentPoly.from_json(field("f")))
        elif kind == "diagonal-derivative":
            op = diagonal_derivative(ctx, [LaurentPoly.from_json(f) for f in expect_json(field("fs"), list, '"fs"')])
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
        terms.append((rat_from_str(weight), op))
    return OperatorSum(ctx, tuple(terms))


def _envelope(command: str, inputs: dict, verdicts, seed: int, timings=None) -> dict:
    from .chevalley import CONVENTION

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
    rs = _root_system(args)
    return rs.to_json(), 0


def _cmd_minimal(args, seed):
    from .qgraded import EnumerationCapExceeded, enumerate_minimal

    rs = _root_system(args)
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
    from .qgraded import certify

    spec = _spec_from_args(args)
    cert = certify(spec)
    doc = _envelope(
        "certify",
        _inputs(spec),
        cert.to_json(),
        seed,
    )
    return doc, 0 if cert.all_positive() else 1


def _cmd_der(args, seed):
    from .chevalley import extract_subalgebra
    from .dercalc import derivation_space

    spec = _spec_from_args(args)
    g = extract_subalgebra(spec)
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
    from .chevalley import extract_subalgebra
    from .dercalc import aid_membership, verify_aid_eq_inn

    spec = _spec_from_args(args)
    inputs = _inputs(spec)
    if args.matrix:
        g = extract_subalgebra(spec)
        d = MatQ.from_json(_load_json(args.matrix))
        verdict = aid_membership(g, d)
        verdicts = {
            "status": verdict.status,
            "witness": [rat_to_str(v) for v in verdict.witness] if verdict.witness else None,
            "reason": verdict.reason,
        }
        return _envelope("aid", inputs, verdicts, seed), 0 if verdict.is_inner else 1
    cert = verify_aid_eq_inn(spec)
    return _envelope("aid", inputs, cert.to_json(), seed), 0 if cert.ok else 1


def _cmd_centroid(args, seed):
    from .chevalley import extract_subalgebra
    from .dercalc import centroid_space

    spec = _spec_from_args(args)
    g = extract_subalgebra(spec)
    cent = centroid_space(g)
    # entry u of a row-major dim x dim matrix is on the diagonal iff dim + 1 divides u
    diagonal = not any(u % (g.dim + 1) for m in cent.basis for u in m.nonzeros)
    doc = _envelope(
        "centroid",
        _inputs(spec),
        {"dim": len(cent.basis), "diagonal": diagonal, "basis": [m.to_json() for m in cent.basis]},
        seed,
    )
    return doc, 0


def _cmd_affine_bracket(args, seed):
    from .loopalg import AffineElement, affine_bracket, loop_context

    spec = _spec_from_args(args)
    ctx = loop_context(spec)
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
    from .loopalg import AffineElement, loop_context, toral_center_witness

    spec = _spec_from_args(args)
    ctx = loop_context(spec)
    x = AffineElement.from_json(ctx, _load_json(args.x))
    res = toral_center_witness(ctx, args.i, args.j, x)
    verdicts = {
        "status": res.status,
        "witness": res.y.to_json() if res.y is not None else None,
        "detail": res.detail,
        # the exact solver is the only path; the key stays for readers of the document
        "general_path_used": False,
    }
    inputs = _inputs(spec, i=args.i, j=args.j, x=x.to_json())
    return _envelope("dij-witness", inputs, verdicts, seed), 0 if res.y is not None else 1


def _cmd_aid_check(args, seed):
    from .loopalg import AffineElement, aid_obstruction_check, loop_context

    spec = _spec_from_args(args)
    ctx = loop_context(spec)
    x = AffineElement.from_json(ctx, _load_json(args.x))
    op = _operator_from_json(ctx, _load_json(args.op))
    res = aid_obstruction_check(ctx, op, x)
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
        "detail": res.detail,
        "flags": flags,
    }
    inputs = _inputs(spec, x=x.to_json())
    return _envelope("aid-check", inputs, verdicts, seed), 0 if res.y is not None else 1


def _cmd_inner_match(args, seed):
    from .loopalg import ToralToCenter, global_inner_match, loop_context

    if abs(args.window) > MAX_WINDOW:
        raise ValueError(f"window {args.window} is out of range: |W| is at most {MAX_WINDOW}")
    spec = _spec_from_args(args)
    ctx = loop_context(spec)
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
    subset.add_argument(
        "--psi",
        required=True,
        help='semicolon-separated coordinates, e.g. "1,0;2,1" (--psi="-1,0" when it starts with -), '
        '"all" for every root or "positive" for the positive roots',
    )

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

    p = add("aid-check", _cmd_aid_check, [subset], help="almost-inner check of an operator at an element")
    p.add_argument("--op", required=True)
    p.add_argument("--x", required=True)

    p = add("inner-match", _cmd_inner_match, [subset], help="decide one inner match for a dij combination")
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
    started = time.monotonic()
    try:
        doc, code = args.handler(args, _seed(args))
    except (ValueError, OSError) as exc:  # OSError: an input path that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        doc, code = {"error": str(exc)}, 2
    except Exception as exc:  # a crash must never read as exit 1, "violated"
        message = f"internal error: {type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        doc, code = {"error": message}, 4
    if args.timings and isinstance(doc, dict) and "error" not in doc:
        doc["timings"] = {"wall_s": round(time.monotonic() - started, 3)}
    payload = _dumps(doc) + "\n"
    if args.json:
        # written before stdout, so an unwritable path sends only its error there
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            doc, code = {"error": str(exc)}, 2
            payload = _dumps(doc) + "\n"
    out.write(payload)
    return code


_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: {True: "true", False: "false"}.get,
    type(None): lambda _: "null",
}


def _write(value, parts: list[str], newline: str) -> None:
    """Append ``value`` as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it at the indentation ``newline``; TypeError on a type it does not know."""
    kind = type(value)
    if kind in _LEAVES:
        parts.append(_LEAVES[kind](value))
    elif kind is not dict and kind is not list:
        raise TypeError(kind.__name__)
    elif not value:
        parts.append("{}" if kind is dict else "[]")
    elif kind is list and type(value[0]) is str and all(type(item) is str for item in value):
        # matrix entries and element coordinates: one join, no call per item
        inner = newline + "  "
        parts += ("[", inner, ("," + inner).join(map(encode_basestring_ascii, value)), newline, "]")
    else:
        inner, sep = newline + "  ", "{" if kind is dict else "["
        for item in sorted(value.items()) if kind is dict else value:
            parts += (sep, inner)
            if kind is dict:
                parts += (encode_basestring_ascii(item[0]), ": ")  # TypeError unless the key is a str
                item = item[1]
            _write(item, parts, inner)
            sep = ","
        parts += (newline, "}" if kind is dict else "]")


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, without
    the pure-Python encoder that ``indent`` forces; a document the writer
    cannot take is left to ``json.dumps`` whole."""
    parts: list[str] = []
    try:
        _write(doc, parts, "\n")
    except TypeError:
        return json.dumps(doc, sort_keys=True, indent=2)
    return "".join(parts)


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting JSON certificates.

One JSON document goes to standard output; diagnostics go to standard error.
Exit codes: 0 a verified positive, 1 a checked property violated (or a
certified obstruction), 2 invalid input, 3 only from ``inner-match``: its
decided non-match keeps the status ``no-inner-match-in-window`` until the
benchmark accepts ``not-inner``, 4 internal error (any other exception,
including a failed re-check, a minimal set that is not r_2^l, or a document
holding a value that the writer does not take; the document is then
``{"error": ...}`` unless part of the first was already written).

Identical inputs and seed produce byte-identical output; wall-clock timings
are therefore reported only on request (``--timings``) and excluded from the
default document.

Each subcommand imports the layers it runs inside its handler, so a fresh
process pays only for those: ``roots`` loads ``exact`` and ``rootsys`` alone.
Beyond the modules that Python's start-up already loads, every command adds
only ``json`` and ``fractions`` (with ``decimal`` and ``numbers``): argv is read
off one command table, not by ``argparse``, and the read-only classes are plain
classes, so no class decorator pulls in ``inspect`` and its imports.  An
input file is read by raw ``os.read`` calls, not through a text-mode file
object, and decoded as strict UTF-8; every error reading it names the file
and exits 2, nesting too deep to decode included; one decoder, built at
import, parses every file.  The subalgebra spec of one ``(--family, --rank,
--psi)`` is built once per process.

A document is written as ``json.dumps(doc, sort_keys=True, indent=2)`` would
write it, by ``_write``.  ``der`` and ``centroid`` put their ``MatQ`` bases in
the document as they are, and each is written from its nonzeros, a run of
zero entries as one repeated string.  ``minimal`` puts in the ``RootSets``
of ``qgraded.enumerate_minimal``, in the printed order and held as root
indices: the text of each root at each place in a set is made once per
document, and a block of sets is one join over their indices.  Once the
matrices and sets written pass ``_CHUNK`` characters, the text so far goes to
the output and is dropped: a long document is streamed, a short one written whole.
``--json`` writes the document to its file in full, then writes it again to
the output; it never reads the file back.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from functools import lru_cache
from itertools import cycle
from json.encoder import encode_basestring_ascii
from operator import getitem
from types import SimpleNamespace

from . import __version__
from .exact import MatQ, _shown, expect_json, json_field, rat_from_str, rat_to_str
from .rootsys import RootSets, build_root_system

__all__ = ["main", "run"]

DEFAULT_SEED = 2024
SEED_ENV = "LIECERT_SEED"
# value ranges refused before any work: a rank-r system has O(r^2) roots;
# inner-match's window W only has to hold the degrees of the terms
MAX_RANK = 20
MAX_WINDOW = 50
# input files are read as bytes: O_BINARY stops a text-mode C runtime from translating them
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


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


def _rank(args) -> int:
    if args.rank > MAX_RANK:
        raise ValueError(f"rank {args.rank} is out of range: at most {MAX_RANK}")
    return args.rank


def _root_system(args):
    return build_root_system(args.family, _rank(args))


def _spec_from_args(args):
    # the rank check stays outside the memo, so a refused rank raises on every call
    return _spec(args.family, _rank(args), args.psi)


@lru_cache(maxsize=32)
def _spec(family: str, rank: int, psi: str):
    """The subalgebra spec of one ``(--family, --rank, --psi)``, built once, like
    ``chevalley._extract``; an argv that it refuses is not kept and raises again."""
    from .chevalley import SubalgebraSpec

    rs = build_root_system(family, rank)
    named = {"all": rs.roots, "positive": rs.positive_roots}
    return SubalgebraSpec(rs, named[psi] if psi in named else parse_psi(psi))


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


def _unique(pairs: list) -> dict:
    """The JSON object of ``pairs``; ValueError on a key that it repeats,
    which ``json.loads`` would read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"key {json.dumps(twice)} appears twice in one object")
    return obj


# one decoder for every input file: json.loads with a hook builds a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique)


def _load_json(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``, read by raw ``os.read``
    calls; ValueError that names the file on bytes that are not UTF-8, on
    JSON that does not parse or nests too deep, on a key that one object
    repeats, and on a top level that is not an object.  Newlines are
    translated as text mode does, so error offsets count ``\r\n`` as one
    character."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except IsADirectoryError as exc:  # os.read leaves the path out of its message
        raise IsADirectoryError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    try:
        text = b"".join(chunks).decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text[:1] == "\ufeff":  # json.loads refuses a BOM; JSONDecoder.decode does not check
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except RecursionError:  # the decoder's, on arrays or objects nested too deep
        raise ValueError(f"{path}: JSON nested too deep to read") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ValueError(f"{path}: {exc}") from None
    return expect_json(obj, dict, path)


def _operator_from_json(g, obj):
    """Operator schema: {"terms": [{"weight": "p/q", "kind": ..., ...}]}.

    Kinds: "dij" (fields i, j), "inner" (field y: affine element),
    "tensor" (fields matrix, f), "diagonal-derivative" (field fs).
    """
    from .loopalg import AffineElement, DiagonalDerivative, Inner, LaurentPoly, OperatorSum, TensorDerivation, ToralToCenter

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
            op = ToralToCenter(g, expect_json(field("i"), int, '"i"'), expect_json(field("j"), int, '"j"'))
        elif kind == "inner":
            op = Inner(AffineElement.from_json(g, field("y")))
        elif kind == "tensor":
            op = TensorDerivation(g, MatQ.from_json(field("matrix")), LaurentPoly.from_json(field("f")))
        elif kind == "diagonal-derivative":
            op = DiagonalDerivative(g, tuple(LaurentPoly.from_json(f) for f in expect_json(field("fs"), list, '"fs"')))
        else:
            raise ValueError(f"unknown operator kind {_shown(kind)}")
        terms.append((rat_from_str(weight), op))
    return OperatorSum(g, tuple(terms))


def _envelope(command: str, inputs: dict, verdicts, seed: int) -> dict:
    from .chevalley import CONVENTION

    return {
        "toolkit": "liecert",
        "toolkit_version": __version__,
        "convention": CONVENTION,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "verdicts": verdicts,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_roots(args, seed):
    return _root_system(args).to_json(), 0


def _cmd_minimal(args, seed):
    from .qgraded import enumerate_minimal

    rs = _root_system(args)
    sets = enumerate_minimal(rs, cap=args.cap)  # EnumerationCapExceeded is a ValueError: exit 2
    verdicts = {"count": len(sets), "minimal_subalgebras": sets}
    return _envelope("minimal", {"family": rs.family, "rank": rs.rank}, verdicts, seed), 0


def _cmd_certify(args, seed):
    from .qgraded import certify

    spec = _spec_from_args(args)
    cert = certify(spec)
    return _envelope("certify", _inputs(spec), cert.to_json(), seed), 0 if cert.all_positive() else 1


def _cmd_der(args, seed):
    from .chevalley import extract_subalgebra
    from .dercalc import derivation_space

    spec = _spec_from_args(args)
    g = extract_subalgebra(spec)
    basis = derivation_space(g)
    verdicts = {
        "dim_l": g.dim,
        "dim_der": basis.dim_der,
        "dim_inn": basis.dim_inn,
        "dim_complement": len(basis.complement_basis),
        "der_basis": list(basis.der_basis),
        "inn_basis": list(basis.inn_basis),
        "complement_basis": list(basis.complement_basis),
    }
    return _envelope("der", _inputs(spec), verdicts, seed), 0


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
    verdicts = {"dim": len(cent.basis), "diagonal": diagonal, "basis": list(cent.basis)}
    return _envelope("centroid", _inputs(spec), verdicts, seed), 0


def _cmd_affine_bracket(args, seed):
    from .loopalg import AffineElement, affine_bracket, loop_context

    spec = _spec_from_args(args)
    g = loop_context(spec)
    x = AffineElement.from_json(g, _load_json(args.x))
    y = AffineElement.from_json(g, _load_json(args.y))
    return _envelope("affine-bracket", _inputs(spec), {"bracket": affine_bracket(x, y).to_json()}, seed), 0


def _cmd_dij_witness(args, seed):
    from .loopalg import AffineElement, loop_context, toral_center_witness

    spec = _spec_from_args(args)
    g = loop_context(spec)
    x = AffineElement.from_json(g, _load_json(args.x))
    res = toral_center_witness(g, args.i, args.j, x)
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
    g = loop_context(spec)
    x = AffineElement.from_json(g, _load_json(args.x))
    op = _operator_from_json(g, _load_json(args.op))
    res = aid_obstruction_check(g, op, x)
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
    g = loop_context(spec)
    op = _operator_from_json(g, _load_json(args.op))
    if not all(isinstance(t, ToralToCenter) for _, t in op.terms):
        raise ValueError("inner-match expects a sum of dij terms")
    coefficients = {(t.i, t.j): w for w, t in op.terms}
    y = global_inner_match(g, coefficients, (-args.window, args.window))
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
# command table and parser
# ---------------------------------------------------------------------------

# option string -> (type, default, required); a type of None marks a flag
_STR, _INT, _HELP = (str, None, True), (int, None, True), {"-h": (None, None, False), "--help": (None, None, False)}
_GLOBAL = {**_HELP, "--seed": (int, None, False), "--json": (str, None, False), "--timings": (None, None, False)}
_ALGEBRA = {**_HELP, "--family": _STR, "--rank": _INT}
_SUBSET = {**_ALGEBRA, "--psi": _STR}
# command -> (handler, one-line help, options)
_COMMANDS = {
    "roots": (_cmd_roots, "construct a root system", _ALGEBRA),
    "minimal": (_cmd_minimal, "enumerate the minimal Q-graded subalgebras", {**_ALGEBRA, "--cap": (int, 1 << 24, False)}),
    "certify": (_cmd_certify, "certify for a root subset", _SUBSET),
    "der": (_cmd_der, "der for a root subset", _SUBSET),
    "aid": (_cmd_aid, "aid for a root subset", {**_SUBSET, "--matrix": (str, None, False)}),
    "centroid": (_cmd_centroid, "centroid for a root subset", _SUBSET),
    "affine-bracket": (_cmd_affine_bracket, "bracket two affine elements", {**_SUBSET, "--x": _STR, "--y": _STR}),
    "dij-witness": (_cmd_dij_witness, "witness for a toral-to-center derivation", {**_SUBSET, "--i": _INT, "--j": _INT, "--x": _STR}),
    "aid-check": (_cmd_aid_check, "almost-inner check of an operator at an element", {**_SUBSET, "--op": _STR, "--x": _STR}),
    "inner-match": (_cmd_inner_match, "decide one inner match of dij terms", {**_SUBSET, "--op": _STR, "--window": (int, 4, False)}),
    "selftest": (_cmd_selftest, "run the acceptance criteria", {**_HELP, "--criteria": (str, None, False)}),
}
_SEED_NOTE = f"--seed defaults to ${SEED_ENV}, else {DEFAULT_SEED}; --json also writes the document to a file"
_PSI_NOTE = '--psi: "1,0;2,1" lists roots in simple-root coordinates (--psi="-1,0" when it starts with -); or all, positive'


def _is_option(token: str, options: dict) -> bool:
    """argparse's reading: a token that starts with "-" is a value only when it
    is "-", a negative number or holds a space, and does not name an option."""
    named = token.partition("=")[0] in options
    return token[:1] == "-" and token != "-" and (named or not (re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token))


def _parse(argv):
    """The namespace that ``run`` and the handlers read, or the help text for
    ``-h``/``--help``; ValueError with the error line for an argv it refuses."""
    args, command, prog, options, unknown = SimpleNamespace(seed=None, json=None, timings=False), None, "liecert", _GLOBAL, []
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        spec = options.get(name)
        if token == "--":  # every later token is read as a positional
            unknown += [token, *tokens]
        elif spec is None and (command is not None or _is_option(token, options)):
            unknown.append(token)
        elif spec is None and token not in _COMMANDS:
            raise ValueError(f"liecert: error: argument command: invalid choice: {token!r} (choose from {', '.join(map(repr, _COMMANDS))})")
        elif spec is None:
            command = args.command = token
            prog, (args.handler, _, options) = f"liecert {token}", _COMMANDS[token]
            vars(args).update((option[2:], default) for option, (kind, default, _) in options.items() if kind is not None)
        elif spec[0] is None and eq:
            raise ValueError(f"{prog}: error: argument {name}: ignored explicit argument {value!r}")
        elif name == "--timings":
            args.timings = True
        elif spec[0] is None:  # -h or --help
            return _help(command)
        else:
            value = value if eq else next(tokens, None)
            if value is None or not eq and _is_option(value, options):
                raise ValueError(f"{prog}: error: argument {name}: expected one argument")
            try:
                setattr(args, name[2:], spec[0](value))
            except ValueError:
                raise ValueError(f"{prog}: error: argument {name}: invalid int value: {value!r}") from None
    missing = ["command"] if command is None else [o for o, spec in options.items() if spec[2] and getattr(args, o[2:]) is None]
    if missing:
        raise ValueError(f"{prog}: error: the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise ValueError(f"liecert: error: unrecognized arguments: {' '.join(unknown)}")
    return args


def _help(command) -> str:
    """Usage of ``liecert`` or of one command, read off the command table."""
    _, about, options = _COMMANDS[command] if command else (None, _SEED_NOTE, _GLOBAL)
    words = [f"usage: liecert {command}" if command else "usage: liecert"]
    for option, (kind, default, required) in options.items():
        if option not in _HELP:
            value = "" if kind is None else f"={default}" if default is not None else f" {kind.__name__.upper()}"
            words.append(option + value if required else f"[{option}{value}]")
    if command is None:
        rows = [f"  {name:<15} {text}" for name, (_, text, _) in _COMMANDS.items()]
        return "\n".join([" ".join(words) + " COMMAND ...", about, *rows, ""])
    return "\n".join([" ".join(words), about, *[_PSI_NOTE] * ("--psi" in options), ""])


def _failed(exc: Exception, code: int) -> tuple[dict, int]:
    """Print the ``error:`` line of ``exc``; its document and exit ``code``:
    2 for invalid input, 4 for a crash, which must never read as 1, "violated"."""
    message = f"internal error: {type(exc).__name__}: {exc}" if code == 4 else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return {"error": message}, code


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse(argv)
    except ValueError as exc:  # a refused argv: its error line and no document
        print(exc, file=sys.stderr)
        return 2
    if isinstance(args, str):  # -h or --help
        out.write(args)
        return 0
    started = time.monotonic()
    try:
        doc, code = args.handler(args, _seed(args))
    except (ValueError, OSError) as exc:  # OSError: an input path that cannot be read
        doc, code = _failed(exc, 2)
    except Exception as exc:
        doc, code = _failed(exc, 4)
    if args.timings and "error" not in doc:
        doc["timings"] = {"wall_s": round(time.monotonic() - started, 3)}
    if args.json:
        # the file is written in full before stdout, so an unwritable path sends only its error there
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                doc, code = _send(doc, code, fh)
        except OSError as exc:
            doc, code = _failed(exc, 2)
    return _send(doc, code, out)[1]


# characters of matrix or set text after which the document written so far goes to its stream
_CHUNK = 1 << 20
_SETS = 1024  # sets of roots joined into one piece of text before the stream is told of it


class _Stream:
    """One document as it is written: each matrix adds the length of its
    entries, counted as zeros, and each block of sets of roots the length of
    its text, to ``pending``; once that passes ``_CHUNK`` the pieces so far
    are written to ``out`` and dropped."""

    def __init__(self, out):
        self.out, self.pending, self.streamed = out, 0, False

    def held(self, parts: list[str], size: int) -> None:
        self.pending += size
        if self.pending > _CHUNK:
            self.out.write("".join(parts))
            parts.clear()
            self.pending, self.streamed = 0, True


_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: {True: "true", False: "false"}.get,
    type(None): lambda _: "null",
}


def _write(value, parts: list[str], newline: str, stream: _Stream) -> None:
    """Append ``value`` as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it at the indentation ``newline``, ``RootSets`` as a list and a
    ``MatQ`` as its ``to_json()``, telling ``stream`` of each matrix and each
    block of sets; TypeError on a type it does not know, a tuple included."""
    kind = type(value)
    if kind in _LEAVES:
        parts.append(_LEAVES[kind](value))
    elif kind is not dict and kind is not list:
        if kind is RootSets:
            _write_sets(value, parts, newline, stream)
        elif kind is MatQ:
            _write_matrix(value, parts, newline, stream)
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    elif not value:
        parts.append("{}" if kind is dict else "[]")
    else:
        inner, sep = newline + "  ", "{" if kind is dict else "["
        for item in sorted(value.items()) if kind is dict else value:
            parts += (sep, inner)
            if kind is dict:
                parts += (encode_basestring_ascii(item[0]), ": ")  # TypeError unless the key is a str
                item = item[1]
            _write(item, parts, inner, stream)
            sep = ","
        parts += (newline, "}" if kind is dict else "]")


def _write_sets(sets: RootSets, parts: list[str], newline: str, stream: _Stream) -> None:
    """Append ``list(sets)`` as ``_write`` writes it: the text of each root at
    each place in a set, with its separators, is made once, and each block of
    ``_SETS`` sets is one join over the root indices; ``stream`` is told its length."""
    inner, item = newline + "  ", newline + "    "
    texts = [f"[{item}  {(',' + item + '  ').join(map(str, r))}{item}]" for r in sets.system.roots]
    places = [[f",{inner}[{item}{t}" for t in texts]] + [[f",{item}{t}" for t in texts]] * (sets.size - 1)
    places[-1] = [f"{t}{inner}]" for t in places[-1]]
    step = _SETS * sets.size
    for start in range(0, len(sets.indices), step):
        block = "".join(map(getitem, cycle(places), sets.indices[start : start + step]))
        parts.append(block if start else "[" + block[1:])
        stream.held(parts, len(block))
    parts += (newline, "]") if len(sets) else ("[]",)


def _write_matrix(m: MatQ, parts: list[str], newline: str, stream: _Stream) -> None:
    """Append ``m.to_json()`` as ``_write`` would, from the sorted nonzeros
    of ``m``: a run of k zero entries is one string repeated k times."""
    inner = newline + "  "
    n = m.rows * m.cols
    parts += ("{", inner, '"cols": ', str(m.cols), ",", inner, '"entries": ')
    if n:
        item = inner + "  "
        sep = "," + item
        zero, at, nonzeros = '"0"' + sep, 0, m.nonzeros
        parts += ("[", item)
        for u in sorted(nonzeros):
            parts.append(f'{zero * (u - at)}"{rat_to_str(nonzeros[u])}"{sep}')
            at = u + 1
        if at < n:
            parts += (zero * (n - at - 1), '"0"')
        else:
            parts[-1] = parts[-1][: -len(sep)]  # no separator after the last entry
        parts += (inner, "]")
        stream.held(parts, n * len(zero))
    else:
        parts.append("[]")
    parts += (",", inner, '"rows": ', str(m.rows), newline, "}")


def _send(doc, code: int, out) -> tuple[dict, int]:
    """Write ``doc`` and a newline to ``out``; the document written and its
    exit code.  A document whose matrices and sets hold at most ``_CHUNK``
    characters goes in one ``out.write``, a longer one in chunks.  A value
    that the writer does not take is a handler's fault, exit 4: its
    ``{"error": ...}`` document is written instead, unless part of ``doc``
    already was."""
    parts: list[str] = []
    stream = _Stream(out)
    try:
        _write(doc, parts, "\n", stream)
    except TypeError as exc:
        doc, code = _failed(exc, 4)
        return (doc, code) if stream.streamed else _send(doc, code, out)
    parts.append("\n")
    out.write("".join(parts))
    return doc, code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
